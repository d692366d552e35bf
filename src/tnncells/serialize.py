"""Text interchange: rationals, matrix CSV, step-labeled trace dumps.

Rational cells are written ``num/den`` with the denominator omitted when
it is 1.  Symbolic cells use the Laurent text form; since that form
contains commas, symbolic cells are quoted, which the csv module does for
us on write and undoes on read.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction

from .laurent import VarRegistry, parse_laurent
from .linalg import Matrix, as_matrix

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(s)


def parse_matrix_csv(text: str, registry: VarRegistry | None = None) -> Matrix:
    """Parse a matrix from CSV.

    If any cell mentions a variable the whole matrix is read symbolically,
    against `registry` when given and otherwise against the full grid
    registry of the matrix's own shape.
    """
    cells = [row for row in csv.reader(io.StringIO(text)) if row]
    if not cells:
        raise ValueError("empty matrix")
    symbolic = registry is not None or any("t[" in c for row in cells for c in row)
    if not symbolic:
        return as_matrix([[parse_rational(c) for c in row] for row in cells])
    if registry is None:
        registry = VarRegistry.grid(len(cells), len(cells[0]))
    return as_matrix([[parse_laurent(c, registry) for c in row] for row in cells])


def format_matrix_csv(M: Matrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in M:
        writer.writerow([str(x) for x in row])
    return buf.getvalue()


def format_trace(trace) -> str:
    """One matrix block per step, labeled ``(j,b)``, blocks separated by
    a blank line."""
    blocks = []
    for label, matrix in trace.items():
        j, b = label
        blocks.append(f"({j},{b})\n" + format_matrix_csv(matrix))
    return "\n".join(blocks)
