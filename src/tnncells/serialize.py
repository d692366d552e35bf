"""Text interchange: rationals, matrix CSV, step-labeled trace dumps.

Rational cells are written ``num/den`` with the denominator omitted when
it is 1.  Symbolic cells use the Laurent text form; since that form
contains commas, symbolic cells are quoted, which the csv module does for
us on write and undoes on read.
"""

from __future__ import annotations

import csv
import io

from .laurent import VarRegistry, parse_laurent, parse_rational
from .linalg import Matrix, as_matrix


def parse_matrix_csv(text: str) -> Matrix:
    """Parse a matrix from CSV.

    If any cell mentions a variable the whole matrix is read symbolically,
    against the grid registry of the matrix's own shape.  Malformed CSV,
    such as a field past the csv module's size limit, raises ValueError.
    """
    try:
        cells = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as exc:
        raise ValueError(f"malformed CSV: {exc}") from None
    if not cells:
        raise ValueError("empty matrix")
    if not any("t[" in c for row in cells for c in row):
        return as_matrix([[parse_rational(c) for c in row] for row in cells])
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
