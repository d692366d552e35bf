"""Exact-arithmetic invariants of totally nonnegative matrix cells.

The package computes and cross-checks the combinatorial data attached to
tnn cells on small grids: Cauchon diagrams, restricted permutations,
vanishing-minor families from both the permutation and the diagram side,
the restoration / deleting-derivations traces that connect them, and the
Poisson-bracket identities the construction preserves.  All arithmetic is
exact (rationals and sparse Laurent polynomials); nothing here floats.
"""

from .cells import (
    CellDescriptor,
    TnnVerdict,
    classify,
    family_of_diagram,
    is_tnn,
    match_families,
    random_cauchon_matrix,
    symbolic_cauchon_matrix,
)
from .combinat import (
    CauchonDiagram,
    RestrictedPermutation,
    block_decompose,
    bruhat_leq,
    count_diagrams,
    enumerate_diagrams,
    enumerate_restricted_perms,
    index_set_leq,
    perm_of_diagram,
    random_diagram,
    w_max,
)
from .errors import (
    InexactDivisionError,
    NotTotallyNonnegativeError,
    RegistryMismatchError,
    SelfCheckError,
    SizeCapError,
)
from .families import (
    PartialPermutation,
    bruhat_cell_vanishes,
    closure_rank_conditions_hold,
    enumerate_partial_permutations,
    family_of_perm,
)
from .laurent import LaurentPoly, VarRegistry, laurent_div_exact, parse_laurent
from .linalg import all_minors, as_matrix, det_exact, mat_mul, rank_exact
from .minors import (
    MinorFamily,
    MinorId,
    all_minor_ids,
    all_minors_table,
    eval_minor,
    vanishing_family,
)
from .poisson import (
    BracketTable,
    bracket,
    cell_bracket_table,
    matrix_bracket_table,
    verify_all_step_brackets,
    verify_jacobi,
)
from .restoration import (
    MatrixTrace,
    delete_derivations,
    diagram_of_matrix,
    is_cauchon_matrix,
    restore,
    step_sequence,
    trace_h_invariance_counterexample,
)
from .serialize import (
    format_matrix_csv,
    format_trace,
    parse_matrix_csv,
    parse_rational,
)

__version__ = "0.1.0"

__all__ = [
    "BracketTable",
    "CauchonDiagram",
    "CellDescriptor",
    "InexactDivisionError",
    "LaurentPoly",
    "MatrixTrace",
    "MinorFamily",
    "MinorId",
    "NotTotallyNonnegativeError",
    "PartialPermutation",
    "RegistryMismatchError",
    "RestrictedPermutation",
    "SelfCheckError",
    "SizeCapError",
    "TnnVerdict",
    "VarRegistry",
    "all_minor_ids",
    "all_minors",
    "all_minors_table",
    "as_matrix",
    "block_decompose",
    "bracket",
    "bruhat_cell_vanishes",
    "bruhat_leq",
    "cell_bracket_table",
    "classify",
    "closure_rank_conditions_hold",
    "count_diagrams",
    "delete_derivations",
    "det_exact",
    "diagram_of_matrix",
    "enumerate_diagrams",
    "enumerate_partial_permutations",
    "enumerate_restricted_perms",
    "eval_minor",
    "family_of_diagram",
    "family_of_perm",
    "format_matrix_csv",
    "format_trace",
    "index_set_leq",
    "is_cauchon_matrix",
    "is_tnn",
    "laurent_div_exact",
    "mat_mul",
    "match_families",
    "matrix_bracket_table",
    "parse_laurent",
    "parse_matrix_csv",
    "parse_rational",
    "perm_of_diagram",
    "random_cauchon_matrix",
    "random_diagram",
    "rank_exact",
    "restore",
    "step_sequence",
    "symbolic_cauchon_matrix",
    "trace_h_invariance_counterexample",
    "vanishing_family",
    "verify_all_step_brackets",
    "verify_jacobi",
    "w_max",
]
