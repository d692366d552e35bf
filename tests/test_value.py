"""The package's value classes: a light import, and the value semantics
each class keeps (equality, hashing, repr, order, immutability, copies)."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tnncells import (
    BracketTable,
    CauchonDiagram,
    CellDescriptor,
    LaurentPoly,
    MatrixTrace,
    MinorFamily,
    MinorId,
    PartialPermutation,
    RestrictedPermutation,
    TnnVerdict,
    VarRegistry,
    cell_bracket_table,
    family_of_diagram,
    matrix_bracket_table,
    perm_of_diagram,
    restore,
    symbolic_cauchon_matrix,
)
from tnncells._value import _Value
from tnncells.poisson import PairCheck, StepBracketReport
from tnncells.verify import SuiteReport

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, tnncells, tnncells.verify, tnncells.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def _diagram(m=2, p=3, black=((1, 1),)):
    return CauchonDiagram.from_black(m, p, black)


# (class, a factory returning a fresh instance with the same fields each
# call, its repr when pinned, instances in ascending order when ordered)
CASES = [
    (TnnVerdict, lambda: TnnVerdict(False, MinorId((1, 2), (1, 2)), Fraction(-1)), None, None),
    (
        CellDescriptor,
        lambda: CellDescriptor(_diagram(), family_of_diagram(_diagram()), perm_of_diagram(_diagram())),
        None,
        None,
    ),
    (
        CauchonDiagram,
        _diagram,
        "CauchonDiagram(m=2, p=3, mask=1)",
        [_diagram(1, 3, ()), _diagram(2, 2, ((1, 1), (1, 2))), _diagram(2, 3, ()), _diagram()],
    ),
    (
        RestrictedPermutation,
        lambda: RestrictedPermutation(2, 2, (3, 4, 1, 2)),
        "RestrictedPermutation(m=2, p=2, w=(3, 4, 1, 2))",
        [
            RestrictedPermutation(1, 2, (1, 2, 3)),
            RestrictedPermutation(2, 1, (1, 2, 3)),
            RestrictedPermutation(2, 2, (1, 2, 3, 4)),
            RestrictedPermutation(2, 2, (3, 4, 1, 2)),
        ],
    ),
    (PartialPermutation, lambda: PartialPermutation(2, 3, ((1, 2), (3, 1))), None, None),
    (VarRegistry, lambda: VarRegistry.grid(2, 3), "VarRegistry(m=2, p=3)", None),
    (MinorFamily, lambda: MinorFamily(2, 2, 5), "MinorFamily(m=2, p=2, mask=5)", None),
    (BracketTable, lambda: cell_bracket_table(VarRegistry.grid(2, 2)), None, None),
    (
        PairCheck,
        lambda: PairCheck((1, 1), (2, 2), True),
        "PairCheck(first=(1, 1), second=(2, 2), ok=True, difference=None)",
        None,
    ),
    (
        StepBracketReport,
        lambda: StepBracketReport(_diagram(), (1, 2), (PairCheck((1, 1), (2, 2), True),)),
        None,
        None,
    ),
    (MatrixTrace, lambda: restore(((1, 2), (3, 4))), None, None),
    (SuiteReport, lambda: SuiteReport("demo", True, "fine", {"k": [1, 2]}), None, None),
]


@pytest.mark.parametrize(
    "cls, make, pinned, ascending", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_semantics(cls, make, pinned, ascending):
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert copy.copy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    if cls not in (SuiteReport, BracketTable):
        assert hash(a) == hash(b)
    else:  # SuiteReport is mutable; a BracketTable holds a dict
        with pytest.raises(TypeError):
            hash(a)

    # another value class with the same fields is not equal
    twin_cls = type("Twin", (_Value,), {"__slots__": cls._fields})
    twin = object.__new__(twin_cls)
    for name in cls._fields:
        object.__setattr__(twin, name, getattr(a, name))
    assert a != twin and twin != a
    assert a != tuple(getattr(a, name) for name in cls._fields)

    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(a, name)!r}" for name in cls._fields
    ) + ")"
    if pinned is not None:
        assert repr(a) == pinned

    if ascending is not None:
        assert sorted(reversed(ascending)) == ascending
        assert ascending[0] < ascending[1] <= ascending[1] and ascending[-1] >= ascending[0]
        assert ascending[-1] > ascending[0] and not ascending[0] > ascending[-1]
    else:
        with pytest.raises(TypeError):
            a < b

    name = cls._fields[0]
    if cls is SuiteReport:
        a.ok = False
        assert a != b and b.ok
        c, d = SuiteReport("x", True, ""), SuiteReport("x", True, "")
        c.details["k"] = 1
        assert c.details is not d.details and d.details == {}
    else:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert a == b


def test_order_holds_only_within_one_class():
    diagram, perm = _diagram(), RestrictedPermutation(2, 2, (1, 2, 3, 4))
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(diagram, name)(perm) is NotImplemented, name
        assert getattr(perm, name)(diagram) is NotImplemented, name
    with pytest.raises(TypeError, match="not supported between instances"):
        diagram < perm


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda: restore(symbolic_cauchon_matrix(_diagram(black=((1, 2),)))[1]),
            id="symbolic-trace",
        ),
        pytest.param(lambda: matrix_bracket_table(VarRegistry.grid(2, 3)), id="matrix-table"),
    ],
)
def test_values_holding_polynomials_copy_and_pickle(make):
    a = make()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a


def test_a_copied_polynomial_keeps_its_coefficients_and_stays_immutable():
    f = LaurentPoly(VarRegistry.grid(1, 2), {(2, -1): Fraction(1, 3), (0, 1): 4, (1, 1): 0})
    for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin.registry == f.registry and twin.terms == f.terms
        assert [type(c) for c in twin.terms.values()] == [Fraction, int]
        with pytest.raises(AttributeError):
            twin.terms = {}
