import random
from fractions import Fraction

import pytest
from hypothesis import settings

from tnncells import MinorFamily, VarRegistry, all_minor_ids
from tnncells.families import _condition_masks

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def reg22() -> VarRegistry:
    return VarRegistry.grid(2, 2)


def rand_fraction(rng: random.Random, span: int = 30, allow_zero: bool = True) -> Fraction:
    num = rng.randint(-span, span)
    if not allow_zero and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, span))


def rand_matrix(rng: random.Random, m: int, p: int, span: int = 30) -> list:
    return [[rand_fraction(rng, span) for _ in range(p)] for _ in range(m)]


def family_of_ids(m: int, p: int, ids) -> MinorFamily:
    """The family of the m x p grid holding exactly the given MinorIds."""
    order = all_minor_ids(m, p)
    mask = 0
    for mid in ids:
        mask |= 1 << order.index(mid)
    return MinorFamily(m, p, mask)


def stripe_column_sets(w) -> set[tuple[int, ...]]:
    """Column sets of the minors that condition 3 (the column stripes)
    alone puts into the family of w."""
    return {mid.cols for mid in MinorFamily(w.m, w.p, _condition_masks(w)[2])}


def stripe_row_sets(w) -> set[tuple[int, ...]]:
    """Row sets of the minors that condition 4 (the row stripes) alone
    puts into the family of w."""
    return {mid.rows for mid in MinorFamily(w.m, w.p, _condition_masks(w)[3])}
