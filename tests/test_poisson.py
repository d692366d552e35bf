"""Bracket tables, the biderivation extension, and step-bracket checks."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from tnncells import (
    BracketTable,
    CauchonDiagram,
    LaurentPoly,
    MatrixTrace,
    RegistryMismatchError,
    VarRegistry,
    bracket,
    cell_bracket_table,
    enumerate_diagrams,
    matrix_bracket_table,
    poisson,
    restore,
    symbolic_cauchon_matrix,
    verify_all_step_brackets,
    verify_jacobi,
)


def multidegree(f):
    """The common row+column multidegree of all terms of f, or None if
    mixed.  The variable at (i, a) adds the unit vectors e_i and e_(m+a);
    the zero polynomial has the zero degree."""
    reg = f.registry
    degrees = set()
    for e in f.terms:
        d = [0] * (reg.m + reg.p)
        for (i, a), x in zip(reg.positions, e):
            d[i - 1] += x
            d[reg.m + a - 1] += x
        degrees.add(tuple(d))
    if len(degrees) > 1:
        return None
    return degrees.pop() if degrees else (0,) * (reg.m + reg.p)


def step_report(C, step):
    """The step-bracket report of one step label of the diagram."""
    return next(rep for rep in verify_all_step_brackets(C) if rep.step == step)


def generators(reg):
    return [reg.gen(k) for k in range(len(reg))]


def rand_poly(reg, rng, terms=3):
    out = reg.zero()
    for _ in range(rng.randint(1, terms)):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        e = tuple(rng.randint(-2, 2) for _ in range(len(reg)))
        out = out + LaurentPoly(reg, {e: c})
    return out


def per_pair_bracket(f, g, table):
    """The biderivation formula summed over the table's pairs v < w, with
    fresh partials for each pair: the oracle for the monomial route."""
    total = table.registry.zero()
    for (v, w), value in table.entries.items():
        total = total + value * (f.partial(v) * g.partial(w) - f.partial(w) * g.partial(v))
    return total


def cell_skew(reg):
    """The cell table's Lambda from its definition: +1 above the diagonal
    and -1 below it for same-row or same-column pairs, 0 elsewhere."""
    n = len(reg)
    skew = [[0] * n for _ in range(n)]
    for v, w in combinations(range(n), 2):
        (i, a), (k, g) = reg.positions[v], reg.positions[w]
        if i == k or a == g:
            skew[v][w], skew[w][v] = 1, -1
    return tuple(map(tuple, skew))


def nonzero_columns(skew):
    """A skew matrix as the columns that `BracketTable.shifts` keeps: the
    nonzero ones, keyed by column index."""
    return {u: column for u, column in enumerate(zip(*skew)) if any(column)}


def white_cell_registries():
    """The registries of a few diagrams with black cells."""
    diagrams = [
        CauchonDiagram.from_black(2, 2, ((1, 1),)),
        CauchonDiagram.from_black(3, 3, ((1, 1), (1, 2))),
        CauchonDiagram.from_black(3, 3, ((2, 1), (3, 1), (3, 2))),
        CauchonDiagram.from_black(3, 3, ((1, 3), (2, 3), (3, 3))),
    ]
    return [symbolic_cauchon_matrix(C)[0] for C in diagrams]


REGISTRIES = [VarRegistry.grid(2, 2), VarRegistry.grid(3, 3), *white_cell_registries()]


class TestGeneratorTables:
    def test_cell_values(self, reg22):
        t11, t12, t21, t22 = generators(reg22)
        table = cell_bracket_table(reg22)
        assert bracket(t11, t12, table) == t11 * t12
        assert bracket(t11, t21, table) == t11 * t21
        assert bracket(t11, t22, table).is_zero
        assert bracket(t12, t21, table).is_zero

    def test_matrix_values(self, reg22):
        t11, t12, t21, t22 = generators(reg22)
        table = matrix_bracket_table(reg22)
        assert bracket(t11, t12, table) == t11 * t12
        assert bracket(t11, t22, table) == 2 * t12 * t21
        assert bracket(t12, t21, table).is_zero

    def test_pair_antisymmetry(self, reg22):
        table = matrix_bracket_table(reg22)
        gens = generators(reg22)
        for v in range(4):
            for w in range(4):
                want = table.entries.get((v, w), reg22.zero())
                if v > w:
                    want = -table.entries.get((w, v), reg22.zero())
                assert bracket(gens[v], gens[w], table) == want

    def test_matrix_table_needs_full_grid(self):
        reg = VarRegistry.grid(2, 2, skip=((1, 2),))
        with pytest.raises(ValueError):
            matrix_bracket_table(reg)
        cell_bracket_table(reg)  # partial grids are fine here

    def test_table_validation(self, reg22):
        t11 = reg22.gen(0)
        with pytest.raises(ValueError):
            BracketTable(reg22, {(1, 0): t11})
        with pytest.raises(ValueError):
            BracketTable(reg22, {(2, 2): t11})
        other = VarRegistry.grid(2, 3)
        with pytest.raises(RegistryMismatchError):
            BracketTable(reg22, {(0, 1): other.gen(0)})


class TestLogCanonicalSkew:
    @pytest.mark.parametrize("reg", REGISTRIES, ids=lambda r: f"{r.m}x{r.p}-{len(r)}vars")
    def test_cell_table_records_its_skew(self, reg):
        zero = (0,) * len(reg)
        assert cell_bracket_table(reg).shifts == ((zero, nonzero_columns(cell_skew(reg))),)

    def test_constant_multiple_of_the_product(self, reg22):
        t11, t12, t21, t22 = generators(reg22)
        table = BracketTable(
            reg22, {(0, 1): Fraction(3, 2) * t11 * t12, (1, 3): -t12 * t22, (0, 3): reg22.zero()}
        )
        want = [[0] * 4 for _ in range(4)]
        want[0][1], want[1][0] = Fraction(3, 2), Fraction(-3, 2)
        want[1][3], want[3][1] = -1, 1
        assert table.shifts == (((0, 0, 0, 0), nonzero_columns(want)),)

    def test_fractional_skew_gives_integral_values(self, reg22):
        t11, t12, _, _ = generators(reg22)
        table = BracketTable(reg22, {(0, 1): Fraction(3, 2) * t11 * t12})
        result = bracket(t11 * t11, t12, table)
        assert result == 3 * t11 * t11 * t12
        assert str(result) == "3 * t[1,1]^2 * t[1,2]^1"
        assert bracket(t11, t12, table) == per_pair_bracket(t11, t12, table)


def int_coefficients(f) -> bool:
    return all(type(c) is int for c in f.terms.values())


class TestIntLane:
    """Generic matrices, their restorations and their brackets stay in the
    integers: Laurent arithmetic keeps int coefficients int."""

    def test_every_restored_3x3_generic_matrix(self):
        for C in enumerate_diagrams(3, 3):
            _, M = symbolic_cauchon_matrix(C)
            for _, Y in restore(M).items():
                for x in (x for row in Y for x in row):
                    assert int_coefficients(x), (C, x)

    def test_brackets_of_the_restored_entries(self):
        reg, M = symbolic_cauchon_matrix(CauchonDiagram.from_black(3, 3, ()))
        entries = [x for row in restore(M).final for x in row]
        for table in (cell_bracket_table(reg), matrix_bracket_table(reg)):
            for x, y in combinations(entries, 2):
                assert int_coefficients(bracket(x, y, table))


class TestShifts:
    """Tables whose values are not constant multiples of t_v * t_w: each
    value splits into shifted skews, and the one route still equals the
    per-pair formula."""

    def sample(self, reg, rng):
        gens = generators(reg)
        polys = [rand_poly(reg, rng) for _ in range(6)]
        return polys + [gens[0] * gens[0] / gens[-1], reg.const(Fraction(7, 3)), reg.zero()]

    def test_two_by_two_matrix_table_has_two_shifts(self, reg22):
        table = matrix_bracket_table(reg22)
        crossed = [[0] * 4 for _ in range(4)]
        crossed[0][3], crossed[3][0] = 2, -2
        assert table.shifts == (
            ((0, 0, 0, 0), nonzero_columns(cell_skew(reg22))),
            ((-1, 1, 1, -1), nonzero_columns(crossed)),
        )

    @pytest.mark.parametrize("m, p", [(1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_matrix_table_is_the_one_pass_rule(self, m, p):
        # the table as one double loop over ordered pairs: same row or same
        # column gives t_v t_w, northwest-southeast gives 2 t_ig t_ka
        reg = VarRegistry.grid(m, p)
        entries = {}
        for v, (i, a) in enumerate(reg.positions):
            for w in range(v + 1, len(reg)):
                k, g = reg.positions[w]
                if (i == k and a < g) or (i < k and a == g):
                    entries[(v, w)] = reg.gen(v) * reg.gen(w)
                elif i < k and a < g:
                    entries[(v, w)] = 2 * reg.var(i, g) * reg.var(k, a)
        table = matrix_bracket_table(reg)
        assert table.entries == entries
        assert table.shifts == BracketTable(reg, entries).shifts

    @pytest.mark.parametrize("m, p", [(2, 2), (2, 3), (3, 3)])
    def test_matrix_table_equals_per_pair_bracket(self, m, p, rng):
        reg = VarRegistry.grid(m, p)
        table = matrix_bracket_table(reg)
        assert len(table.shifts) == 1 + comb(m, 2) * comb(p, 2)
        sample = self.sample(reg, rng) + list(generators(reg))
        for f in sample:
            for g in sample:
                assert bracket(f, g, table) == per_pair_bracket(f, g, table)

    def test_other_values_split_into_shifts(self, reg22, rng):
        t11, t12, t21, t22 = generators(reg22)
        sample = self.sample(reg22, rng)
        for value in (
            t11 * t11,
            t11 * t12 * t21,
            t21 * t22,
            t11 * t12 + t21 * t22,
            t11 * t12 * t21 / t22,
            2 * t12 * t21,
            reg22.const(5),
        ):
            table = BracketTable(reg22, {(0, 1): value})
            assert len(table.shifts) == len(value.terms), value
            for f in sample:
                for g in sample:
                    assert bracket(f, g, table) == per_pair_bracket(f, g, table), value

    def test_broken_table_with_negative_shifts(self, reg22, rng):
        t11, t12, t21, t22 = generators(reg22)
        broken = BracketTable(reg22, {(0, 1): t21 * t21, (0, 3): t11 * t11, (1, 2): t22})
        assert any(min(s) < 0 for s, _ in broken.shifts)
        sample = self.sample(reg22, rng)
        for f in sample:
            for g in sample:
                assert bracket(f, g, broken) == per_pair_bracket(f, g, broken)

    def test_multi_term_fraction_value_on_a_white_cell_registry(self, rng):
        reg = white_cell_registries()[1]
        x, y, z = generators(reg)[:3]
        value = Fraction(2, 3) * x / y + Fraction(-5, 4) * z + 7 * x * y * z
        table = BracketTable(reg, {(0, 2): value, (1, 3): reg.zero()})
        assert len(table.shifts) == 3
        sample = self.sample(reg, rng)
        for f in sample:
            for g in sample:
                assert bracket(f, g, table) == per_pair_bracket(f, g, table)


class TestMonomialRoute:
    """The monomial route against the gradient formula on cell tables:
    `per_pair_bracket` takes fresh partials for every pair."""

    @pytest.mark.parametrize("reg", REGISTRIES, ids=lambda r: f"{r.m}x{r.p}-{len(r)}vars")
    def test_equals_gradient_route_on_random_pairs(self, reg, rng):
        table = cell_bracket_table(reg)
        assert len(table.shifts) == 1
        sample = [rand_poly(reg, rng) for _ in range(8)]
        last = reg.gen(len(reg) - 1)
        sample += [reg.const(1) / (last * last), reg.const(Fraction(7, 3)), reg.zero()]
        for f in sample:
            for g in sample:
                assert bracket(f, g, table) == per_pair_bracket(f, g, table)

    def test_equals_gradient_route_on_every_2x3_step_entry_pair(self):
        for C in enumerate_diagrams(2, 3):
            reg, M = symbolic_cauchon_matrix(C)
            table = cell_bracket_table(reg)
            for _, Y in restore(M).items():
                entries = [x for row in Y for x in row]
                for x, y in combinations(entries, 2):
                    assert bracket(x, y, table) == per_pair_bracket(x, y, table)

    def test_step_check_compares_the_monomial_bracket(self, monkeypatch):
        # predict zero everywhere: every failure must carry the full bracket
        C = CauchonDiagram.from_black(2, 3, ((1, 2),))
        reg, M = symbolic_cauchon_matrix(C)
        Y = restore(M)[(2, 3)]
        table = cell_bracket_table(reg)
        monkeypatch.setattr(poisson, "_step_case", lambda r, pos1, pos2: "zero")
        report = step_report(C, (2, 3))
        assert len(report.checks) == 15 and report.failures
        for check in report.checks:
            (i, a), (k, g) = check.first, check.second
            want = per_pair_bracket(Y[i - 1][a - 1], Y[k - 1][g - 1], table)
            assert check.ok == (not want)
            assert check.difference == (None if check.ok else want)


def sized_poly(reg, rng, size):
    """A polynomial with exactly `size` terms and nonzero Fraction
    coefficients; size 0 gives the zero polynomial."""
    terms = {}
    while len(terms) < size:
        e = tuple(rng.randint(-2, 2) for _ in range(len(reg)))
        terms[e] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    return LaurentPoly(reg, terms)


class TestOperandOrder:
    """`bracket` weighs the operand with fewer terms and negates, since
    {f, g} = -{g, f} term by term; the route taken must not show."""

    @pytest.mark.parametrize("kind", ["cell", "matrix"])
    @pytest.mark.parametrize("m, p", [(2, 2), (2, 3), (3, 3)])
    def test_both_routes_equal_the_per_pair_bracket(self, kind, m, p, rng):
        reg = VarRegistry.grid(m, p)
        table = (cell_bracket_table if kind == "cell" else matrix_bracket_table)(reg)
        sample = [sized_poly(reg, rng, size) for size in (0, 1, 2, 2, 3, 5)]
        orders = set()
        for f in sample:
            for g in sample:
                orders.add((len(f.terms) > len(g.terms)) - (len(f.terms) < len(g.terms)))
                fg, gf = bracket(f, g, table), bracket(g, f, table)
                assert fg == -gf
                assert fg == per_pair_bracket(f, g, table)
                assert gf == per_pair_bracket(g, f, table)
        assert orders == {-1, 0, 1}

    def test_the_operand_with_fewer_terms_is_weighted(self, monkeypatch, rng):
        reg = VarRegistry.grid(2, 3)
        table = matrix_bracket_table(reg)
        weighted = []

        def recorded(terms, shifts):
            weighted.append(terms)
            return full(terms, shifts)

        full = poisson._weighted_terms
        monkeypatch.setattr(poisson, "_weighted_terms", recorded)
        small, large = sized_poly(reg, rng, 2), sized_poly(reg, rng, 4)
        for f, g in ((small, large), (large, small), (small, small)):
            bracket(f, g, table)
        assert weighted == [small.terms, small.terms, small.terms]


def assert_reports_match_oracle(C, reports, trace, table):
    """Every step pair's check against the route that builds both sides:
    `bracket` on the table and `expected_step_bracket`, with no
    certificate and no reuse."""
    grid = [(i, a) for i in range(1, C.m + 1) for a in range(1, C.p + 1)]
    assert [rep.step for rep in reports] == list(trace.labels)
    for rep in reports:
        Y = trace[rep.step]
        assert [(c.first, c.second) for c in rep.checks] == list(combinations(grid, 2))
        for check in rep.checks:
            (i, a), (k, g) = check.first, check.second
            lhs = bracket(Y[i - 1][a - 1], Y[k - 1][g - 1], table)
            rhs = poisson.expected_step_bracket(
                Y, rep.step, check.first, check.second, table.registry
            )
            assert check.ok == (lhs == rhs), (rep.step, check)
            assert check.difference == (None if check.ok else lhs - rhs), (rep.step, check)


ALL_WHITE_33 = CauchonDiagram.from_black(3, 3, ())


class TestStepCertificate:
    """Weight certificates and reuse across steps against the oracle route,
    and plants that each must fall through to the full comparison."""

    @pytest.mark.parametrize("m, p", [(2, 3), (3, 2), (3, 3), (2, 4)])
    def test_every_step_pair_matches_the_oracle(self, m, p):
        for C in enumerate_diagrams(m, p):
            reg, M = symbolic_cauchon_matrix(C)
            reports = verify_all_step_brackets(C)
            assert all(rep.ok for rep in reports)
            assert_reports_match_oracle(C, reports, restore(M), cell_bracket_table(reg))

    def test_few_pairs_fall_through(self, monkeypatch):
        # 74,520 step pairs at (3,3); carrying checks from label to label
        # leaves 17,598 to examine, and certificates leave 3,398 of those
        calls = {"expected_step_bracket": 0, "_certified": 0}
        for name in calls:
            full = getattr(poisson, name)

            def counted(*args, name=name, full=full):
                calls[name] += 1
                return full(*args)

            monkeypatch.setattr(poisson, name, counted)
        for C in enumerate_diagrams(3, 3):
            verify_all_step_brackets(C)
        assert 0 < calls["expected_step_bracket"] <= 6000
        assert 0 < calls["_certified"] <= 17_598

    def test_a_wrong_weight_falls_through(self, monkeypatch):
        reg, M = symbolic_cauchon_matrix(ALL_WHITE_33)
        cell = cell_bracket_table(reg)
        entries = dict(cell.entries)
        entries[(0, 1)] = 2 * entries[(0, 1)]  # t11, t12: same row
        doubled = BracketTable(reg, entries)
        assert len(doubled.shifts) == 1 and not any(doubled.shifts[0][0])
        monkeypatch.setattr(poisson, "cell_bracket_table", lambda registry: doubled)
        reports = verify_all_step_brackets(ALL_WHITE_33)
        assert not all(rep.ok for rep in reports)
        assert_reports_match_oracle(ALL_WHITE_33, reports, restore(M), doubled)

    def test_a_second_shift_falls_through(self, monkeypatch):
        reg, M = symbolic_cauchon_matrix(ALL_WHITE_33)
        table = matrix_bracket_table(reg)
        assert len(table.shifts) > 1
        monkeypatch.setattr(poisson, "cell_bracket_table", lambda registry: table)
        reports = verify_all_step_brackets(ALL_WHITE_33)
        assert not all(rep.ok for rep in reports)
        assert_reports_match_oracle(ALL_WHITE_33, reports, restore(M), table)

    def test_a_nonzero_shift_falls_through(self, monkeypatch):
        # the cell table's weights with every value times t33: one shift,
        # and it is not 0, so weight 1 no longer means the product
        reg, M = symbolic_cauchon_matrix(ALL_WHITE_33)
        t33 = reg.var(3, 3)
        entries = cell_bracket_table(reg).entries
        shifted = BracketTable(reg, {vw: value * t33 for vw, value in entries.items()})
        assert len(shifted.shifts) == 1 and any(shifted.shifts[0][0])
        monkeypatch.setattr(poisson, "cell_bracket_table", lambda registry: shifted)
        reports = verify_all_step_brackets(ALL_WHITE_33)
        assert not all(rep.ok for rep in reports)
        assert_reports_match_oracle(ALL_WHITE_33, reports, restore(M), shifted)

    # (3,3) is never written, so it is one object throughout the trace.
    # At label (3,2) no entry changes: (1,2) is then Y_ig of the crossed
    # pair (1,1), (2,2), whose own entries stay the same objects, and a
    # constant (1,1) makes that pair's bracket 0 against a nonzero crossed
    # prediction.
    @pytest.mark.parametrize(
        "pos, label", [((3, 3), (2, 2)), ((1, 2), (3, 2)), ((1, 1), (3, 2))]
    )
    def test_a_replaced_entry_is_checked_again(self, monkeypatch, pos, label):
        reg, M = symbolic_cauchon_matrix(ALL_WHITE_33)
        trace = restore(M)
        k = trace.labels.index(label)
        i, a = pos
        assert trace.matrices[k - 1][i - 1][a - 1] is trace.matrices[k][i - 1][a - 1]
        rows = [list(row) for row in trace.matrices[k]]
        rows[i - 1][a - 1] = reg.const(1)
        matrices = list(trace.matrices)
        matrices[k] = tuple(map(tuple, rows))
        planted = MatrixTrace(trace.m, trace.p, trace.labels, tuple(matrices))
        monkeypatch.setattr(poisson, "restore", lambda X: planted)
        reports = verify_all_step_brackets(ALL_WHITE_33)
        assert [rep.ok for rep in reports] == [r != label for r in trace.labels]
        assert_reports_match_oracle(
            ALL_WHITE_33, reports, planted, cell_bracket_table(reg)
        )

    def test_a_pair_turning_crossed_is_checked_again(self, monkeypatch):
        # Step (2,2) is planted as a no-op, so at label (2,3) the pair
        # (1,1), (2,2) reads the same four objects as at (2,2); only its
        # case changes, from zero to crossed, and its bracket stays 0
        # against a nonzero crossed prediction.
        reg, M = symbolic_cauchon_matrix(ALL_WHITE_33)
        trace = restore(M)
        k = trace.labels.index((2, 3))
        assert trace.labels[k - 1] == (2, 2)
        matrices = list(trace.matrices)
        matrices[k] = matrices[k - 1]
        planted = MatrixTrace(trace.m, trace.p, trace.labels, tuple(matrices))
        monkeypatch.setattr(poisson, "restore", lambda X: planted)
        reports = verify_all_step_brackets(ALL_WHITE_33)
        assert reports[k - 1].ok
        assert ((1, 1), (2, 2)) in {(c.first, c.second) for c in reports[k].failures}
        assert_reports_match_oracle(
            ALL_WHITE_33, reports, planted, cell_bracket_table(reg)
        )


class TestBracketLaws:
    @pytest.fixture(params=["cell", "matrix"])
    def table(self, request, reg22):
        make = cell_bracket_table if request.param == "cell" else matrix_bracket_table
        return make(reg22)

    def test_antisymmetry_and_bilinearity(self, table, reg22, rng):
        for _ in range(10):
            f, g, h = (rand_poly(reg22, rng) for _ in range(3))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            assert bracket(f, g, table) == -bracket(g, f, table)
            assert bracket(f + c * g, h, table) == bracket(f, h, table) + c * bracket(
                g, h, table
            )

    def test_equals_per_pair_reference(self, table, reg22, rng):
        gens = generators(reg22)
        sample = [rand_poly(reg22, rng) for _ in range(12)]
        sample += [Fraction(1, 3) * gens[0] * gens[0], gens[3], reg22.const(Fraction(5, 2))]
        sample += [Fraction(3, 2) * gens[1] / gens[2] + gens[0]]
        for f in sample:
            for g in sample:
                assert bracket(f, g, table) == per_pair_bracket(f, g, table)

    def test_leibniz(self, table, reg22, rng):
        for _ in range(10):
            f, g, h = (rand_poly(reg22, rng) for _ in range(3))
            assert bracket(f, g * h, table) == bracket(f, g, table) * h + g * bracket(
                f, h, table
            )

    def test_jacobi(self, table, reg22, rng):
        polys = [rand_poly(reg22, rng) for _ in range(12)]
        assert verify_jacobi(table, polys)

    @pytest.mark.parametrize("m, p, count", [(2, 3, 20), (3, 3, 84), (3, 4, 220)])
    def test_jacobi_on_every_generator_triple(self, m, p, count):
        # the Jacobiator of a biderivation is a triderivation, so it
        # vanishes everywhere once it vanishes on generator triples
        reg = VarRegistry.grid(m, p)
        triples = list(combinations(generators(reg), 3))
        assert len(triples) == count
        table = matrix_bracket_table(reg)
        assert verify_jacobi(table, [x for triple in triples for x in triple])

    def test_jacobi_spots_a_broken_table(self, reg22):
        t11, t12, t21, t22 = generators(reg22)
        broken = BracketTable(
            reg22, {(0, 1): t21 * t21, (0, 3): t11 * t11, (1, 2): t22}
        )
        assert not verify_jacobi(broken, [t11 * t12, t21, t22 + t11])

    def test_registry_mismatch_rejected(self, reg22):
        other = VarRegistry.grid(2, 3)
        table = cell_bracket_table(reg22)
        with pytest.raises(RegistryMismatchError):
            bracket(other.gen(0), other.gen(1), table)


class TestMultidegree:
    def test_generators(self, reg22):
        t11, t12, t21, t22 = generators(reg22)
        assert multidegree(t11) == (1, 0, 1, 0)
        assert multidegree(t22) == (0, 1, 0, 1)

    def test_products_add(self, reg22):
        t11, t12, t21, t22 = generators(reg22)
        assert multidegree(t11 * t22) == (1, 1, 1, 1)
        assert multidegree(t12 * t21 / t22) == (1, 0, 1, 0)

    def test_mixed_is_none(self, reg22):
        t11, _, _, t22 = generators(reg22)
        assert multidegree(t11 + t22) is None
        assert multidegree(reg22.zero()) == (0, 0, 0, 0)

    def test_restored_entries_are_homogeneous(self):
        # each step's correction carries the degree of the entry it lands
        # on, so the whole trace stays graded
        for C in enumerate_diagrams(2, 2):
            reg, M = symbolic_cauchon_matrix(C)
            for _, Y in restore(M).items():
                for i in (1, 2):
                    for a in (1, 2):
                        entry = Y[i - 1][a - 1]
                        if not entry.is_zero:
                            want = [0, 0, 0, 0]
                            want[i - 1] += 1
                            want[2 + a - 1] += 1
                            assert multidegree(entry) == tuple(want)

    def test_bracket_adds_degrees(self, reg22, rng):
        t11, t12, t21, t22 = generators(reg22)
        table = matrix_bracket_table(reg22)
        f = t11 / t12
        g = t21 * t22
        fg = bracket(f, g, table)
        assert not fg.is_zero
        assert multidegree(fg) == tuple(
            x + y for x, y in zip(multidegree(f), multidegree(g))
        )


class TestStepBrackets:
    def test_final_state_crossed_pair(self):
        C = CauchonDiagram.from_black(2, 2, ())
        reg, M = symbolic_cauchon_matrix(C)
        t11, t12, t21, t22 = generators(reg)
        Y = restore(M).final
        table = cell_bracket_table(reg)
        assert bracket(Y[0][0], Y[1][1], table) == 2 * t12 * t21

    def test_base_state_crossed_pair_is_zero(self):
        C = CauchonDiagram.from_black(2, 2, ())
        reg, M = symbolic_cauchon_matrix(C)
        table = cell_bracket_table(reg)
        assert bracket(M[0][0], M[1][1], table).is_zero

    def test_report_shape(self):
        C = CauchonDiagram.from_black(2, 2, ((1, 1),))
        report = step_report(C, (2, 3))
        assert report.ok and len(report.checks) == 6 and not report.failures
        assert report.diagram == C and report.step == (2, 3)
        assert [(c.first, c.second) for c in report.checks[:2]] == [
            ((1, 1), (1, 2)),
            ((1, 1), (2, 1)),
        ]

    @pytest.mark.parametrize("pos1, pos2", [((2, 2), (1, 1)), ((1, 2), (1, 1)), ((1, 2), (1, 2))])
    def test_unordered_positions_rejected(self, pos1, pos2):
        reg, M = symbolic_cauchon_matrix(CauchonDiagram.from_black(2, 2, ()))
        with pytest.raises(ValueError, match="are not lexicographically ordered"):
            poisson.expected_step_bracket(M, (2, 3), pos1, pos2, reg)

    def test_all_two_by_two_diagrams(self):
        for C in enumerate_diagrams(2, 2):
            assert all(rep.ok for rep in verify_all_step_brackets(C))
