"""Tests for the benchmark's oracles and for the small-grid mode of every
workload.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "m, p, count",
    [(1, 1, 2), (2, 2, 14), (2, 3, 46), (3, 3, 230), (3, 4, 1066), (8, 8, 276054834902)],
)
def test_poly_bernoulli_counts(m, p, count):
    assert oracles.poly_bernoulli(m, p) == count
    assert oracles.poly_bernoulli(p, m) == count


@pytest.mark.parametrize("m, p", [(1, 3), (2, 2), (2, 3), (3, 3)])
def test_closed_form_matches_enumeration_by_the_rule(m, p):
    cells = list(product(range(1, m + 1), range(1, p + 1)))
    diagrams = sum(
        oracles.is_left_or_above(m, p, [c for c, on in zip(cells, bits) if on])
        for bits in product((0, 1), repeat=len(cells))
    )
    perms = sum(
        oracles.is_restricted(m, p, w)
        for w in product(range(1, m + p + 1), repeat=m + p)
        if len(set(w)) == m + p
    )
    assert diagrams == perms == oracles.poly_bernoulli(m, p)


@pytest.mark.parametrize(
    "rows, value",
    [
        ([[1, 0], [0, 1]], 1),
        ([[1, 2], [3, 4]], -2),
        ([[1, 2], [2, 4]], 0),
        ([[0, 1, 2], [1, 0, 3], [4, -3, 8]], -2),
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]], Fraction(1, 60)),
        ([[0, 0], [0, 5]], 0),
    ],
)
def test_det_of_hand_made_matrices(rows, value):
    assert oracles.det(rows) == value


def test_tnn_cell_of_the_golden_restoration():
    X = [[11, 7, 4, 1], [7, 5, 3, 1], [4, 3, 2, 1], [1, 1, 1, 1]]
    cell = oracles.tnn_cell(X)
    assert len(cell) == 8
    assert ((2, 3, 4), (2, 3, 4)) in cell
    assert ((1,), (1,)) not in cell


def test_tnn_cell_rejects_a_negative_minor():
    assert oracles.tnn_cell([[1, 2], [3, 4]]) is None


def test_cauchon_rule():
    assert oracles.is_left_or_above(2, 2, [(1, 2)])
    assert oracles.is_left_or_above(2, 2, [(1, 1), (2, 2), (2, 1)])
    assert not oracles.is_left_or_above(2, 2, [(2, 2)])
    assert not oracles.is_left_or_above(3, 3, [(1, 1), (2, 2)])


def test_restricted_permutation_bounds():
    assert oracles.is_restricted(2, 2, (3, 4, 1, 2))
    assert not oracles.is_restricted(2, 2, (4, 3, 2, 1))
    assert not oracles.is_restricted(2, 2, (1, 1, 2, 3))


def test_sympy_bracket_on_generators():
    sb = oracles.SympyBrackets(2, 2)
    table = sb.cell_table()
    t11, t12, t21, t22 = sb.symbols
    assert sb.equal(sb.bracket(t11, t12, table), t11 * t12)
    assert sb.equal(sb.bracket(t12, t11, table), -t11 * t12)
    assert sb.equal(sb.bracket(t11, t21, table), t11 * t21)
    assert sb.equal(sb.bracket(t12, t21, table), 0)
    assert sb.jacobi_fails(table) == []


def test_jacobi_check_catches_a_bad_table():
    sb = oracles.SympyBrackets(1, 3)
    x, y, z = sb.symbols
    assert sb.jacobi_fails({(0, 1): y**2, (1, 2): x})


def test_program_cell_table_agrees_with_the_oracle():
    from tnncells import VarRegistry, cell_bracket_table

    sb = oracles.SympyBrackets(2, 3)
    program = sb.table_of(cell_bracket_table(VarRegistry.grid(2, 3)))
    own = sb.cell_table()
    assert set(program) == set(own)
    assert all(sb.equal(program[k], own[k]) for k in own)


def test_bijection_check_counts_a_repeated_family():
    work = workloads.Bijection(0, small=True)
    for step in work.steps():
        step()
    assert work.check() == 0
    pairs = work.report.details["pairs"]
    pairs[1]["family"] = pairs[0]["family"]
    assert work.check() == 2


def test_classify_check_counts_a_wrong_reply():
    work = workloads.Classify(0, True, workloads.classify_plan(0, small=True))
    work.build()
    for step in work.steps():
        step()
    assert work.check() == 0
    work.replies[0] = work.replies[1]
    assert work.check() == 1


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_grid_run_passes_every_check(workload):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--small")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {"run_s", "setup_s", "peak_rss_mib"}


def test_small_traced_run_reports_every_per_layer_metric():
    out = _run("--workload", "corpus", "--seed", "3", "--seconds", "0", "--small", "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0, m["name"]


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [
        f"{w}.{metric}" for w, metrics in tracing.LAYER_METRICS.items() for metric in metrics
    ]
    assert [m["name"] for m in spec["per_layer"]][: len(expected)] == expected


def test_run_refuses_a_tree_without_the_package():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT / "perfbench",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
