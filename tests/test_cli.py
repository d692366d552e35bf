"""End-to-end command coverage through cli.main, plus real subprocesses."""

import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tnncells import (
    RestrictedPermutation,
    cells,
    cli,
    delete_derivations,
    family_of_perm,
    restore,
    verify,
)
from tnncells.serialize import format_matrix_csv, parse_matrix_csv
from tnncells.verify import SuiteReport

from conftest import descending_row_pool

NBAR_CSV = "11,7,4,1\n7,5,3,1\n4,3,2,1\n1,1,1,1\n"
N_CSV = "1,0,1,1\n0,0,1,1\n1,1,1,1\n1,1,1,1\n"
NOT_TNN_CSV = "0,1\n1,0\n"
SYMBOLIC_CSV = '"t[1,1]","t[1,2]"\n"t[2,1]","t[2,2]"\n'
SYMBOLIC_4X4_CSV = "".join(
    ",".join(f'"t[{i},{a}]"' for a in range(1, 5)) + "\n" for i in range(1, 5)
)
# restoring or deleting it divides t[1,2]*t[2,1] by the pivot t[1,1] + t[2,2]
NONDIVIDING_CSV = (
    '"1 * t[1,1]^1 + 1 * t[1,2]^1","1 * t[1,2]^1"\n'
    '"1 * t[2,1]^1","1 * t[2,2]^1 + 1 * t[1,1]^1"\n'
)
# a bare sign, and a term with no factor before its "*"
MALFORMED_CSV = '"t[1,1]","-"\n"* t[2,1]","t[2,2]"\n'


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestCounting:
    def test_diagram_count(self, capsys):
        code, obj, _ = run_json(capsys, "diagrams", "2", "2", "--count")
        assert code == 0 and obj == {"m": 2, "p": 2, "count": 14}

    def test_perm_count(self, capsys):
        code, obj, _ = run_json(capsys, "perms", "3", "3", "--count")
        assert code == 0 and obj["count"] == 230

    def test_enumeration_payload(self, capsys):
        code, obj, _ = run_json(capsys, "diagrams", "1", "1")
        assert code == 0 and obj["count"] == 2
        assert {"m": 1, "p": 1, "black": []} in obj["diagrams"]

    def test_rejects_oversized_grid(self, capsys):
        code, out, err = run(capsys, "diagrams", "9", "9")
        assert code == 2 and out == "" and "bitmask" in err

    @pytest.mark.parametrize("argv", [("diagrams", "6", "6"), ("perms", "1", "17"), ("perms", "17", "1")])
    def test_enumeration_cap_refuses(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--count")
        assert (code, out) == (2, "")
        assert err.strip() == (
            f"({argv[1]},{argv[2]}) exceeds the 16-cell cap; pass --force to run anyway"
        )

    def test_force_lifts_the_enumeration_cap(self, capsys):
        # --count on diagrams runs the row DP, not the enumeration: B(5,5)
        code, obj, _ = run_json(capsys, "diagrams", "5", "5", "--count", "--force")
        assert code == 0 and obj == {"m": 5, "p": 5, "count": 329462}

    def test_perm_count_builds_no_permutation(self, capsys):
        # --count on perms runs the band DP: B(8,8) without listing any
        code, obj, _ = run_json(capsys, "perms", "8", "8", "--count", "--force")
        assert code == 0 and obj == {"m": 8, "p": 8, "count": 276_054_834_902}


class TestFamilies:
    def test_mw_matches_library(self, capsys):
        code, obj, _ = run_json(capsys, "mw", "3", "4", "--w", "3,1,4,2,7,6,5")
        w = RestrictedPermutation(3, 4, (3, 1, 4, 2, 7, 6, 5))
        assert code == 0 and obj == family_of_perm(w).to_json_obj()

    def test_mw_rejects_bad_notation(self, capsys):
        code, _, err = run(capsys, "mw", "2", "2", "--w", "1,2,3")
        assert code == 2 and "bad --w" in err

    def test_mc_inline_diagram_table_format(self, capsys):
        spec = '{"m": 2, "p": 2, "black": [[1, 2], [2, 1]]}'
        code, out, _ = run(capsys, "mc", "--diagram", spec, "--format", "table")
        lines = out.strip().splitlines()
        assert code == 0
        assert [json.loads(x) for x in lines] == [
            {"rows": [1], "cols": [2]},
            {"rows": [2], "cols": [1]},
        ]

    def test_mc_bad_diagram(self, capsys):
        code, _, err = run(capsys, "mc", "--diagram", '{"m": 2}')
        assert code == 2 and "bad --diagram" in err

    @pytest.mark.parametrize(
        "spec, field",
        [("{}", "m"), ('{"m": 2}', "p"), ('{"m": 2, "p": 2}', "black")],
    )
    def test_mc_diagram_missing_a_field(self, capsys, spec, field):
        code, out, err = run(capsys, "mc", "--diagram", spec)
        assert code == 2 and out == ""
        assert f"bad --diagram: a diagram needs the field '{field}'" in err

    def test_match_emits_pairs(self, capsys):
        code, obj, _ = run_json(capsys, "match", "2", "2")
        assert code == 0 and len(obj) == 14
        assert all("perm" in d and "diagram" in d for d in obj)

    def test_match_cap_refusal(self, capsys):
        code, out, err = run(capsys, "match", "4", "4")
        assert code == 2 and "--force" in err and out == ""

    def test_match_self_check_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cells, "enumerate_diagrams", lambda m, p: iter(()))
        code, out, err = run(capsys, "match", "2", "2")
        assert (code, out) == (1, "")
        assert err == "match failed: permutation family {} has no matching diagram\n"


class TestClassify:
    def test_worked_matrix(self, capsys, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text(NBAR_CSV)
        code, obj, _ = run_json(capsys, "classify", "--matrix", str(f))
        assert code == 0
        assert sorted(obj["diagram"]["black"]) == [[1, 2], [2, 1], [2, 2]]
        assert obj["assertions_passed"] == [
            "all-minors-nonnegative",
            "deleted-zero-pattern-is-cauchon",
            "vanishing-family-matches-diagram-family",
        ]
        assert "matched_perm" not in obj

    def test_find_perm(self, capsys, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text(NBAR_CSV)
        code, obj, _ = run_json(capsys, "classify", "--matrix", str(f), "--find-perm")
        assert code == 0 and obj["matched_perm"] is not None

    def test_not_tnn_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("0,1\n1,0\n"))
        code, obj, _ = run_json(capsys, "classify", "--matrix", "-")
        assert code == 1
        assert obj == {
            "error": "not totally nonnegative",
            "witness": "[1,2|1,2]",
            "value": "-1",
        }

    def test_rejects_symbolic(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('"t[1,1]",1\n2,3\n'))
        code, _, err = run(capsys, "classify", "--matrix", "-")
        assert code == 2 and "rational" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "--matrix", "/nonexistent.csv")
        assert code == 2 and "bad --matrix" in err

    def test_self_check_failure_exits_one(self, capsys, monkeypatch):
        def refuse(X):
            raise ValueError("planted")

        monkeypatch.setattr(cells, "diagram_of_matrix", refuse)
        monkeypatch.setattr(sys, "stdin", io.StringIO(NBAR_CSV))
        code, out, err = run(capsys, "classify", "--matrix", "-")
        assert (code, out) == (1, "")
        assert err == (
            "classification self-check failed: "
            "inverse algorithm produced a non-diagram zero pattern: planted\n"
        )


class TestTraces:
    def test_restore_worked_matrix(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(N_CSV))
        code, out, _ = run(capsys, "restore", "--matrix", "-")
        assert code == 0 and out == NBAR_CSV

    def test_delete_inverts(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(NBAR_CSV))
        code, out, _ = run(capsys, "delete", "--matrix", "-")
        assert code == 0 and out == N_CSV

    def test_trace_flag_prints_blocks(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("0,1\n2,3\n"))
        code, out, _ = run(capsys, "restore", "--matrix", "-", "--trace")
        blocks = out.split("\n\n")
        assert code == 0 and len(blocks) == 4
        assert blocks[0].startswith("(1,2)\n")

    def test_symbolic_restore(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(SYMBOLIC_CSV))
        code, out, _ = run(capsys, "restore", "--matrix", "-")
        assert code == 0
        assert out.startswith('"1 * t[1,1]^1 + 1 * t[1,2]^1 * t[2,1]^1 * t[2,2]^-1"')

    def test_symbolic_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(SYMBOLIC_4X4_CSV))
        code, _, err = run(capsys, "restore", "--matrix", "-")
        assert code == 2 and "--force" in err

    @pytest.mark.parametrize("command", ["restore", "delete"])
    def test_nondividing_pivot_is_a_usage_error(self, capsys, monkeypatch, command):
        monkeypatch.setattr(sys, "stdin", io.StringIO(NONDIVIDING_CSV))
        code, out, err = run(capsys, command, "--matrix", "-")
        assert (code, out) == (2, "")
        assert err == (
            f"{command}: (1 * t[1,2]^1 * t[2,1]^1) is not divisible by "
            "(1 * t[1,1]^1 + 1 * t[2,2]^1)\n"
        )


# nine 1,111-digit numerators and nine 1-digit denominators: 10,008
# digits, over the 10,000-digit cap; a rank-1 matrix, so it is tnn
OVER_DIGIT_CAP_CSV = (",".join(["9" * 1111] * 3) + "\n") * 3
DIGIT_CAP_ERR = "entries exceed the 10000-digit cap; pass --force to run anyway\n"


class TestDigitCap:
    """Numeric restore, delete and classify refuse a matrix whose
    numerators and denominators hold more than 10,000 digits in all,
    unless --force is given; tnn-check reads only minor signs and stays
    uncapped."""

    @pytest.mark.parametrize(
        "csv", [OVER_DIGIT_CAP_CSV, "9" * 10_000 + "\n"], ids=["3x3", "one-digit-over"]
    )
    @pytest.mark.parametrize("command", ["restore", "delete", "classify"])
    def test_refused_over_the_cap(self, capsys, monkeypatch, command, csv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv))
        assert run(capsys, command, "--matrix", "-") == (2, "", DIGIT_CAP_ERR)

    @pytest.mark.parametrize(
        "csv",
        ["9" * 9_999 + "\n", "1/" + "7" * 9_999 + "\n", "2" * 4_999 + "1/1" + "0" * 4_999 + "\n"],
        ids=["integer", "unit-fraction", "fraction"],
    )
    @pytest.mark.parametrize("command", ["restore", "delete", "classify"])
    def test_accepted_at_the_cap(self, capsys, monkeypatch, command, csv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv))
        code, out, err = run(capsys, command, "--matrix", "-")
        assert (code, err) == (0, "") and out

    def test_lowest_terms_are_counted(self, capsys, monkeypatch):
        # 10,002 digits as written, 10,000 once 2...20/10 is reduced to 2...2
        monkeypatch.setattr(sys, "stdin", io.StringIO("2" * 9_999 + "0/10\n"))
        assert run(capsys, "restore", "--matrix", "-") == (0, "2" * 9_999 + "\n", "")

    @pytest.mark.parametrize("command", ["restore", "delete"])
    def test_force_runs_anyway(self, capsys, monkeypatch, command):
        X = parse_matrix_csv(OVER_DIGIT_CAP_CSV)
        want = restore(X).final if command == "restore" else delete_derivations(X).initial
        monkeypatch.setattr(sys, "stdin", io.StringIO(OVER_DIGIT_CAP_CSV))
        code, out, err = run(capsys, command, "--matrix", "-", "--force")
        assert (code, out, err) == (0, format_matrix_csv(want), "")

    def test_force_runs_classify_anyway(self, capsys, monkeypatch):
        want = cells.classify(parse_matrix_csv(OVER_DIGIT_CAP_CSV))
        monkeypatch.setattr(sys, "stdin", io.StringIO(OVER_DIGIT_CAP_CSV))
        code, obj, err = run_json(capsys, "classify", "--matrix", "-", "--force")
        assert (code, err) == (0, "")
        assert obj["diagram"] == want.diagram.to_json_obj()

    def test_tnn_check_is_uncapped(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(OVER_DIGIT_CAP_CSV))
        code, obj, err = run_json(capsys, "tnn-check", "--matrix", "-")
        assert (code, obj, err) == (0, {"is_tnn": True, "witness": None, "value": None}, "")


class TestZeroDenominators:
    @pytest.mark.parametrize(
        "command, csv, literal",
        [
            ("tnn-check", "1/0,1\n", "1/0"),
            ("classify", "0/0\n", "0/0"),
            ("restore", '"1/0 * t[1,1]"\n', "1/0"),
        ],
    )
    def test_zero_denominator_is_a_usage_error(self, capsys, monkeypatch, command, csv, literal):
        monkeypatch.setattr(sys, "stdin", io.StringIO(csv))
        code, out, err = run(capsys, command, "--matrix", "-")
        assert (code, out) == (2, "")
        assert err == f"bad --matrix: zero denominator in {literal!r}\n"


# a quoted field past the csv module's 131,072-character limit
OVERSIZED_FIELD_CSV = '"' + "1" * 200_000 + '"\n'
# an unclosed JSON object nested deeper than the interpreter recurses
DEEP_JSON = '{"m": ' + "[" * 100_000


class TestMalformedInput:
    """Input that makes a parser raise its own error exits 2 with one
    message line, not a traceback."""

    @pytest.mark.parametrize("source", ["stdin", "file"])
    @pytest.mark.parametrize("command", ["tnn-check", "classify", "restore"])
    def test_oversized_csv_field(self, capsys, monkeypatch, tmp_path, command, source):
        spec = "-"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(OVERSIZED_FIELD_CSV))
        else:
            spec = str(tmp_path / "big.csv")
            Path(spec).write_text(OVERSIZED_FIELD_CSV)
        code, out, err = run(capsys, command, "--matrix", spec)
        assert (code, out) == (2, "")
        assert err == "bad --matrix: malformed CSV: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("source", ["inline", "file"])
    def test_deeply_nested_diagram_json(self, capsys, tmp_path, source):
        spec = DEEP_JSON
        if source == "file":
            spec = str(tmp_path / "deep.json")
            Path(spec).write_text(DEEP_JSON)
        code, out, err = run(capsys, "mc", "--diagram", spec)
        assert (code, out) == (2, "")
        assert err.startswith("bad --diagram: maximum recursion depth exceeded")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("case", ["csv", "json"])
    def test_a_process_exits_2_without_a_traceback(self, tmp_path, case):
        if case == "csv":
            argv, stdin = ["tnn-check", "--matrix", "-"], OVERSIZED_FIELD_CSV
        else:
            spec = tmp_path / "deep.json"
            spec.write_text(DEEP_JSON)
            argv, stdin = ["mc", "--diagram", str(spec)], ""
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tnncells", *argv],
            input=stdin,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestTnnCheck:
    def test_witness_report(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("0,1\n1,0\n"))
        code, obj, _ = run_json(capsys, "tnn-check", "--matrix", "-")
        assert code == 0
        assert obj == {"is_tnn": False, "witness": "[1,2|1,2]", "value": "-1"}

    def test_accepting_report(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(NBAR_CSV))
        code, obj, _ = run_json(capsys, "tnn-check", "--matrix", "-")
        assert code == 0
        assert obj == {"is_tnn": True, "witness": None, "value": None}

    def test_rejects_a_matrix_over_the_cell_limit(self, capsys, monkeypatch):
        # 72 cells; the all-minors table grows about 4x per size past 8x8
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,1,1,1,1,1,1,1\n" * 9))
        code, out, err = run(capsys, "tnn-check", "--matrix", "-")
        assert code == 2 and out == ""
        assert "(9,8) exceeds the 64-cell bitmask limit" in err


# 10^4000 has 4,001 digits, under the interpreter's 4,300-digit limit on
# int-to-decimal conversion; the values computed from it are past it:
# det = 1 - 10^8000 = -(8,000 nines), and restoring adds 10^8000 to the
# (1,1) entry
TEN_4000 = "1" + "0" * 4000
LONG_CSV = f"1,{TEN_4000}\n{TEN_4000},1\n"
LONG_WITNESS = {"witness": "[1,2|1,2]", "value": "-" + "9" * 8000}


class TestLongValues:
    """Exact values with more digits than the interpreter converts to text
    by default print in full, and the limit is restored afterwards."""

    @pytest.mark.parametrize(
        "command, code, out",
        [
            ("tnn-check", 0, json.dumps({"is_tnn": False, **LONG_WITNESS}, indent=2) + "\n"),
            (
                "classify",
                1,
                json.dumps({"error": "not totally nonnegative", **LONG_WITNESS}, indent=2) + "\n",
            ),
            ("restore", 0, f"1{'0' * 7999}1,{TEN_4000}\n{TEN_4000},1\n"),
        ],
        ids=["tnn-check", "classify", "restore"],
    )
    def test_printed_in_full(self, capsys, monkeypatch, command, code, out):
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(sys, "stdin", io.StringIO(LONG_CSV))
        assert run(capsys, command, "--matrix", "-") == (code, out, "")
        assert sys.get_int_max_str_digits() == limit


class _UnrunSuites:
    """Stands in for the verify module: every suite passes without running."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: SuiteReport(name, True, "")


class TestVerify:
    def test_counting_suite_passes(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "counting", "2", "2")
        assert code == 0 and obj["ok"] is True and obj["suite"] == "counting"

    def test_output_is_deterministic(self, capsys):
        argv = ["verify", "deletion", "2", "2", "--n", "5"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2) == (0, out1)

    def test_needs_both_sizes(self, capsys):
        code, _, err = run(capsys, "verify", "match", "2")
        assert code == 2 and "both sizes" in err

    def test_sized_suite_needs_sizes(self, capsys):
        code, _, err = run(capsys, "verify", "match")
        assert code == 2 and "explicit sizes" in err

    def test_all_without_sizes_names_all(self, capsys):
        code, out, err = run(capsys, "verify", "all")
        assert (code, out) == (2, "")
        assert err.strip() == "suite all needs explicit sizes: verify all M P"

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.verify_mod,
            "counting_suite",
            lambda sizes=None: SuiteReport("counting", False, "forced failure"),
        )
        code, obj, _ = run_json(capsys, "verify", "counting")
        assert code == 1 and obj["ok"] is False

    def test_poisson_cap_refusal(self, capsys):
        code, _, err = run(capsys, "verify", "poisson", "4", "3")
        assert code == 2 and "--force" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("poisson", "2", "3", "--n", "-1"),
            ("tnn-roundtrip", "2", "2", "--n", "-5"),
            ("deletion", "2", "2", "--n", "-5"),
            ("all", "2", "2", "--n", "-1"),
        ],
    )
    def test_negative_n_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "") and "--n must be nonnegative" in err

    @pytest.mark.parametrize("suite", ["bruhat-cell", "all"])
    def test_negative_samples_is_a_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "2", "2", "--samples", "-3")
        assert (code, out) == (2, "")
        assert err.strip() == "--samples must be nonnegative, got -3"

    @pytest.mark.parametrize("suite", ["bruhat-monotone", "all"])
    def test_negative_sample_is_a_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite, "2", "3", "--sample", "-9")
        assert (code, out) == (2, "")
        assert err.strip() == "--sample must be nonnegative, got -9"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("poisson", "2", "2", "--n", "10001"), "n"),
            (("deletion", "2", "2", "--n", "99999999999999999999"), "n"),
            (("bruhat-cell", "2", "2", "--samples", "501"), "samples"),
            (("bruhat-monotone", "2", "3", "--sample", "100001"), "sample"),
            (("all", "2", "2", "--samples", "1000"), "samples"),
        ],
    )
    def test_count_over_its_cap_is_a_usage_error(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.strip() == (
            f"--{flag} {argv[-1]} exceeds the cap of {cli._COUNT_CAPS[flag]}; "
            "pass --force to run anyway"
        )

    def test_force_lifts_the_count_cap(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COUNT_CAPS, "n", 3)
        assert run(capsys, "verify", "deletion", "2", "2", "--n", "3")[0] == 0
        assert run(capsys, "verify", "deletion", "2", "2", "--n", "4")[0] == 2
        code, obj, _ = run_json(capsys, "verify", "deletion", "2", "2", "--n", "4", "--force")
        assert code == 0 and obj["ok"]

    @pytest.mark.parametrize(
        "argv, poisson",
        [
            (("3", "3"), True),
            (("3", "4"), False),
            (("3", "4", "--cap", "12"), True),
        ],
    )
    def test_all_runs_every_suite_with_poisson_last(self, capsys, monkeypatch, argv, poisson):
        ran = []
        for name in ("counting", "match", "bruhat_monotone", "tnn_roundtrip",
                     "deletion", "poisson", "bruhat_cell"):
            fake = lambda *a, _name=name, **k: ran.append(_name) or SuiteReport(_name, True, "")
            monkeypatch.setattr(cli.verify_mod, f"{name}_suite", fake)
        code, obj, _ = run_json(capsys, "verify", "all", *argv)
        expected = ["counting", "match", "bruhat_monotone", "tnn_roundtrip", "deletion",
                    "bruhat_cell"] + ["poisson"] * poisson
        assert code == 0 and ran == expected == [r["suite"] for r in obj]

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (("match", "3", "3"), "0"),
            (("match", "2", "2"), "-3"),
            (("poisson", "2", "2"), "0"),
            (("all", "2", "2"), "-1"),
        ],
    )
    def test_nonpositive_cap_is_a_usage_error(self, capsys, argv, cap):
        code, out, err = run(capsys, "verify", *argv, "--cap", cap)
        assert (code, out) == (2, "")
        assert err.strip() == f"--cap must be positive, got {cap}"

    def test_small_positive_cap_is_honoured(self, capsys):
        code, out, err = run(capsys, "verify", "match", "2", "2", "--cap", "1")
        assert (code, out) == (2, "") and "exceeds the 1-cell cap;" in err

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (("counting", "0", "3"), "(0,3)"),
            (("counting", "2", "-1"), "(2,-1)"),
            (("all", "0", "2"), "(0,2)"),
        ],
    )
    def test_nonpositive_counting_sizes_are_a_usage_error(self, capsys, argv, sizes):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.strip() == f"grid sizes must be positive, got {sizes}"

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (("bruhat-monotone", "4", "4"), "12-cell cap"),
            (("bruhat-monotone", "12", "1"), "8-letter permutation cap on M+P"),
            (("bruhat-cell", "4", "4"), "12-cell cap"),
            (("bruhat-cell", "4", "5"), "12-cell cap"),
            (("counting", "4", "5"), "8-letter permutation cap on M+P"),
            (("counting", "1", "12"), "8-letter permutation cap on M+P"),
        ],
    )
    def test_suite_caps_refuse(self, capsys, argv, cap):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.strip() == f"({argv[1]},{argv[2]}) exceeds the {cap}; pass --force to run anyway"

    def test_force_lifts_the_permutation_cap(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "counting", "1", "8", "--force")
        assert code == 0 and obj["summary"] == "(1,8): 256 - all oracles agree"

    def test_cap_lifts_a_sweep_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_mod", _UnrunSuites())
        code, obj, _ = run_json(capsys, "verify", "bruhat-cell", "4", "4", "--cap", "16")
        assert code == 0 and obj["suite"] == "bruhat_cell_suite"

    @pytest.mark.parametrize("suite", list(cli._SUITES))
    def test_every_suite_refuses_grids_under_the_bitmask_limit(self, capsys, monkeypatch, suite):
        # an uncapped suite would return the stand-in's report, not hang
        monkeypatch.setattr(cli, "verify_mod", _UnrunSuites())
        for m, p in ((8, 8), (1, 64), (64, 1)):
            code, out, err = run(capsys, "verify", suite, str(m), str(p))
            assert (code, out) == (2, "") and "pass --force" in err

    def test_zero_samples_runs(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "bruhat-cell", "2", "2", "--samples", "0")
        assert code == 0 and obj["ok"] is True

    def test_planted_bruhat_cell_fault_exits_one(self, capsys, monkeypatch):
        # a minus pool out of ascending row order gives wrong masks
        monkeypatch.setattr(verify, "_undominated", descending_row_pool)
        code, obj, err = run_json(capsys, "verify", "bruhat-cell", "3", "3")
        assert (code, obj["ok"], err) == (1, False, "")
        assert obj["summary"] == (
            "(3,3): 34 partial permutations x 19 minors; 100 formulation mismatches, "
            "1940 sampling contradictions (20 sweeps per sign, seed 0)"
        )
        assert obj["details"]["mismatches"][0] == {
            "pp": [[1, 1], [2, 2]],
            "sign": "minus",
            "minor": "[1,2|1,2]",
        }

    def test_zero_n_runs(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "deletion", "2", "2", "--n", "0")
        assert code == 0 and obj["ok"] is True


# -- golden bytes ---------------------------------------------------------------

EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, stdin, exit code, SHA-256 of stdout, SHA-256 of stderr).  GOLDEN was
# recorded before the CLI moved to one suite table and one usage-error exit,
# and that move kept every byte of it.  CHANGED lists the only invocations
# whose output it altered on purpose, each with its earlier behaviour.
# `match 3 4 --format table` and `verify match 3 4`, the bijection
# benchmark's input, were recorded before families took their JSON from a
# shared table per grid.  `verify all 3 4` is left out: it takes seconds.
GOLDEN = [
    ("diagrams 2 2 --count", "", 0,
     "3e56dad8efc56f64f2929654493ebef613c826009fbc82ad9db9246a009b6954", EMPTY),
    ("diagrams 2 2", "", 0,
     "01a38d8cd2d2e160c1ec8986e063129e4a518697f95cd34bc897e57567cc04fc", EMPTY),
    ("diagrams 1 2 --format table", "", 0,
     "b31d230c8e7715ae4ee5f5a82d7f3489ec865f31dfd6b6aceed6a675386fbbe9", EMPTY),
    ("diagrams 9 9", "", 2,
     EMPTY, "db8c45a1f7682a90db83f11b23f8c0e3cbbc4eeb2861d1da8927e3a77467e746"),
    ("diagrams 0 2", "", 2,
     EMPTY, "0313774eae51e66b9459de83d35ed36c41969ef6d520282119e55ab519b5190e"),
    ("perms 2 2 --count", "", 0,
     "3e56dad8efc56f64f2929654493ebef613c826009fbc82ad9db9246a009b6954", EMPTY),
    ("perms 2 2 --format table", "", 0,
     "f249a11c061789b21fb97b0aa7cc5ee42b0bdc946b3c76d8cbf4ad443ac3ffe4", EMPTY),
    ("perms 2 -1", "", 2,
     EMPTY, "a2a50ee4e57a70f79d50f4166ff622adcacbe2f8f130c55100ec99fcae981a00"),
    ("mw 3 4 --w 3,1,4,2,7,6,5", "", 0,
     "03da20e768d164ed8dd75f15122ce5fca7305a0985f4eabd81404c1e553835f8", EMPTY),
    ("mw 2 2 --w 1,2,3", "", 2,
     EMPTY, "b0fa17a5231d9318524b02fc3cbaa3cdb57215b251ac6b4df5d9ddf22934f651"),
    ("mw 2 2 --w x", "", 2,
     EMPTY, "3c9d42b72e440f34190a5bb21f087fb5db4f9bf38ebc5137ea534640bfcdd105"),
    ('mc --diagram \'{"m": 2, "p": 2, "black": [[1, 2], [2, 1]]}\'', "", 0,
     "29e40b45cec7d97d722ac13ad56df07dc0687ec8263e293b4c245d9d91a914c6", EMPTY),
    ('mc --diagram \'{"m": 2, "p": 2, "black": [[1, 2], [2, 1]]}\' --format table', "", 0,
     "4ca04f077af802b95441f4fd6dc2b7660f71732e1e5305a109ddb3f6aee52dc8", EMPTY),
    ("mc --diagram -", '{"m": 2, "p": 3, "black": [[1, 1]]}', 0,
     "8350886bbcdeae0ab91357240e413d871bc231c83c56e54661f30f3c20715371", EMPTY),
    ("match 2 2", "", 0,
     "5526fe8806a8b140f8af9719c63bd89dd78f793cf6b9420a7d41d8706d694e92", EMPTY),
    ("match 2 3 --format table", "", 0,
     "3d369caa65ff6ad550261d98695af14c62aededf7f021bcd7763e249823addc2", EMPTY),
    ("match 3 4 --format table", "", 0,
     "c132d66cc3f3cd13f45998e54de1e1273ef6d9fee156b785e7ec3f108b0a2c7e", EMPTY),
    ("classify --matrix -", NBAR_CSV, 0,
     "79d152424d0258f8af07f1bf80ddf94dc0305a0bd07c9fb87a8e8d5c51ae86f6", EMPTY),
    ("classify --matrix - --find-perm --format table", NBAR_CSV, 0,
     "2e81b1f37717e7e649eb9e160b7128af571fd226b631e97abcbd9ff8d7f7a096", EMPTY),
    ("classify --matrix -", NOT_TNN_CSV, 1,
     "0a9ce1dc363dbfab8b7685c33ffeb6f9ed61c1c04b0ef28cb3cc6b70791492b9", EMPTY),
    ("classify --matrix -", SYMBOLIC_CSV, 2,
     EMPTY, "0a84b2f9d843d2a1751c170073942b7683aad670f67650e16f8dc5558ef20b83"),
    ("classify --matrix /nonexistent.csv", "", 2,
     EMPTY, "e8e4922ee5bcaa141e6a5ac50f328d9075318eb08a7f8ddb27200d063997b88c"),
    ("restore --matrix -", N_CSV, 0,
     "fafef84193f5dbea88dcfcac69939f6ba4e6b7b5c5168b37cc5d8ca25cc9c94d", EMPTY),
    ("restore --matrix - --trace", "0,1\n2,3\n", 0,
     "50a422e96c75690dce4ba52faab89a88ded56ffc7768826d3ff1f75c701c0d88", EMPTY),
    ("restore --matrix -", SYMBOLIC_CSV, 0,
     "b0e06e06542f32e310679c9710ff9e10d640aba2ba244cadac61ea00f0312e7b", EMPTY),
    ("restore --matrix -", "1,x\n", 2,
     EMPTY, "04cc3de0f728922b00b6485995dca4d55ff25c70df914b03da6f22ca476135f0"),
    ("delete --matrix -", NBAR_CSV, 0,
     "16f62a87cbbe5c9a029ce653579cfd451d63fc7fe2b25a3ad12f9429e2d03d57", EMPTY),
    ("delete --matrix - --trace", SYMBOLIC_CSV, 0,
     "18e1b8b51122fd29250908c06297d40916a79e2ffaa47917f6d4efa4f4b4972e", EMPTY),
    ("tnn-check --matrix -", NOT_TNN_CSV, 0,
     "9c2d25cdb12e024138302cbc2b8034fe01619545c94eab56fb3569abe86bf581", EMPTY),
    ("tnn-check --matrix - --format table", NBAR_CSV, 0,
     "1c0826a167ff0120f6cd347536d4daf0b52859ad02897e6ad931402d7a0c22d7", EMPTY),
    ("tnn-check --matrix -", SYMBOLIC_CSV, 2,
     EMPTY, "9723155608c93c5efad4f8ae92081477856f6e5679405b9e799553bb7a0a8b85"),
    ("verify counting", "", 0,
     "a7ef4fb25f892bdd85ac0dcaad8ee402269393507e4b4b46d5f35a037b94cdfd", EMPTY),
    ("verify counting 2 3 --format table", "", 0,
     "9e901a5cfd1ad9c7bfd45bcdd2b08949d630b2d9dbefbbc29b5b0c23b4a96b69", EMPTY),
    ("verify counting 0 3", "", 2,
     EMPTY, "c2cd5bc5b9763933a389bda9558652d26c073f345cf9637e74226020370863fe"),
    ("verify match 2 2", "", 0,
     "b5928d1e9b6a3268643e64258aec5b9fd3f354db89eceefb102de39821d560aa", EMPTY),
    ("verify match 3 3", "", 0,
     "3685f877e494c6e1e1f28675e46f6d71f8b431c1526c4a189fcada3df7409a25", EMPTY),
    ("verify match 3 4", "", 0,
     "74a41b9d755aa40cfb97eaa95a4c58a054e63a0740982b804c082d5fd818a424", EMPTY),
    ("verify bruhat-monotone 2 3", "", 0,
     "09ad00368a678f1b1da83a616292f9c2472243597812578971c470340ac2ed09", EMPTY),
    ("verify bruhat-monotone 3 3 --seed 4", "", 0,
     "4a25f5dfc571accde585122d9fe69757febe828efe404f9b50e1a3b2e3b9c3d8", EMPTY),
    ("verify bruhat-monotone 2 2 --sample 7", "", 0,
     "fb219ac0914afc3744323cf74c7f875b3ef89d3b854e5541b780464ff33d2dca", EMPTY),
    ("verify tnn-roundtrip 2 3 --n 4", "", 0,
     "b0481b1996cbb61c3c430e241dda72748a5e22abe9e9ffd6d527acb8db04bd6d", EMPTY),
    ("verify tnn-roundtrip 3 3 --n 2 --seed 5", "", 0,
     "76660e2c8ba023e956c9b0cc38c886948bcdd3a2dc4e1780e0b92f7ec595333c", EMPTY),
    ("verify deletion 2 2 --n 4", "", 0,
     "89843f8ff99cb4f3853d05b735fb585830cdcdf34f4123ccc6134da86e3a8dcc", EMPTY),
    ("verify deletion 3 3 --n 2 --format table", "", 0,
     "6e81e5caf50819e89e3f260a030164aebd8df33c16f6a30b3ad35e4fbec7060b", EMPTY),
    ("verify poisson 2 2 --n 4", "", 0,
     "d6c7e0d356dc0da072ac941c07c08228fa79c6ed0b5e979013b69d5be6d99485", EMPTY),
    ("verify poisson 2 3 --n 2", "", 0,
     "9fc9ae9f9baa72d3cfb9f73849625ac901ba1e19267152137b77202973da47b7", EMPTY),
    ("verify poisson 3 3 --n 1", "", 0,
     "90502028a4e60125150ec2ff9dac0494e095fc66a4ad96c3a86c15b92924fe53", EMPTY),
    ("verify bruhat-cell 2 2 --samples 2", "", 0,
     "fb8338d54b7cf632033dbee1d961acb8e67d0f66efb82d8e6568edd23e37c99c", EMPTY),
    ("verify bruhat-cell 2 3 --samples 1 --seed 3", "", 0,
     "faee2ec57c31030cc2712be68e818c731520918b9873cb095bb373b2b4faf5a1", EMPTY),
    ("verify all 2 2 --n 2 --samples 1", "", 0,
     "f19b1ba35cb1735453b08bbc4373d2e9fbffada2a7c91dfe586d9be3a40d2c61", EMPTY),
    ("verify all 2 3 --n 2 --samples 1 --format table", "", 0,
     "f15b24ccd04d2b7ba112e1f3626c61dd1275c200efd8452a9dc64f985b3e0fdd", EMPTY),
    ("verify all 3 3 --n 1 --samples 0 --sample 5", "", 0,
     "b15f78229c9d7b952e6ac404a89ebaeef5b2cd1118db4534f4552b22b0e3d1e9", EMPTY),
    ("verify match 2", "", 2,
     EMPTY, "22f09a4f3467ef6dd12f4d9db6f1588e40cff15a7e440fc99d037ee0876248c7"),
    ("verify match", "", 2,
     EMPTY, "bdadb2e5faf8a451a7d411ce09066712eae25a8759e78116cfb73370f38c0ad9"),
    ("verify poisson 2 3 --n -1", "", 2,
     EMPTY, "1fcde791779424ff2e4ed3ea5156c36d3ac8b77c8a6908232540c8aaebff1ace"),
    ("verify bruhat-cell 2 2 --samples -3", "", 2,
     EMPTY, "36243b9e6987fb417b42949a410c0589cb5db8fe1fea5284b5207b9ee8d93184"),
    ("verify match 3 3 --cap 0", "", 2,
     EMPTY, "0c6ebfb8c644f3c5cd857093a0cf57459d7979085a44bbbda51fd679e21325ea"),
    ("verify all 0 2", "", 2,
     EMPTY, "0313774eae51e66b9459de83d35ed36c41969ef6d520282119e55ab519b5190e"),
]

CHANGED = [
    # was: an InexactDivisionError traceback, exit 1
    ("restore --matrix -", NONDIVIDING_CSV, 2,
     EMPTY, "74d9df0bd0ea84bf2df8f6f4676fc3bec45353c11591c899c5d3eab6c48bc6f9"),
    # was: an InexactDivisionError traceback, exit 1
    ("delete --matrix -", NONDIVIDING_CSV, 2,
     EMPTY, "6f0d20500d68095491f148edafc32673b40a8e1f149b4316bb1e026703d14a60"),
    # was: "suite match needs explicit sizes: verify match M P"
    ("verify all", "", 2,
     EMPTY, "22fe861a336cab556ebdc471eda04408edc687dbb63094ec7533e424f2b61e4e"),
    # was: exit 0, running the default sample plan
    ("verify bruhat-monotone 2 3 --sample -9", "", 2,
     EMPTY, "a49cd731ded1d895e6601e30ec9cb814823d76e1a148be7ea69bb0b582386441"),
    # was: exit 0, running the default sample plan
    ("verify all 2 2 --sample -9 --n 1 --samples 0", "", 2,
     EMPTY, "a49cd731ded1d895e6601e30ec9cb814823d76e1a148be7ea69bb0b582386441"),
    # was: a TypeError traceback, exit 1
    ('mc --diagram \'{"m": 2.5, "p": 2, "black": []}\'', "", 2,
     EMPTY, "4fd0cbb45132b8e3c37c0d54cf5a9f456a4d1f97bbb56dde540351d83c82f579"),
    # was: a TypeError traceback, exit 1
    ('mc --diagram \'{"m": "2", "p": 2, "black": []}\'', "", 2,
     EMPTY, "783cd043e1e1703e5246441c94395ad07ab5973982dea753f45657496972c4e9"),
    # was: a TypeError traceback, exit 1
    ('mc --diagram \'{"m": 2, "p": 2, "black": 5}\'', "", 2,
     EMPTY, "c238a8bc96824f814fcd93f36006891d05cf7fe11b49ae696e900985871f0da3"),
    # was: a TypeError traceback, exit 1
    ('mc --diagram \'{"m": 2, "p": 2, "black": null}\'', "", 2,
     EMPTY, "d66575f1db2044e9c743036d218d9a0e29cdd3b64bc07032d553940aed84f829"),
    # was: a TypeError traceback, exit 1
    ('mc --diagram \'{"m": 2, "p": 2, "black": [["a", 1]]}\'', "", 2,
     EMPTY, "aad72ec0b582c19398a10079441d4c726eed701e5d2f0829654d948292dbe971"),
    # was: exit 0, read as the 1 x 2 grid
    ('mc --diagram \'{"m": true, "p": 2, "black": []}\'', "", 2,
     EMPTY, "cb499a46d4b2cb75e69e5eb20e8b7df5b2847d4c835300c0b26981290e27df41"),
    # was: "bad --diagram: 'p'", the bare repr of a KeyError
    ('mc --diagram \'{"m": 2}\'', "", 2,
     EMPTY, "c36879c42aaddcad0e000232cbb70f6012128131a468fc599edaf8bfa0eb3eb9"),
    # was: "... exceeds the 12-cell symbolic cap; ...", whatever the cap guards
    ('mc --diagram \'{"m": 4, "p": 4, "black": []}\'', "", 2,
     EMPTY, "8e8171cb407719ec7452face41bb1c3e1370e8fa2192bb1d18a14ce53977fbdf"),
    # was: "... exceeds the 12-cell symbolic cap; ...", whatever the cap guards
    ("match 4 4", "", 2,
     EMPTY, "8e8171cb407719ec7452face41bb1c3e1370e8fa2192bb1d18a14ce53977fbdf"),
    # was: "... exceeds the 12-cell symbolic cap; ...", whatever the cap guards
    ("restore --matrix -", SYMBOLIC_4X4_CSV, 2,
     EMPTY, "8e8171cb407719ec7452face41bb1c3e1370e8fa2192bb1d18a14ce53977fbdf"),
    # was: "... exceeds the 1-cell symbolic cap; ...", whatever the cap guards
    ("verify match 2 2 --cap 1", "", 2,
     EMPTY, "90a0c9d369d84af1bc1230b4ddb1625a0b0c2702b9554343638bcb3248f6ef2f"),
    # was: "... exceeds the 9-cell symbolic cap; ...", whatever the cap guards
    ("verify poisson 4 3", "", 2,
     EMPTY, "1a50e50cfddec6e574c7f18e1878ea03c57d87c41d23cebd5035762c456ff463"),
    # was: "... exceeds the 12-cell symbolic cap; ...", whatever the cap guards
    ("verify all 4 4", "", 2,
     EMPTY, "8e8171cb407719ec7452face41bb1c3e1370e8fa2192bb1d18a14ce53977fbdf"),
    # was: exit 0, reading "-" as -1 and "* t[2,1]" as t[2,1]
    ("restore --matrix -", MALFORMED_CSV, 2,
     EMPTY, "d47b8f34a5e25d7ae8440592aaf6371400da00991a601423e36e840ea03b63c2"),
    # was: still running after 20 s, building 3 * n random polynomials first
    ("verify poisson 3 3 --n 99999999999999999999", "", 2,
     EMPTY, "fc908ede1a6e5ba4eea77d58e712a4b8adf72932f3d4d8d5ada43e9ded43f46c"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "argv, stdin, code, out_sha, err_sha",
        GOLDEN + CHANGED,
        ids=[case[0] for case in GOLDEN + CHANGED],
    )
    def test_invocation_bytes(self, capsys, monkeypatch, argv, stdin, code, out_sha, err_sha):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        got_code, out, err = run(capsys, *shlex.split(argv))
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
        assert (got_code, digest(out), digest(err)) == (code, out_sha, err_sha), (out, err)

    def test_a_closed_stdout_exits_0(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["diagrams", "2", "2", "--count"]) == 0

    def test_suite_choices_keep_their_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "bogus"])
        assert exc.value.code == 2
        order = "counting,match,bruhat-monotone,tnn-roundtrip,deletion,poisson,bruhat-cell,all"
        assert "{" + order + "}" in capsys.readouterr().err


class TestConsoleScript:
    def test_python_dash_m_runs_the_cli(self, capsys):
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        argv = ["verify", "counting", "1", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "tnncells", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        code, out, _ = run(capsys, *argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out

    def test_installed_entry_point(self):
        exe = shutil.which("tnncells")
        assert exe, "console script not installed"
        out = subprocess.run(
            [exe, "diagrams", "1", "1", "--count"], capture_output=True, text=True
        )
        assert out.returncode == 0
        assert json.loads(out.stdout) == {"m": 1, "p": 1, "count": 2}
