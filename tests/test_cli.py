"""End-to-end command coverage through cli.main, plus one real subprocess."""

import io
import json
import shutil
import subprocess
import sys

import pytest

from tnncells import RestrictedPermutation, cli, family_of_perm
from tnncells.verify import SuiteReport

NBAR_CSV = "11,7,4,1\n7,5,3,1\n4,3,2,1\n1,1,1,1\n"
N_CSV = "1,0,1,1\n0,0,1,1\n1,1,1,1\n1,1,1,1\n"


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

    def test_match_emits_pairs(self, capsys):
        code, obj, _ = run_json(capsys, "match", "2", "2")
        assert code == 0 and len(obj) == 14
        assert all("perm" in d and "diagram" in d for d in obj)

    def test_match_cap_refusal(self, capsys):
        code, out, err = run(capsys, "match", "4", "4")
        assert code == 2 and "--force" in err and out == ""


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
        text = '"t[1,1]","t[1,2]"\n"t[2,1]","t[2,2]"\n'
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "restore", "--matrix", "-")
        assert code == 0
        assert out.startswith('"1 * t[1,1]^1 + 1 * t[1,2]^1 * t[2,1]^1 * t[2,2]^-1"')

    def test_symbolic_cap(self, capsys, monkeypatch):
        rows = []
        for i in range(1, 5):
            rows.append(",".join(f'"t[{i},{a}]"' for a in range(1, 5)))
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(rows) + "\n"))
        code, _, err = run(capsys, "restore", "--matrix", "-")
        assert code == 2 and "--force" in err


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
        assert (code, out) == (2, "") and "exceeds the 1-cell symbolic cap" in err

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

    def test_zero_samples_runs(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "bruhat-cell", "2", "2", "--samples", "0")
        assert code == 0 and obj["ok"] is True

    def test_zero_n_runs(self, capsys):
        code, obj, _ = run_json(capsys, "verify", "deletion", "2", "2", "--n", "0")
        assert code == 0 and obj["ok"] is True


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("tnncells")
        assert exe, "console script not installed"
        out = subprocess.run(
            [exe, "diagrams", "1", "1", "--count"], capture_output=True, text=True
        )
        assert out.returncode == 0
        assert json.loads(out.stdout) == {"m": 1, "p": 1, "count": 2}
