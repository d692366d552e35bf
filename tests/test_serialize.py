"""Text round trips for rationals, matrices, and trace dumps."""

from fractions import Fraction

import pytest
from conftest import rand_matrix

from tnncells import (
    CauchonDiagram,
    format_matrix_csv,
    format_trace,
    parse_matrix_csv,
    parse_rational,
    restore,
    symbolic_cauchon_matrix,
)


class TestRational:
    @pytest.mark.parametrize(
        "text,value",
        [("3", Fraction(3)), ("-7/2", Fraction(-7, 2)), (" 0 ", Fraction(0))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["", "1.5", "2/", "/3", "1/2/3", "x", "1e3", "1/0", "0/0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format(self):
        assert str(Fraction(-7, 2)) == "-7/2"
        assert str(Fraction(4, 2)) == "2"


class TestMatrixCsv:
    def test_numeric_golden(self):
        text = "11,7\n1,1/3\n"
        M = parse_matrix_csv(text)
        assert M == ((11, 7), (1, Fraction(1, 3)))
        assert format_matrix_csv(M) == text

    def test_numeric_roundtrip_random(self, rng):
        for _ in range(10):
            M = tuple(tuple(r) for r in rand_matrix(rng, 3, 4))
            assert parse_matrix_csv(format_matrix_csv(M)) == M

    def test_symbolic_roundtrip_quotes_commas(self):
        _, M = symbolic_cauchon_matrix(CauchonDiagram.from_black(2, 2, ()))
        Y = restore(M).final
        text = format_matrix_csv(Y)
        assert '"' in text  # symbolic cells contain commas
        assert parse_matrix_csv(text) == Y

    def test_variable_mention_switches_to_symbolic(self):
        M = parse_matrix_csv('"t[1,1]",2\n3,4\n')
        assert M[1][0] == M[0][0].registry.const(3)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_matrix_csv("")
        with pytest.raises(ValueError):
            parse_matrix_csv("1,2\n3\n")
        with pytest.raises(ValueError):
            parse_matrix_csv("1,goop\n")


class TestTraceDump:
    def test_golden(self):
        text = format_trace(restore(((0, 1), (2, 3))))
        blocks = text.split("\n\n")
        assert blocks[0] == "(1,2)\n0,1\n2,3"
        assert blocks[-1] == "(2,3)\n2/3,1\n2,3\n"
        assert len(blocks) == 4
