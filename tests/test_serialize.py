"""JSON wire format round trips and pretty printing."""

from fractions import Fraction

import pytest

from jordanable import Matrix, aleph, canonical_form, centre
from jordanable.liealg import AlmostAbelianAlgebra
from jordanable import serialize as ser
from .conftest import irr, mat


class TestFractions:
    def test_integers_stay_plain(self):
        assert ser.frac_to_json(Fraction(3)) == 3
        assert ser.frac_from_json(3) == 3

    def test_proper_fractions_are_strings(self):
        assert ser.frac_to_json(Fraction(1, 2)) == "1/2"
        assert ser.frac_from_json("-3/4") == Fraction(-3, 4)

    def test_rejects_bool_and_float(self):
        with pytest.raises(ValueError):
            ser.frac_from_json(True)
        with pytest.raises(ValueError):
            ser.frac_from_json(1.5)

    @pytest.mark.parametrize(
        "text", ["1e100000", "1.5", "1_000", "\u0661\u0662", "1 / 2", "", "/2", "1/"]
    )
    def test_rejects_all_but_sign_digits_slash_digits(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            ser.frac_from_json(text)

    def test_surrounding_spaces_and_signs_accepted(self):
        assert ser.frac_from_json(" +6/4 ") == Fraction(3, 2)
        assert ser.frac_from_json("-7") == -7

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError):
            ser.frac_from_json("1/0")

    def test_int_from_json_accepts_only_integers(self):
        assert ser.int_from_json(3) == 3
        assert ser.int_from_json(-2) == -2
        for bad in (True, False, 1.7, 1.0, "1", None, [1]):
            with pytest.raises(ValueError):
                ser.int_from_json(bad)


class TestMatrices:
    def test_roundtrip(self):
        m = mat([[1, Fraction(1, 2)], [0, -3]])
        assert ser.matrix_from_json(ser.matrix_to_json(m)) == m

    def test_json_shape(self):
        assert ser.matrix_to_json(Matrix.identity(2)) == [[1, 0], [0, 1]]

    def test_bad_input(self):
        with pytest.raises(ValueError):
            ser.matrix_from_json([])
        with pytest.raises(ValueError):
            ser.matrix_from_json([[1, 2], [3]])


class TestPolynomials:
    def test_coeff_array(self):
        assert ser.poly_from_json([-2, 0, 0, 1]) == irr("X^3 - 2").poly
        assert ser.poly_to_json(irr("X^3 - 2").poly) == [-2, 0, 0, 1]

    def test_human_string(self):
        assert ser.poly_from_json("X^3 - 2") == irr("X^3 - 2").poly

    def test_irreducible_certification(self):
        from jordanable import Certification

        assert ser.irreducible_from_json("X^3 - 2").certification is Certification.PROVEN
        assert (
            ser.irreducible_from_json([1, 0, 0, 0, 1]).certification
            is Certification.HINTED
        )


class TestAleph:
    def test_roundtrip(self, cubic_aleph):
        data = ser.aleph_to_json(cubic_aleph)
        assert data == [
            {"p": [-2, 0, 0, 1], "n": 2, "mult": 1},
            {"p": [0, 1], "n": 1, "mult": 1},
        ]
        assert ser.aleph_from_json(data) == cubic_aleph

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            ser.aleph_from_json({"p": "X"})
        with pytest.raises(ValueError):
            ser.aleph_from_json([{"p": "X"}])

    @pytest.mark.parametrize(
        "key, value", [("n", 1.7), ("n", True), ("mult", 1.0), ("mult", True), ("n", "2")]
    )
    def test_non_integer_counts_rejected(self, key, value):
        entry = {"p": [1, 1], "n": 1, "mult": 1}
        entry[key] = value
        with pytest.raises(ValueError):
            ser.aleph_from_json([entry])


class TestSpacesAndVectors:
    def test_solution_space(self):
        from jordanable.equations import SolutionSpace

        s = SolutionSpace((1, 1), (Matrix.identity(1),), offset=mat([[2]]))
        assert ser.solution_space_to_json(s) == {
            "dim": 1,
            "basis": [[[1]]],
            "offset": [[2]],
        }

    def test_labeled_vectors(self, cubic_aleph):
        l = AlmostAbelianAlgebra(cubic_aleph)
        data = ser.labeled_vectors_to_json(centre(l))
        assert len(data) == 1
        assert data[0]["vector"] == [0, 0, 0, 0, 0, 0, 0, 1]
        assert "label" in data[0]


class TestPrettyMatrix:
    def test_block_rules(self, bianchi_aleph):
        j = canonical_form(bianchi_aleph).matrix
        out = ser.pretty_matrix(j, [1])
        lines = out.splitlines()
        assert lines[0] == "[ 1 |  0 ]"
        assert set(lines[1]) == {"-"}
        assert lines[2] == "[ 0 | -1 ]"

    def test_no_cuts(self):
        out = ser.pretty_matrix(Matrix.identity(2))
        assert out == "[ 1 0 ]\n[ 0 1 ]"
