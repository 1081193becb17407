import numpy as np
import pytest

from factordiff.matrixio import (
    load_matrix,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    save_matrix,
)


def awkward_matrix():
    return np.array(
        [
            [1.0 / 3.0, -2.718281828459045e-15],
            [9.87654321e12, 5e-324],  # subnormal included
        ]
    )


class TestCSV:
    def test_round_trip_is_exact(self):
        a = awkward_matrix()
        assert np.array_equal(matrix_from_csv(matrix_to_csv(a)), a)

    def test_dimension_inferred(self):
        out = matrix_from_csv("1,2\n3,4\n")
        assert out.shape == (2, 2)

    @pytest.mark.parametrize(
        "text",
        ["", "1,2\n3\n", "1,x\n3,4\n", "1,2,3\n4,5,6\n", "nan,0\n0,1\n"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            matrix_from_csv(text)


class TestJSON:
    def test_round_trip_is_exact(self):
        a = awkward_matrix()
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1,2]",
            '{"n": 2}',
            '{"n": 2, "entries": [1,2,3]}',
            '{"n": 0, "entries": []}',
            '{"n": 2, "entries": [1,2,3,"x"]}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            matrix_from_json(text)


class TestFiles:
    def test_save_load_csv(self, tmp_path):
        a = awkward_matrix()
        p = tmp_path / "m.csv"
        save_matrix(p, a)
        assert np.array_equal(load_matrix(p), a)

    def test_save_load_json_by_extension(self, tmp_path):
        a = awkward_matrix()
        p = tmp_path / "m.json"
        save_matrix(p, a)
        assert np.array_equal(load_matrix(p), a)

    def test_explicit_format_overrides_extension(self, tmp_path):
        a = np.eye(2)
        p = tmp_path / "m.dat"
        save_matrix(p, a, fmt="json")
        assert np.array_equal(load_matrix(p, fmt="json"), a)

    @pytest.mark.parametrize("fmt", ["xml", "CSV", ""])
    def test_unknown_format_rejected(self, tmp_path, fmt):
        # an unknown fmt must not fall through to CSV, nor write a file
        p = tmp_path / "m.csv"
        save_matrix(p, np.eye(2))
        with pytest.raises(ValueError, match="unknown matrix format"):
            save_matrix(tmp_path / "out.csv", np.eye(2), fmt)
        assert not (tmp_path / "out.csv").exists()
        with pytest.raises(ValueError, match="unknown matrix format"):
            load_matrix(p, fmt)
