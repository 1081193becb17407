import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


# finite float64 entries, with signed zeros, subnormals and the largest
# magnitudes drawn often rather than left to chance
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_MATRICES = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=_ENTRIES)
)


@given(a=_MATRICES)
def test_writers_keep_the_per_entry_bytes(a):
    # the per-entry forms that the row-at-a-time writers replace
    csv = "\n".join(",".join("{:.17g}".format(x) for x in row) for row in a) + "\n"
    entries = [float(x) for x in a.ravel()]
    assert matrix_to_csv(a) == csv
    assert matrix_to_json(a) == json.dumps({"n": len(a), "entries": entries}) + "\n"
    # bit for bit, so that -0.0 read back as 0.0 would fail
    assert matrix_from_csv(csv).tobytes() == a.tobytes()
    assert matrix_from_json(matrix_to_json(a)).tobytes() == a.tobytes()


class TestCSV:
    def test_round_trip_is_exact(self):
        a = awkward_matrix()
        assert np.array_equal(matrix_from_csv(matrix_to_csv(a)), a)

    def test_dimension_inferred(self):
        out = matrix_from_csv("1,2\n3,4\n")
        assert out.shape == (2, 2)

    def test_blank_lines_are_skipped(self):
        out = matrix_from_csv("1,2\n\n  \n3,4\n\n")
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize(
        "text",
        [
            "", "1,2\n3\n", "1,x\n3,4\n", "1,2,3\n4,5,6\n", "nan,0\n0,1\n", "1_0,0\n0,1\n",
            "\u0661,0\n0,1\n", "1,0\n0,\uff11\n",
        ],
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
            '{"n": 2, "entries": [true, false, false, true]}',
            '{"n": 2, "entries": ["1", "0", "0", "1"]}',
            pytest.param('{"n": 1, "entries": [1' + "0" * 400 + "]}", id="beyond-float64"),
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
