import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shmtwin.seriesio import write_csv_columns


def test_csv_columns_exact_round_trip(tmp_path):
    path = tmp_path / "cols.csv"
    cols = {
        "freq_hz": np.array([0.1, 2.807, 47.3]),
        "mag": np.array([1e-12, 0.25, 3.0000000000000004]),
    }
    write_csv_columns(path, cols)
    assert path.read_bytes() == (
        b"freq_hz,mag\r\n"
        b"0.1,1e-12\r\n"
        b"2.807,0.25\r\n"
        b"47.3,3.0000000000000004\r\n"
    )
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header.split(",") == ["freq_hz", "mag"]
    back = np.array([[float(v) for v in row.split(",")] for row in rows])
    for j, k in enumerate(cols):
        assert np.array_equal(back[:, j], cols[k])    # repr formatting, no rounding


def test_csv_columns_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_csv_columns(tmp_path / "x.csv", {})
    with pytest.raises(ValueError):
        write_csv_columns(tmp_path / "x.csv",
                          {"a": np.zeros(3), "b": np.zeros(4)})


@given(st.lists(st.tuples(st.floats(), st.integers(-2**62, 2**62)), max_size=5000))
def test_csv_rows_are_the_repr_of_each_value(rows):
    cols = {"x": np.array([r[0] for r in rows], dtype=float),
            "n": np.array([r[1] for r in rows], dtype=np.int64)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cols.csv"
        write_csv_columns(path, cols)
        data = path.read_bytes()
    expected = "x,n\r\n" + "".join(
        ",".join(map(repr, row)) + "\r\n"
        for row in zip(cols["x"].tolist(), cols["n"].tolist()))
    assert data == expected.encode()
