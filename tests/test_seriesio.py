import numpy as np
import pytest

from shmtwin.seriesio import read_csv_columns, write_csv_columns


def test_csv_columns_exact_round_trip(tmp_path):
    path = tmp_path / "cols.csv"
    cols = {
        "freq_hz": np.array([0.1, 2.807, 47.3]),
        "mag": np.array([1e-12, 0.25, 3.0000000000000004]),
    }
    write_csv_columns(path, cols)
    back = read_csv_columns(path)
    assert list(back) == ["freq_hz", "mag"]
    for k in cols:
        assert np.array_equal(back[k], cols[k])    # repr formatting, no rounding


def test_csv_columns_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_csv_columns(tmp_path / "x.csv", {})
    with pytest.raises(ValueError):
        write_csv_columns(tmp_path / "x.csv",
                          {"a": np.zeros(3), "b": np.zeros(4)})
