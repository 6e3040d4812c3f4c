import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shmtwin.seriesio import write_csv_columns, write_csv_rows, write_npy_columns, write_text


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


@given(st.lists(st.tuples(st.floats(), st.integers(-2**62, 2**62),
                          st.text("abcXYZ_ .-0123456789")), max_size=5000))
def test_csv_rows_are_the_repr_of_each_value(rows):
    cols = {"x": np.array([r[0] for r in rows], dtype=float),
            "n": np.array([r[1] for r in rows], dtype=np.int64)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cols.csv"
        write_csv_columns(path, cols)
        data = path.read_bytes()
        write_csv_rows(path, ("x", "n", "s"), rows)
        mixed = path.read_bytes()
    expected = "x,n\r\n" + "".join(
        ",".join(map(repr, row)) + "\r\n"
        for row in zip(cols["x"].tolist(), cols["n"].tolist()))
    assert data == expected.encode()
    # floats as repr, ints and text as str, LF line endings
    assert mixed == ("x,n,s\n" + "".join(f"{x!r},{n},{s}\n" for x, n, s in rows)).encode()


def test_npy_columns_exact_bytes(tmp_path):
    # a numpy whose .npy header differs fails here, not only as bundle digests
    path = tmp_path / "cols.npy"
    write_npy_columns(path, {"freq_hz": np.array([0.0, 0.5, 1.0]),
                             "magnitude": np.array([1e-12, 0.25, 3.0000000000000004])})
    header = (b"{'descr': [('freq_hz', '<f8'), ('magnitude', '<f8')], "
              b"'fortran_order': False, 'shape': (3,), }")
    assert path.read_bytes() == (
        b"\x93NUMPY\x01\x00v\x00" + header + b" " * 23 + b"\n"
        + struct.pack("<6d", 0.0, 1e-12, 0.5, 0.25, 1.0, 3.0000000000000004))


def test_npy_columns_keep_names_and_order(tmp_path):
    path = tmp_path / "cols.npy"
    write_npy_columns(path, {"z": [1.0, 2.0], "a": np.array([3.0, 4.0]), "m": (5.0, 6.0)})
    rec = np.load(path, allow_pickle=False)
    assert rec.dtype.names == ("z", "a", "m")
    assert [rec.dtype[k] for k in rec.dtype.names] == [np.dtype("<f8")] * 3
    assert not rec.dtype.hasobject
    assert rec["a"].tolist() == [3.0, 4.0]


def test_npy_columns_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_npy_columns(tmp_path / "x.npy", {})
    with pytest.raises(ValueError):
        write_npy_columns(tmp_path / "x.npy",
                          {"a": np.zeros(3), "b": np.zeros(4)})


@given(st.lists(st.tuples(st.floats(), st.floats()), max_size=5000))
def test_npy_columns_round_trip_every_bit(rows):
    # st.floats() draws NaN, ±inf, -0.0 and subnormals, so compare bit patterns
    cols = {"freq_hz": np.array([r[0] for r in rows], dtype=float),
            "magnitude": np.array([r[1] for r in rows], dtype=float)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cols.npy"
        write_npy_columns(path, cols)
        rec = np.load(path, allow_pickle=False)
    assert rec.dtype.names == tuple(cols)
    for k, a in cols.items():
        assert np.array_equal(rec[k].view(np.uint64), a.view(np.uint64))


WRITERS = {
    "csv_columns": lambda path, n: write_csv_columns(path, {"x": np.arange(n) / 3.0}),
    "csv_rows": lambda path, n: write_csv_rows(path, ("k", "v"),
                                               [("a", i / 3.0) for i in range(n)]),
    "npy_columns": lambda path, n: write_npy_columns(path, {"x": np.arange(n) / 3.0}),
    "text": lambda path, n: write_text(path, "line\n" * n),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_rewriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, name):
    # an output directory is often written again: no byte of the old file stays
    write = WRITERS[name]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    write(fresh, 10)
    write(reused, 5000)
    assert reused.stat().st_size > fresh.stat().st_size
    write(reused, 10)
    assert reused.read_bytes() == fresh.read_bytes()


class _Unprintable:
    def __str__(self):
        raise ValueError("no text")


def test_a_formatting_error_leaves_the_old_file_untouched(tmp_path):
    # the content is formed before the file is opened
    path = tmp_path / "rows.csv"
    write_csv_rows(path, ("k", "v"), [("a", 1.0)] * 100)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="no text"):
        write_csv_rows(path, ("k", "v"), [("b", 2.0), ("c", _Unprintable())])
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "\ud800")
    assert path.read_bytes() == before
