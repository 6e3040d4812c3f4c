"""Output files: every file the program writes goes through one of four writers.

The CSV writers write dot-decimal UTF-8 with a header row, each float
written with repr so it reads back exactly.  ``write_csv_columns`` writes
equal-length numeric columns with CRLF line endings (the uplink event
log), each a list of Python numbers, written as it stands, or an array;
``write_csv_rows`` writes rows of mixed values with LF line endings
(the energy and summary tables and the reproduction reports).
``write_npy_columns`` writes equal-length float columns as one structured
little-endian ``.npy`` array, one ``<f8`` field per column, bit for bit
(the spectrum).  ``write_text`` writes text as UTF-8 with LF line endings
(the verdict and the filter stages).

Every writer opens its file truncated to zero, so a crash mid-write
leaves an empty or short file, never new rows followed by the tail of a
longer old one.  The CSV and text writers form the whole content first
and write it in one call, so a formatting error leaves the old file as it
was.
"""

from __future__ import annotations

import csv
import io

import numpy as np


def _write_str(path, text: str) -> None:
    data = text.encode("utf-8")
    with open(path, "wb") as f:
        f.write(data)


def _equal_length(columns: dict[str, np.ndarray]) -> tuple[dict[str, np.ndarray], int]:
    if not columns:
        raise ValueError("need at least one column")
    arrays = {k: np.asarray(v) for k, v in columns.items()}
    sizes = {a.size for a in arrays.values()}
    if len(sizes) != 1:
        raise ValueError("columns must have equal length")
    (n,) = sizes
    return arrays, n


def write_csv_columns(path, columns: dict[str, list | np.ndarray]) -> None:
    """A list column is written as it stands, so it must hold Python ints
    and floats; any other column is read as a numpy array."""
    if not columns:
        raise ValueError("need at least one column")
    values = [v if isinstance(v, list) else np.asarray(v).tolist() for v in columns.values()]
    if len(set(map(len, values))) != 1:
        raise ValueError("columns must have equal length")
    header = io.StringIO()
    csv.writer(header).writerow(columns.keys())
    # ``%r`` formats a float or an int as repr does.
    row = ",".join(["%r"] * len(values)) + "\r\n"
    _write_str(path, header.getvalue() + "".join(map(row.__mod__, zip(*values))))


def write_npy_columns(path, columns: dict[str, np.ndarray]) -> None:
    """Columns as one structured array whose field names are the column names."""
    arrays, n = _equal_length(columns)
    rec = np.empty(n, dtype=[(k, "<f8") for k in arrays])
    for k, a in arrays.items():
        rec[k] = a
    # a file object, so that ``path`` is the name written, suffix or not
    with open(path, "wb") as f:
        np.save(f, rec, allow_pickle=False)


def write_csv_rows(path, header, rows) -> None:
    """A header and rows of any values: floats as repr, the rest as str."""
    _write_str(path, "".join(
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in (header, *rows)))


def write_text(path, text: str) -> None:
    _write_str(path, text)
