"""Timeseries serialization as CSV columns.

CSV files carry a header row and one column per channel, dot-decimal,
UTF-8, CRLF line endings, each value written with repr so it reads back
exactly.
"""

from __future__ import annotations

import csv

import numpy as np

_BLOCK_ROWS = 4096


def write_csv_columns(path, columns: dict[str, np.ndarray]) -> None:
    if not columns:
        raise ValueError("need at least one column")
    arrays = {k: np.asarray(v) for k, v in columns.items()}
    sizes = {a.size for a in arrays.values()}
    if len(sizes) != 1:
        raise ValueError("columns must have equal length")
    (n,) = sizes
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(arrays.keys())
        # Python floats are converted one block at a time, so a long
        # spectrum never holds a second full-size copy of its columns.
        # ``%r`` formats a float or an int as repr does.
        row = ",".join(["%r"] * len(arrays)) + "\r\n"
        for i in range(0, n, _BLOCK_ROWS):
            rows = zip(*(a[i:i + _BLOCK_ROWS].tolist() for a in arrays.values()))
            f.writelines(map(row.__mod__, rows))
