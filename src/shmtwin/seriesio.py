"""Timeseries serialization as CSV columns.

CSV files carry a header row and one column per channel, dot-decimal,
UTF-8, each value written with repr so it reads back exactly.
"""

from __future__ import annotations

import csv

import numpy as np


def write_csv_columns(path, columns: dict[str, np.ndarray]) -> None:
    if not columns:
        raise ValueError("need at least one column")
    arrays = {k: np.asarray(v) for k, v in columns.items()}
    n = {a.size for a in arrays.values()}
    if len(n) != 1:
        raise ValueError("columns must have equal length")
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(arrays.keys())
        for row in zip(*arrays.values()):
            w.writerow([repr(v.item()) if hasattr(v, "item") else repr(v) for v in row])


def read_csv_columns(path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as f:
        r = csv.reader(f)
        header = next(r)
        cols = [[] for _ in header]
        for row in r:
            for c, v in zip(cols, row):
                c.append(float(v))
    return {h: np.asarray(c) for h, c in zip(header, cols)}
