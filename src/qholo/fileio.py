"""Serialization helpers shared by the CLI: complex strings, CSV, JSON.

Complex numbers travel as "a+bi" / "a-bi" strings so they round-trip
unambiguously through JSON and command lines.  All writers are
deterministic: sorted JSON keys, fixed float repr, explicit newlines.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

__all__ = [
    "format_complex", "parse_complex", "point_to_strings", "parse_point",
    "write_points_csv", "read_points_csv", "dump_json",
]

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_BOTH_RE = re.compile(rf"^([+-]?{_FLOAT})([+-](?:{_FLOAT})?)i$")
_REAL_RE = re.compile(rf"^([+-]?{_FLOAT})$")
_IMAG_RE = re.compile(rf"^([+-]?(?:{_FLOAT})?)i$")


def _clean(x: float) -> float:
    # -0.0 prints as "-0.0" and breaks byte-for-byte reproducibility between
    # mathematically equal runs, so flush it to +0.0
    x = float(x)
    return 0.0 if x == 0.0 else x


def format_complex(c) -> str:
    c = complex(c)
    re_part = _clean(c.real)
    im_part = _clean(c.imag)
    sign = "-" if im_part < 0 else "+"
    return f"{re_part!r}{sign}{abs(im_part)!r}i"


def parse_complex(text) -> complex:
    if isinstance(text, (int, float)):
        return complex(text)
    if isinstance(text, complex):
        return text
    s = str(text).strip().replace(" ", "")
    m = _BOTH_RE.match(s)
    if m:
        coef = m.group(2)
        if coef in ("+", "-"):
            coef += "1"
        return complex(float(m.group(1)), float(coef))
    m = _REAL_RE.match(s)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _IMAG_RE.match(s)
    if m:
        coef = m.group(1)
        if coef in ("", "+"):
            coef = "1"
        elif coef == "-":
            coef = "-1"
        return complex(0.0, float(coef))
    raise ValueError(f"not a complex number: {text!r}")


def point_to_strings(z) -> list:
    return [format_complex(c) for c in np.asarray(z, dtype=complex)]


def parse_point(entries, n: int | None = None) -> np.ndarray:
    pt = np.array([parse_complex(e) for e in entries], dtype=complex)
    if n is not None and pt.shape[0] != n:
        raise ValueError(f"point has {pt.shape[0]} coordinates, expected {n}")
    return pt


def _csv_header(n: int) -> list:
    cols = []
    for k in range(1, n + 1):
        cols.extend([f"re{k}", f"im{k}"])
    return cols


# Rows formatted and written per block, so the text in memory stays small.
_CSV_BLOCK_ROWS = 4096


def _format_column(col, fmt):
    """fmt of each value of col, computed once per distinct value."""
    uniq, inv = np.unique(col, return_inverse=True)
    return map(list(map(fmt, uniq.tolist())).__getitem__, inv.tolist())


def write_points_csv(path, points, extra=None):
    """Rows re1,im1,...,reN,imN plus optional named extra columns.

    extra: list of (name, sequence) pairs appended after the coordinates,
    one value per row.  An extra column must be all-integer (bools included)
    or all-float.  Floats print as repr with -0.0 flushed to 0.0, other
    values as str.  The text is built a column at a time and written a block
    of rows at a time.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    m, n = points.shape
    extra = extra or []
    coords = np.ascontiguousarray(points).view(float) + 0.0   # re1, im1, ...
    cols = [(col, repr) for col in coords.T]
    for name, vals in extra:
        col = np.asarray(vals)
        if len(col) != m:
            raise ValueError(f"extra column {name!r} has {len(col)} values "
                             f"for {m} rows")
        cols.append((col + 0.0, repr) if col.dtype.kind == "f" else (col, str))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            _csv_header(n) + [name for name, _ in extra])
        for lo in range(0, m, _CSV_BLOCK_ROWS):
            text = [_format_column(col[lo:lo + _CSV_BLOCK_ROWS], fmt)
                    for col, fmt in cols]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


def read_points_csv(path) -> np.ndarray:
    """Reads the coordinate columns; extra columns are ignored."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty points file: {path}")
    header = [h.strip() for h in rows[0]]
    n = 0
    while 2 * n + 1 < len(header) and header[2 * n] == f"re{n + 1}" \
            and header[2 * n + 1] == f"im{n + 1}":
        n += 1
    if n == 0:
        raise ValueError(
            f"bad points header in {path}: expected re1,im1,... got {header[:4]}")
    pts = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < 2 * n:
            raise ValueError(f"{path}:{lineno}: row has {len(row)} fields, "
                             f"expected at least {2 * n}")
        vals = [float(x) for x in row[:2 * n]]
        pts.append([complex(vals[2 * k], vals[2 * k + 1]) for k in range(n)])
    if not pts:
        raise ValueError(f"no points in {path}")
    return np.array(pts, dtype=complex)


def dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
