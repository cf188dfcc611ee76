"""Serialization helpers shared by the CLI: complex strings, CSV, JSON.

Complex numbers travel as "a+bi" / "a-bi" strings so they round-trip
unambiguously through JSON and command lines.  One rule formats them a
column at a time; `format_complex` and `point_to_strings` apply it to one
number and to one point.  All writers are deterministic: sorted JSON keys,
fixed float repr, explicit newlines.

`dump_json` runs its own encoder, whose bytes equal those of
`json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)` plus a
final newline, with one restriction: every dict key must be a str (others
raise TypeError).  It also writes `Records`, a list of records held as
columns, as the list of dicts it stands for: one skeleton record encoded
once gives a %-template, the leaves are encoded a column at a time, and
each record is one substitution into the template.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from json.encoder import encode_basestring_ascii as _string

import numpy as np

__all__ = [
    "format_complex", "parse_complex", "point_to_strings", "parse_point",
    "write_points_csv", "read_points_csv", "dump_json", "Records",
]

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_BOTH_RE = re.compile(rf"^([+-]?{_FLOAT})([+-](?:{_FLOAT})?)i$")
_REAL_RE = re.compile(rf"^([+-]?{_FLOAT})$")
_IMAG_RE = re.compile(rf"^([+-]?(?:{_FLOAT})?)i$")


def _complex_strings(z, template="%r%s%ri"):
    """The "a+bi" text of each entry of the 1-D complex array z, through
    template: the repr of the real part, the sign of the imaginary part and
    the repr of its modulus.  -0.0 prints as "-0.0" and would break
    byte-for-byte reproducibility between mathematically equal runs, so
    both parts have it flushed to +0.0 first."""
    z = np.asarray(z, dtype=complex)
    im = z.imag + 0.0
    return list(map(template.__mod__, zip(
        (z.real + 0.0).tolist(), map("+-".__getitem__, (im < 0).tolist()),
        np.abs(im).tolist())))


def format_complex(c) -> str:
    return _complex_strings([complex(c)])[0]


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
    return _complex_strings(z)


def parse_point(entries, n: int | None = None) -> np.ndarray:
    pt = np.array([parse_complex(e) for e in entries], dtype=complex)
    if n is not None and pt.shape[0] != n:
        raise ValueError(f"point has {pt.shape[0]} coordinates, expected {n}")
    return pt


# Rows built and distinct values formatted per block, so memory stays small.
_CSV_BLOCK_ROWS = 4096


def _text_table(col):
    """A NUL-padded bytes item of the repr of each distinct value of col, and
    the item of each entry of col, in the smallest uint."""
    uniq, inv = np.unique(col, return_inverse=True)     # -0.0 joins 0.0
    if uniq.dtype.kind == "f":
        uniq += 0.0                                     # and prints as 0.0
    chunks = [np.array(list(map(repr, uniq[lo:lo + _CSV_BLOCK_ROWS].tolist())), "S")
              for lo in range(0, len(uniq), _CSV_BLOCK_ROWS)]
    table = np.concatenate(chunks) if chunks else np.zeros(0, "S1")
    return table, inv.astype(np.min_scalar_type(len(uniq)))


def write_points_csv(path, points, extra=None):
    """Rows re1,im1,...,reN,imN plus optional named extra columns.

    extra: list of (name, sequence) pairs appended after the coordinates,
    one value per row.  An extra column must be all-integer (bools included)
    or all-float.  Floats print as repr with -0.0 flushed to 0.0, other
    values as str, each distinct value of a column once.  Rows are built as
    bytes a block at a time from tables padded with NUL, which no number's
    text holds.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    m, n = points.shape
    extra = extra or []
    cols = list(np.ascontiguousarray(points).view(float).T)   # re1, im1, ...
    for name, vals in extra:
        col = np.asarray(vals)
        if col.dtype.kind == "f" and all(isinstance(v, int) for v in vals):
            col = np.array(vals, dtype=object)      # ints past int64, not floats
        if len(col) != m:
            raise ValueError(f"extra column {name!r} has {len(col)} values "
                             f"for {m} rows")
        cols.append(col)
    tables = list(map(_text_table, cols))
    widths = [table.itemsize + 1 for table, _ in tables]     # text, separator
    rows = np.full((min(m, _CSV_BLOCK_ROWS), sum(widths)), ord(","), np.uint8)
    rows[:, -1] = ord("\n")
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            [f"{part}{k}" for k in range(1, n + 1) for part in ("re", "im")]
            + [name for name, _ in extra])
        fh.flush()
        for lo in range(0, m, _CSV_BLOCK_ROWS):
            block, at = rows[:m - lo], 0
            for (table, inv), width in zip(tables, widths):     # one item per row
                np.take(table, inv[lo:lo + _CSV_BLOCK_ROWS], mode="clip",  # no out buffer
                        out=block[:, at:at + width - 1].view(table.dtype)[:, 0])
                at += width
            fh.buffer.write(block[block != 0])


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
        try:
            vals = [float(x) for x in row[:2 * n]]
        except ValueError as e:     # names the value, not where it is
            raise ValueError(f"{path}:{lineno}: {e}") from None
        pts.append([complex(vals[2 * k], vals[2 * k + 1]) for k in range(n)])
    if not pts:
        raise ValueError(f"no points in {path}")
    return np.array(pts, dtype=complex)


# ---------------------------------------------------------------- JSON

_INDENT = "  "
# Records formatted and written per block, so the text in memory stays small.
_RECORD_BLOCK_ROWS = 512
_SLOT = object()        # a leaf of a skeleton record; its text is "\0"


def _scalar(o):
    """The JSON text of a scalar, checked in the order json checks."""
    if isinstance(o, str):
        return _string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    if o is _SLOT:
        return "\0"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _pieces(obj, nl):
    """The JSON text of obj in pieces; nl is the newline and indentation of
    the line obj starts on."""
    if isinstance(obj, Records):
        yield from obj._pieces(nl)
    elif not isinstance(obj, _NESTED) or hasattr(obj, "_fields"):
        yield _scalar(obj)      # a record (NamedTuple) raises TypeError
    elif not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    else:
        inner = nl + _INDENT
        if isinstance(obj, dict):
            keys = sorted(obj)      # _string raises TypeError on a non-str key
            heads = [_string(k) + ": " for k in keys]
            values, brackets = map(obj.__getitem__, keys), "{}"
        elif any(issubclass(t, _NESTED) for t in set(map(type, obj))):
            heads, values, brackets = itertools.repeat(""), obj, "[]"
        else:       # a list of scalars is one piece
            yield "[" + inner + ("," + inner).join(_leaf_texts(obj)) + nl + "]"
            return
        sep = brackets[0] + inner
        for head, value in zip(heads, values):
            yield sep + head
            yield from _pieces(value, inner)
            sep = "," + inner
        yield nl + brackets[1]


def _leaf_texts(col):
    """The JSON text of each scalar of a list, tuple or 1-D array."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "c":
            return _complex_strings(col, '"%r%s%ri"')
        col = col.tolist()
    types = set(map(type, col))
    if types <= {float}:
        if not all(map(math.isfinite, col)):
            raise ValueError("Out of range float values are not JSON compliant")
        return map(float.__repr__, col)
    if types <= {int, str, type(None)}:
        # no bools or floats, so equal values are equal JSON: encode each
        # distinct value once
        return map({v: _scalar(v) for v in set(col)}.__getitem__, col)
    return map(_scalar, col)


def _skeleton(node, leaves):
    """The record skeleton of a column node (every leaf a _SLOT); appends
    the leaf columns to leaves in the order the encoder meets them."""
    if isinstance(node, dict):
        return {key: _skeleton(node[key], leaves) for key in sorted(node)}
    if isinstance(node, tuple):
        return [_skeleton(child, leaves) for child in node]
    leaves.append(node)
    return _SLOT


class Records:
    """A list of records held as columns; `dump_json` writes it exactly as
    the list of dicts it stands for.

    `columns` maps each key of a record to a column node, which is one of
    - a leaf: a list or 1-D numpy array with one scalar per record (a
      complex array stands for the `format_complex` strings of its entries);
    - a dict of column nodes: one JSON object per record;
    - a tuple of column nodes: one fixed-width JSON array per record.
    There is at least one leaf, and every leaf has one entry per record.
    """

    def __init__(self, columns):
        self._leaves = []
        self._skeleton = _skeleton(dict(columns), self._leaves)
        lengths = {len(col) for col in self._leaves}
        if len(lengths) != 1:
            raise ValueError(f"leaf columns must be one or more of equal length, "
                             f"got lengths {sorted(lengths)}")
        (self._len,) = lengths

    def _pieces(self, nl):
        if not self._len:
            yield "[]"
            return
        inner = nl + _INDENT
        template = "".join(_pieces(self._skeleton, inner))
        template = template.replace("%", "%%").replace("\0", "%s")
        head, sep = "[" + inner, "," + inner
        for lo in range(0, self._len, _RECORD_BLOCK_ROWS):
            texts = [_leaf_texts(col[lo:lo + _RECORD_BLOCK_ROWS])
                     for col in self._leaves]
            yield head
            yield sep.join(map(template.__mod__, zip(*texts)))
            head = sep
        yield nl + "]"


_NESTED = (dict, list, tuple, Records)


def dump_json(path, obj):
    """Write obj as JSON with 2-space indents and sorted keys, then a
    newline; NaN and infinities raise ValueError, a non-str key TypeError."""
    with open(path, "w") as fh:
        fh.writelines(_pieces(obj, "\n"))
        fh.write("\n")
