"""Round-trip checks for the complex-string, CSV, and JSON helpers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qholo import fileio

from helpers import format_complex_reference, write_points_csv_reference


@pytest.mark.parametrize("text,want", [
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    ("-0.5+0.25i", -0.5 + 0.25j),
    ("3", 3 + 0j),
    ("-3.5", -3.5 + 0j),
    ("2i", 2j),
    ("-2i", -2j),
    ("i", 1j),
    ("-i", -1j),
    ("+i", 1j),
    ("1e-3+2.5e2i", 1e-3 + 250j),
    ("1.0 + 2.0i", 1 + 2j),       # embedded spaces are stripped
])
def test_parse_complex_fixtures(text, want):
    assert fileio.parse_complex(text) == want


def test_parse_complex_accepts_numbers():
    assert fileio.parse_complex(3) == 3 + 0j
    assert fileio.parse_complex(0.5) == 0.5 + 0j
    assert fileio.parse_complex(1 - 1j) == 1 - 1j


@pytest.mark.parametrize("bad", ["", "1+2", "2j", "i2", "1+2ii", "one", True, False])
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError, match="not a complex number"):
        fileio.parse_complex(bad)


def test_format_complex_fixtures():
    assert fileio.format_complex(1 + 2j) == "1.0+2.0i"
    assert fileio.format_complex(1 - 2j) == "1.0-2.0i"
    assert fileio.format_complex(0) == "0.0+0.0i"
    assert fileio.format_complex(-0.0 - 0.0j) == "0.0+0.0i"   # -0.0 flushed
    assert fileio.format_complex(1.5) == "1.5+0.0i"


@given(st.complex_numbers(allow_nan=False, allow_infinity=False,
                          max_magnitude=1e12))
def test_format_parse_round_trip(c):
    out = fileio.parse_complex(fileio.format_complex(c))
    # -0.0 components are normalized on the way out; values are exact
    assert out.real == c.real and out.imag == c.imag


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1e308, -1e308, float("inf"), float("-inf"), float("nan"),
                   -float("nan"), 1.5, -2.25]


def test_complex_columns_follow_the_one_number_rule():
    parts = np.array(_SPECIAL_FLOATS)
    z = np.empty(len(parts) ** 2, dtype=complex)
    z.real, z.imag = np.repeat(parts, len(parts)), np.tile(parts, len(parts))
    want = [format_complex_reference(c) for c in z]
    assert "0.0+0.0i" in want and "nan+infi" in want and "-inf-infi" in want
    assert fileio.point_to_strings(z) == want
    assert [fileio.format_complex(c) for c in z] == want


@given(st.lists(st.complex_numbers(), max_size=12))
def test_complex_column_strings_equal_format_complex(zs):
    z = np.array(zs, dtype=complex).reshape(-1)
    assert fileio.point_to_strings(z) == [fileio.format_complex(c) for c in zs] \
        == [format_complex_reference(c) for c in zs]


def test_point_round_trip():
    z = np.array([0.25 - 1j, 3.0, -2j])
    back = fileio.parse_point(fileio.point_to_strings(z))
    assert np.array_equal(back, z)
    with pytest.raises(ValueError, match="expected 2"):
        fileio.parse_point(["1+0i"], n=2)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    path = tmp_path / "pts.csv"
    fileio.write_points_csv(path, pts)
    back = fileio.read_points_csv(path)
    assert np.array_equal(back, pts)


def test_csv_extra_columns_ignored_on_read(tmp_path):
    pts = np.array([[1 + 1j, 0j], [2j, 3 + 0j]])
    path = tmp_path / "pts.csv"
    fileio.write_points_csv(path, pts, extra=[("member", [1, 0]),
                                              ("margin", [0.5, -1.25])])
    text = path.read_text()
    assert text.splitlines()[0] == "re1,im1,re2,im2,member,margin"
    back = fileio.read_points_csv(path)
    assert np.array_equal(back, pts)


_SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320,
                      1e308, -1e308, 1.7976931348623157e308, 0.1, -1 / 3])


def _random_points(rng, m, n):
    # a mix of normal draws and the special values, -0.0 on both parts
    parts = rng.normal(size=(m, 2 * n)) * 10.0 ** rng.integers(-5, 6, size=(m, 2 * n))
    pick = rng.random(size=parts.shape) < 0.3
    parts[pick] = rng.choice(_SPECIALS, size=int(pick.sum()))
    pts = np.empty((m, n), dtype=complex)
    pts.real, pts.imag = parts[:, 0::2], parts[:, 1::2]
    return pts


@pytest.mark.parametrize("m", [0, 1, fileio._CSV_BLOCK_ROWS + 1, 2 * fileio._CSV_BLOCK_ROWS])
def test_csv_writer_matches_row_by_row_reference(tmp_path, m):
    rng = np.random.default_rng(m)
    n = 3
    pts = _random_points(rng, m, n)
    pts[:1] = complex(-0.0, -0.0)
    pts[1::3] = pts[:1]         # grid-like repeats, as the hull writes
    floats = rng.choice(_SPECIALS, size=m) * rng.choice([1.0, 1e-3, 0.5], size=m)
    extra = [
        ("member", (rng.random(m) < 0.5).astype(int)),          # int array
        ("flag", [bool(b) for b in rng.random(m) < 0.5]),       # bool list
        ("count", [int(k) for k in rng.integers(-3, 2**62, size=m)]),
        ("big", [2**70 + k for k in range(m)]),                 # past int64
        ("wide", [2**63 + k if k % 2 else k for k in range(m)]),  # numpy: floats
        ("margin", floats),                                     # float array
        ("slack", floats.tolist()),                             # float list
        ("mask", rng.random(m) < 0.5),                          # bool array
        ("level", rng.choice([0.25, -0.0, 1e-300, np.nan], size=m)),  # repeats
    ]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    fileio.write_points_csv(got, pts, extra=extra)
    write_points_csv_reference(want, pts, extra=extra)
    assert got.read_bytes() == want.read_bytes()
    fileio.write_points_csv(got, pts)
    write_points_csv_reference(want, pts)
    assert got.read_bytes() == want.read_bytes()
    if m == 0:
        with pytest.raises(ValueError, match="no points"):
            fileio.read_points_csv(got)
    else:
        back = fileio.read_points_csv(got)
        # -0.0 is written as 0.0, nan only equals nan
        assert np.array_equal(back, pts + 0.0, equal_nan=True)


def test_csv_writer_flushes_negative_zero_in_a_later_block(tmp_path, monkeypatch):
    # -0.0 only past the first block, in coordinates and a float column
    monkeypatch.setattr(fileio, "_CSV_BLOCK_ROWS", 4)
    m = 11
    pts = np.full((m, 2), 0.5 - 0.25j)
    pts[6, 0] = complex(-0.0, 1.0)
    pts[9, 1] = complex(2.0, -0.0)
    margin = np.linspace(-1.0, 1.0, m)
    margin[[5, 10]] = -0.0
    extra = [("member", np.arange(m) % 2), ("margin", margin),
             ("flag", np.arange(m) < 3)]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    fileio.write_points_csv(got, pts, extra=extra)
    write_points_csv_reference(want, pts, extra=extra)
    assert got.read_bytes() == want.read_bytes()
    assert b"-0.0" not in got.read_bytes()
    assert np.signbit(pts[6, 0].real) and np.signbit(margin[5])   # inputs kept


_CSV_FLOATS = st.floats() | st.sampled_from(_SPECIALS.tolist())
# (name, values) per extra-column kind, from the column's list of values
_CSV_EXTRA_KINDS = {
    "flag": (st.booleans(), list),                                  # bool list
    "mask": (st.booleans(), np.array),                              # bool array
    "member": (st.integers(-2**63, 2**63 - 1), np.array),           # int array
    "big": (st.integers(2**63, 2**80) | st.integers(-2**80, 0), list),  # past int64
    "margin": (_CSV_FLOATS, np.array),                              # float array
    "slack": (_CSV_FLOATS, list),                                   # float list
}


@st.composite
def _csv_cases(draw):
    """(block rows, points, extra): m = 0..24 rows, at most m // 2 per block.
    Each column takes its rows from a prefix of one to m values of a pool
    drawn once per kind of value, so it has few or many distinct values,
    repeated blocks apart."""
    m, n = draw(st.integers(0, 24)), draw(st.integers(1, 3))
    rows, pools = np.random.default_rng(draw(st.integers(0, 2**32 - 1))), {}

    def column(values):
        if values not in pools:
            pools[values] = draw(st.lists(values, min_size=1, max_size=max(m, 1)))
        pool = pools[values][:rows.integers(1, len(pools[values]) + 1)]
        return [pool[i] for i in rows.integers(0, len(pool), size=m)]

    parts = np.array([column(_CSV_FLOATS) for _ in range(2 * n)]).reshape(2 * n, m)
    points = np.empty((m, n), dtype=complex)
    points.real, points.imag = parts[0::2].T, parts[1::2].T
    extra = []
    for name in draw(st.lists(st.sampled_from(sorted(_CSV_EXTRA_KINDS)), max_size=4)):
        values, container = _CSV_EXTRA_KINDS[name]
        extra.append((name, container(column(values))))
    return draw(st.integers(1, max(m // 2, 1))), points, extra


@settings(max_examples=100)
@given(case=_csv_cases())
def test_csv_writer_matches_the_reference_on_random_columns(tmp_path_factory, case):
    block, pts, extra = case
    got = tmp_path_factory.getbasetemp() / "random_columns.csv"
    want = got.with_name("random_columns_reference.csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_CSV_BLOCK_ROWS", block)
        fileio.write_points_csv(got, pts, extra=extra)
    write_points_csv_reference(want, pts, extra=extra)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("block", [3, fileio._CSV_BLOCK_ROWS])
def test_csv_writer_takes_columns_as_values_and_index(tmp_path, monkeypatch, block):
    # a grid's axes, with -0.0 values and one-value fixed axes, and a bool
    # member column as an index into [0, 1], against the full columns
    monkeypatch.setattr(fileio, "_CSV_BLOCK_ROWS", block)
    axes = [np.array([-0.0, 0.5, 1e-300, -1 / 3]), np.array([-0.0]),
            np.array([2.5, -0.0, 1e300]), np.array([0.1])]
    idx = np.indices([len(a) for a in axes], dtype=np.uint8).reshape(4, -1)
    m = idx.shape[1]
    pts = np.empty((m, 2), dtype=complex)
    pts.real, pts.imag = (np.stack([axes[a][idx[a]] for a in (0, 2)], axis=1),
                          np.stack([axes[a][idx[a]] for a in (1, 3)], axis=1))
    rng = np.random.default_rng(block)
    members = rng.random(m) < 0.5
    margins = rng.choice([-0.0, 0.25, np.inf, -1e-9], size=m)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    fileio.write_points_csv(got, fileio._Column((axes, idx)), extra=[
        ("member", fileio._Column((np.arange(2), members.view(np.uint8)))),
        ("margin", margins)])
    write_points_csv_reference(want, pts, extra=[("member", members.astype(int)),
                                                 ("margin", margins)])
    assert got.read_bytes() == want.read_bytes()
    assert np.signbit(axes[0][0]) and np.signbit(axes[1][0])     # inputs kept
    with pytest.raises(ValueError, match=f"has 2 values for {m} rows"):
        fileio.write_points_csv(got, fileio._Column((axes, idx)), extra=[
            ("member", fileio._Column((np.arange(2), np.zeros(2, np.uint8))))])


def test_csv_writer_rejects_short_extra_column(tmp_path):
    with pytest.raises(ValueError, match="has 1 values for 2 rows"):
        fileio.write_points_csv(tmp_path / "x.csv", [[1j], [2j]],
                                extra=[("member", [1])])


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="bad points header"):
        fileio.read_points_csv(path)


def test_csv_rejects_short_row(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("re1,im1,re2,im2\n1.0,2.0\n")
    with pytest.raises(ValueError, match="expected at least 4"):
        fileio.read_points_csv(path)


def test_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        fileio.read_points_csv(path)
    path.write_text("re1,im1\n")
    with pytest.raises(ValueError, match="no points"):
        fileio.read_points_csv(path)


def test_json_writer_is_deterministic(tmp_path):
    obj = {"b": [1.0, 2.5], "a": {"z": "1.0+2.0i", "y": 3}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    fileio.dump_json(p1, obj)
    fileio.dump_json(p2, {"a": {"y": 3, "z": "1.0+2.0i"}, "b": [1.0, 2.5]})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert json.loads(p1.read_text()) == obj


def test_json_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        fileio.dump_json(tmp_path / "nan.json", {"v": float("nan")})


# ---------------------------------------------------------------- JSON encoder

def _json_reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


_TEXT = st.text(st.characters(), max_size=6) | st.sampled_from(
    ["%", "%s", "%%d", "\x00", "\"\\\n\t\x7f", "\u00e9\u2603\U0001f600"])
_SCALARS = (st.none() | st.booleans() | _TEXT
            | st.integers(-2 ** 70, 2 ** 70)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([f for f in _SPECIAL_FLOATS if np.isfinite(f)]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200)
@given(obj=_JSON)
def test_dump_json_bytes_equal_the_json_module(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "x.json"
    fileio.dump_json(path, obj)
    assert path.read_bytes() == _json_reference(obj).encode()


@pytest.mark.parametrize("obj", [float("nan"), [1.0, float("inf")],
                                 {"a": {"b": -float("inf")}},
                                 fileio.Records({"x": np.array([0.5, np.nan])})])
def test_dump_json_rejects_non_finite_floats(tmp_path, obj):
    with pytest.raises(ValueError, match="not JSON compliant"):
        fileio.dump_json(tmp_path / "x.json", obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: 1}}, {(1, 2): 0},
                                 {"a": 1j}, [np.int64(3)], {"a": {1, 2}}])
def test_dump_json_rejects_non_str_keys_and_unknown_types(tmp_path, obj):
    # json would turn int, float, bool and None keys into strings; the
    # writer takes str keys only
    with pytest.raises(TypeError):
        fileio.dump_json(tmp_path / "x.json", obj)


def _leaf(draw, m):
    """A random leaf column of m entries and the JSON value of each entry."""
    kind = draw(st.sampled_from(["int", "float", "complex", "mixed", "scalar",
                                 "int_array"]))
    if kind == "complex":
        parts = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
        zs = [complex(draw(parts), draw(parts)) for _ in range(m)]
        return np.array(zs, dtype=complex), [format_complex_reference(c) for c in zs]
    if kind == "float":
        xs = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=m, max_size=m))
        return np.array(xs, dtype=float), xs
    if kind == "int_array":
        xs = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                           min_size=m, max_size=m))
        return np.array(xs, dtype=np.int64), xs
    values = {"int": st.integers(-2 ** 70, 2 ** 70),
              "mixed": st.integers(0, 5) | st.just("none"),
              "scalar": _SCALARS}[kind]
    xs = draw(st.lists(values, min_size=m, max_size=m))
    return xs, xs


@st.composite
def _records(draw):
    """(Records, the list of dicts it stands for) over a random layout."""
    m = draw(st.integers(0, 4))

    def node(depth):
        kind = draw(st.sampled_from(["leaf", "dict", "tuple"] if depth else ["leaf"]))
        if kind == "leaf":
            return _leaf(draw, m)
        children = [node(depth - 1) for _ in range(draw(st.integers(0, 3)))]
        if kind == "tuple":
            return (tuple(c for c, _ in children),
                    [[v[i] for _, v in children] for i in range(m)])
        keys = draw(st.lists(_TEXT, min_size=len(children), max_size=len(children),
                             unique=True))
        return ({k: c for k, (c, _) in zip(keys, children)},
                [{k: v[i] for k, (_, v) in zip(keys, children)} for i in range(m)])

    first = draw(_TEXT)
    columns, rows = node(2)
    if not isinstance(columns, dict):
        columns, rows = {}, [{} for _ in range(m)]
    col, vals = _leaf(draw, m)      # every layout holds at least one leaf
    columns[first] = col
    for row, v in zip(rows, vals):
        row[first] = v
    return fileio.Records(columns), rows


@settings(max_examples=200)
@given(pair=_records())
def test_records_write_as_their_list_of_dicts(tmp_path_factory, pair):
    records, rows = pair
    path = tmp_path_factory.mktemp("records") / "x.json"
    fileio.dump_json(path, {"points": records, "n": len(rows)})
    want = _json_reference({"points": rows, "n": len(rows)})
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("m", [0, 1, 5, fileio._RECORD_BLOCK_ROWS,
                               2 * fileio._RECORD_BLOCK_ROWS + 1])
def test_records_of_a_classify_report(tmp_path, m):
    rng = np.random.default_rng(m)
    pts = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    pts[:1] = [-0.0, complex(0.0, -0.0), complex(-0.0, -1.0)]
    mod = np.abs(pts[:, 0])
    pos = rng.integers(0, 3, m)
    strict = ["none" if p == 0 else 3 - int(p) for p in pos]
    records = fileio.Records({
        "point": tuple(pts.T),
        "signature": {"pos": pos, "neg": (2 - pos).tolist(), "zero": [0] * m},
        "strict_q": strict,
        "50% \"q\"\n": mod,
    })
    rows = [{"point": [format_complex_reference(c) for c in p],
             "signature": {"pos": int(a), "neg": 2 - int(a), "zero": 0},
             "strict_q": q, "50% \"q\"\n": r}
            for p, a, q, r in zip(pts, pos, strict, mod.tolist())]
    fileio.dump_json(tmp_path / "r.json", {"mode": "boundary", "points": records})
    want = _json_reference({"mode": "boundary", "points": rows})
    assert (tmp_path / "r.json").read_text() == want


def test_records_need_leaves_of_one_length():
    with pytest.raises(ValueError, match="equal length"):
        fileio.Records({"a": [1, 2], "b": {"c": [1]}})
    with pytest.raises(ValueError, match="equal length"):
        fileio.Records({"a": {}, "b": ()})
