"""Round-trip checks for the complex-string, CSV, and JSON helpers."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qholo import fileio

from helpers import write_points_csv_reference


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


@pytest.mark.parametrize("bad", ["", "1+2", "2j", "i2", "1+2ii", "one"])
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
