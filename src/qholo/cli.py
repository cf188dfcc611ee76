"""Command-line surface: config shapes, subcommand dispatch, report emission.

Subcommands: levi | classify | qholo | hull | thm2 | peak.  Every run reads
one JSON config, writes its artifacts into --out, and exits with 0 (success),
1 (a requested property or threshold failed; artifacts are still written), or
2 (input/config error; nothing is written).  With a fixed seed, reruns emit
byte-identical files.

Each subcommand declares the shape of its config as data (_SHAPES).  A
reader takes (value, what, env): the config's value, its dotted name for
messages, and the values read before it (keys are read in declared order, so
`n` precedes the readers that need it).  It returns the validated value or
raises ConfigError; unknown keys are errors.  cmd_* get the validated values.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections import ChainMap

import numpy as np

from . import expr as ex
from . import fileio, forms, hull, levi, peak

__all__ = ["main", "run"]


class ConfigError(Exception):
    """Bad input: malformed config, unknown keys, invalid data.  Exit 2."""


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e.msg} at line "
                          f"{e.lineno} column {e.colno} (char {e.pos})")
    except (OSError, ValueError, RecursionError) as e:
        # a missing file or a directory; text that is not UTF-8 or an integer
        # past Python's digit limit; arrays nested past the recursion limit
        raise ConfigError(f"cannot read {path}: {e}")


# Resource caps: on every sampled count a config gives (thm2's batch configs
# included), and on the points of a hull grid.
MAX_SAMPLES = 100_000
MAX_GRID = 2_000_000

# Cap on every dimension n.  The largest per-row object is a (2n, 2n) jet
# block: up to n = 32 one row fits the interpreter's chunk of 4096 Hessian
# entries, past it chunks floor at one row and scratch grows as n^2 per slot.
MAX_N = 32

# Cap on forms.form_width(n, q), the residual engine's widest form in
# coefficients per row: its chunk budget.  Past it a chunk cannot hold one
# row, and the gather tables grow with C(n, a+1).
MAX_FORM = 1 << 16

# Bound on config lengths and scales (box, halfwidths, radii, peak c), so twice
# one stays finite.
MAX_LENGTH = 1e300

_REQUIRED = object()     # the default of a key the config must give
_FMAX = sys.float_info.max


# ---------------------------------------------------------------- readers

def _obj(fields, build=None):
    """Reader of an object whose keys are among fields', read in order: key ->
    reader (a required key) or (reader, default).  A default is None, a
    callable of env, or a config value read like a given one.
    build(values, env) makes the result; the library's ValueError or
    RuntimeError there is a ConfigError."""
    fields = {key: spec if isinstance(spec, tuple) else (spec, _REQUIRED)
              for key, spec in fields.items()}
    def read(value, what, env):
        where = what or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        for key in value:
            if key not in fields:
                raise ConfigError(f"unknown key {key!r} in {where}; "
                                  f"expected one of {list(fields)}")
        out = {}
        scope = ChainMap(out, env)
        for key, (reader, default) in fields.items():
            name = f"{what}.{key}" if what else key
            if key in value:
                out[key] = reader(value[key], name, scope)
            elif default is _REQUIRED:
                raise ConfigError(f"{where} is missing required key {key!r}")
            else:
                out[key] = (default(scope) if callable(default) else
                            None if default is None else reader(default, name, scope))
        try:
            return out if build is None else build(out, scope)
        except (ValueError, OverflowError, RuntimeError) as e:
            raise ConfigError(f"bad {where}: {e}")
    read.parts = [(key, reader) for key, (reader, _) in fields.items()]
    return read


def _list(item, lo=0, cap=math.inf, build=tuple):
    """Reader of a list of lo to cap entries, each read by item."""
    size = "" if (lo, cap) == (0, math.inf) else f" of {lo} to {cap} entries"
    def read(value, what, env):
        if not isinstance(value, list) or not lo <= len(value) <= cap:
            raise ConfigError(f"{what} must be a list{size}, got {value!r}")
        return build([item(v, f"{what}[{i}]", env) for i, v in enumerate(value)])
    read.parts, read.capped = [(None, item)], cap < math.inf
    return read


def _one_of(expected, *variants):
    """Reader of a union: the first (test, reader) variant whose test, a type
    or a predicate, the value passes reads it."""
    def read(value, what, env):
        for test, reader in variants:
            if isinstance(value, test) if isinstance(test, type) else test(value):
                return reader(value, what, env)
        raise ConfigError(f"{what or 'config'} must be {expected}, got {value!r}")
    read.parts = [(None, reader) for _, reader in variants]
    return read


def _has(key, *wanted):
    """Union test: an object holding key, or whose key is wanted[0] (None: absent)."""
    return lambda v: isinstance(v, dict) and (
        v.get(key) == wanted[0] if wanted else key in v)


def _only(key, read):
    """Reader of an object holding key alone; the result is key's value."""
    return _obj({key: read}, lambda values, env: values[key])


def _file(read, load=_load_config):
    """Reader of a file reference: a non-empty string naming a file,
    resolved against the config's directory.  read takes what load gives,
    with the reference in env["file"]."""
    def read_ref(value, what, env):
        if not isinstance(value, str) or not value:
            raise ConfigError(
                f"{what} must be a non-empty string naming a file, got {value!r}")
        try:
            loaded = load(os.path.join(env["dir"], value))
        except (OSError, ValueError) as e:
            raise ConfigError(str(e))
        return read(loaded, what, ChainMap({"file": value}, env))
    read_ref.parts = [(None, read)]
    return read_ref


def _number(text, lo=-_FMAX, cap=_FMAX, whole=False, open_lo=False):
    """Reader of a number in [lo, cap] ((lo, cap] when open_lo), an integral
    one when whole; text says which."""
    def read(value, what, env=None):
        if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (lo < value if open_lo else lo <= value) and value <= cap
                and (not whole or value == int(value))):
            raise ConfigError(f"{what} must be {text}, got {value!r}")
        return int(value) if whole else float(value)
    read.integer, read.capped = whole, cap < _FMAX
    return read


def _whole(lo=1, cap=_FMAX):
    return _number(f"an integer >= {lo}" if cap == _FMAX else
                   f"an integer in [{lo}, {cap}]", lo, cap, whole=True)


_WHOLE, _SEED, _COUNT, _DIM = _whole(), _whole(0), _whole(1, MAX_SAMPLES), _whole(1, MAX_N)
_FINITE = _number("a finite number")
_LENGTH = _number(f"a number in (0, {MAX_LENGTH:g}]", 0, MAX_LENGTH, open_lo=True)
_STR = _one_of("a string", (str, lambda value, what, env: value))
_BOOL = _one_of("true or false", (bool, lambda value, what, env: value))


def _complex(value, what, env):
    """A complex number: a number or an "a+bi" string."""
    try:
        return fileio.parse_complex(value)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"bad {what}: {e}")


def _point(value, what, env):
    """A point of C^n: a list of n complex numbers with finite parts."""
    pt = np.array(_list(_complex)(value, what, env), dtype=complex)
    if len(pt) != env["n"] or not np.isfinite(pt).all():
        raise ConfigError(f"{what} must be {env['n']} finite complex numbers, "
                          f"got {value!r}")
    return pt


def _zeros(env):
    return np.zeros(env["n"], dtype=complex)


def _expr(value, what, env):
    try:
        return ex.parse(_STR(value, what, env), env["n"])
    except ValueError as e:     # a ParseError, or a constant that overflows
        raise ConfigError(f"bad expression {value!r}: {e}")


def _run_seed(value, what, env):
    """The --seed override when given, else the config's seed."""
    return _SEED(value if env["--seed"] is None else env["--seed"], what)


def _form_degree(shift):
    """Reader of a degree q whose residual, of degree q + shift in C^n, has
    at most MAX_FORM coefficients per point."""
    def read(value, what, env):
        q, n = _WHOLE(value, what), env["n"]
        width = forms.form_width(n, q + shift) if q + shift <= n else 0
        if width > MAX_FORM:
            raise ConfigError(f"{what}: the degree-{q + shift} residual in C^{n} "
                              f"has {width} coefficients per point, above {MAX_FORM}")
        return q
    read.integer = read.capped = True
    return read


def _matrix(value, what, env):
    """A Hermitian matrix: a square list of rows of complex numbers."""
    rows = _list(_list(_complex))(value, what, env)
    try:   # LeviMatrix checks the shape; numpy rejects ragged rows
        return levi.LeviMatrix(np.array(rows, dtype=complex))
    except ValueError as e:
        raise ConfigError(f"bad matrix: {e}")


def _csv_points(pts, what, env):
    if pts.shape[1] != env["n"]:
        raise ConfigError(f"{env['file']}: points have {pts.shape[1]} "
                          f"coordinates, expected {env['n']}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ConfigError(f"{env['file']}: data line {bad[0] + 1} has a "
                          f"non-finite coordinate")
    return pts


def _basener_members(spec, env):
    """The builtin singular family: (expr, q, None, avoid) per weight."""
    n, p = env["n"], spec["p"]
    _form_degree(0)(n, "basener family", env)     # certified at q = n
    if spec["lambda"] is not None:
        lams = [hull.Lambda(spec["lambda"])]
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence([spec["seed"], 0x62617365]))
        lams = hull.random_lambdas(n, spec["lambda_count"], rng)
    return [(hull.basener_expr(lam, p, n), n, None, p) for lam in lams]


def _fixed_axes(value, what, env):
    """Grid axes held at one finite value: re1, im1, ..., imN -> number."""
    return _obj({f"{part}{k + 1}": (_FINITE, None) for k in range(env["n"])
                 for part in ("re", "im")})(value, what, env)


def _grid_candidates(grid, env):
    """Grid points Z (m, n), axes re1, im1, ..., imN, and Z's (2n, m) index on them."""
    n, per, hw = env["n"], grid["per_axis"], grid["halfwidth"]
    fixed = list(grid["fixed_axes"].values())   # re1, im1, ..., imN
    dims = [per if v is None else 1 for v in fixed]
    total = math.prod(dims)
    if total > MAX_GRID:
        raise ConfigError(f"grid has {total} points; fix more axes")
    bases = [float(part) for c in grid["center"] for part in (c.real, c.imag)]
    if any(v is None and math.isinf(abs(b) + hw) for v, b in zip(fixed, bases)):
        raise ConfigError("grid axes overflow: center +- halfwidth is not finite")
    axes = [np.linspace(b - hw, b + hw, per) if v is None else np.array([v])
            for v, b in zip(fixed, bases)]
    # Coordinate k is re + 1j * im on axes 2k, 2k + 1 alone (a meshgrid's
    # zero signs), broadcast over the row-major grid.  On finite axes its
    # parts equal (==) the axis values.
    Z = np.empty(dims + [n], dtype=complex)
    for k in range(n):
        Z[..., k] = (axes[2 * k][:, None] + 1j * axes[2 * k + 1]).reshape(
            dims[2 * k:2 * k + 2] + [1] * (2 * n - 2 * k - 2))
    idx = np.indices(dims, dtype=np.min_scalar_type(per - 1)).reshape(2 * n, total)
    return Z.reshape(total, n), axes, idx


def _same_n(value, what, env):
    if _DIM(value, what) != env["n"]:
        raise ConfigError(f"{what} must be the config's n = {env['n']}, got {value!r}")
    return env["n"]


def _one_function(value, what, env):
    """qholo's function as (expr, name); its avoided center goes to env for
    the random points after it."""
    members = _FUNCTION(value, what, env)
    if len(members) != 1:
        raise ConfigError("qholo takes a single function; use lambda_count 1")
    f, _, name, env["avoid"] = members[0]
    return f, "basener[0]" if name is None else name


def _domain(value, what, env):
    """The peak domain; the keys after it are read in its dimension."""
    dom = _DOMAIN(value, what, env)
    env["n"] = dom.n
    return dom


_run_seed.integer = _same_n.integer = _same_n.capped = True


# ---------------------------------------------------------------- shapes

_RUN_SEED = (_run_seed, 0)
_CSV = _only("file", _file(_csv_points, fileio.read_points_csv))
_POINTS = _one_of(
    "a list of points, {'file': csv} or {'random': {...}}",
    (list, _list(_point, build=np.array)), (_has("file"), _CSV),
    (_has("random"), _only("random", _obj({
        "count": (_COUNT, 100), "seed": (_SEED, 0), "halfwidth": (_LENGTH, 2.0),
        "avoid_radius": (_number(f"a number in [0, {MAX_LENGTH:g}]", 0, MAX_LENGTH), 0.3),
        "center": (_point, None),
    }, lambda s, env: hull.certification_points(
        env["n"], s["seed"], count=s["count"], halfwidth=s["halfwidth"],
        center=s["center"], avoid=env.get("avoid"), avoid_radius=s["avoid_radius"])))))
_K = _one_of(
    "{'file': csv} or {'sphere': {...}}", (_has("file"), _CSV),
    (_has("sphere"), _only("sphere", _obj({
        "p": (_point, _zeros), "r": _LENGTH, "count": (_COUNT, 100), "seed": (_SEED, 0),
    }, lambda s, env: hull.sample_sphere(env["n"], s["p"], s["r"], s["count"],
                                         s["seed"])))))
_CANDIDATES = _only("grid", _obj({
    "center": (_point, _zeros), "halfwidth": _LENGTH,
    "per_axis": _whole(cap=MAX_GRID), "fixed_axes": (_fixed_axes, {}),
}, _grid_candidates))
_BASENER = (_has("builtin", "basener"), _obj({
    "builtin": _STR, "p": (_point, _zeros), "lambda": (_point, None),
    "lambda_count": (_COUNT, 1),
    "seed": (_SEED, lambda env: env["seed"]),     # default: the run seed
}, _basener_members))
_FUNCTION = _one_of(
    "an expression or {'builtin': 'basener', ...}",
    (str, lambda value, what, env: [(f, None, ex.to_text(f), None)
                                    for f in [_expr(value, what, env)]]),
    _BASENER)
_DOMAIN_TEXT = "a JSON file name or an object with model 'ball', 'ellipsoid' or none"
_DOMAIN_MODELS = (
    (_has("model", "ball"), _obj({
        "model": _STR, "n": _DIM, "center": (_point, None), "radius": (_LENGTH, 1.0),
    }, lambda d, env: peak.ModelDomain.ball(d["n"], radius=d["radius"],
                                            center=d["center"]))),
    (_has("model", "ellipsoid"), _obj({
        "model": _STR, "a": _list(_LENGTH, cap=MAX_N),
        "b": (_list(_FINITE), lambda env: (0.0,) * len(env["a"])),
    }, lambda d, env: peak.ModelDomain.ellipsoid(d["a"], d["b"]))),
    (_has("model", None), _obj({
        "n": _DIM, "defining": _expr, "box": _LENGTH, "name": (_STR, "custom"),
        "convex_certified": (_BOOL, False),
    }, lambda d, env: peak.ModelDomain.from_expr(
        d["n"], d["defining"], d["box"], name=d["name"],
        convex_certified=d["convex_certified"]))))
_DOMAIN = _one_of(_DOMAIN_TEXT, (str, _file(_one_of(_DOMAIN_TEXT, *_DOMAIN_MODELS))),
                  *_DOMAIN_MODELS)
_one_function.parts, _domain.parts = [(None, _FUNCTION)], [(None, _DOMAIN)]

_SHAPES = {
    "levi": _one_of(
        "an object with 'matrix' or 'function'",
        (_has("matrix"), _obj({
            "matrix": _matrix,
            "ztol": (_FINITE, lambda env: levi.default_ztol(env["matrix"])),
            "expect": (_obj({"signature": (_list(_whole(0)), None)}), {}),
        })),
        (_has("function"), _obj({
            "n": _DIM, "function": _expr, "points": _POINTS, "ztol": (_FINITE, None),
            "expect": (_obj({"q": (_WHOLE, None), "q_max": (_WHOLE, None)}), {}),
        }))),
    "classify": _obj({
        "n": _DIM, "name": (_STR, "domain"), "defining": _expr,
        "boundary_samples": _COUNT, "seed": _RUN_SEED, "box": (_LENGTH, 2.0),
        "ztol": (_FINITE, None), "expect": (_obj({
            "strict_q": (_WHOLE, None), "strict_q_max": (_WHOLE, None)}), {}),
    }),
    "qholo": _obj({
        "n": _DIM, "q": _form_degree(0), "seed": _RUN_SEED,
        "function": _one_function, "points": _POINTS, "threshold": (_FINITE, 1e-8),
    }),
    "hull": _obj({
        "n": _DIM, "seed": _RUN_SEED,
        "family": _list(_one_of(
            "a function file name or {'builtin': 'basener', ...}",
            (str, _file(_obj({
                "n": (_same_n, lambda env: env["n"]), "expr": _expr,
                "q": _form_degree(0),
                "name": (_STR, lambda env: os.path.basename(env["file"])),
                "avoid": (_point, None),
            }, lambda f, env: [(f["expr"], f["q"], f["name"], f["avoid"])]))),
            _BASENER), lo=1),
        "K": _K, "candidates": _CANDIDATES, "fam": (_FINITE, 1e-8),
    }),
    "thm2": _one_of(
        "{'single': {...}} or {'batch': {...}}",
        (_has("single"), _obj({"single": _obj({
            "n": _DIM, "p": _point, "r": _LENGTH, "K": _K,
            "z": _one_of(
                "{'file': csv} or {'count': ..., 'seed': ...}", (_has("file"), _CSV),
                (dict, _obj({"count": (_COUNT, 50), "seed": (_SEED, 0)},
                            lambda z, env: hull.sample_ball(
                                env["n"], env["p"], hull._inner_radius(env["r"], env["n"]),
                                z["count"], z["seed"])))),
        })})),
        (dict, _obj({"seed": _RUN_SEED, "batch": (_obj({
            "configs": (_COUNT, 1000), "seed": (_run_seed, lambda env: env["seed"]),
            "ns": (_list(_DIM), [2, 3, 4]), "k_count": (_COUNT, 200),
            "z_count": (_COUNT, 50),
            # run_theorem2_batch checks for a pair with lo <= hi
            "r_range": (_list(_LENGTH), [0.1, 2.0]),
        }), {})}))),
    "peak": _obj({
        "domain": _domain, "p": _point, "q": _form_degree(1), "c": (_LENGTH, 1.0),
        "rho_V": (_LENGTH, 0.5),
        "r": (_one_of("'auto' or a length", (lambda v: v == "auto", _STR),
                      (object, _LENGTH)), "auto"),
        "samples": (_obj({"boundary": (_COUNT, 200), "interior": (_COUNT, 200),
                          "tube": (_COUNT, 500)}), {}),
        "seed": _RUN_SEED, "residual_tol": (_FINITE, 1e-5),
        "margin_min": (_FINITE, 1e-3), "peak_tol": (_FINITE, 1e-12),
    }),
}


def _tol_overrides(pairs, allowed):
    """The --tol NAME=VALUE pairs: a known NAME and a finite number."""
    out = {}
    for item in pairs:
        name, _, value = item.partition("=")
        if name not in allowed:
            raise ConfigError(f"--tol expects NAME=VALUE, NAME one of "
                              f"{sorted(allowed)}; got {item!r}")
        try:
            out[name] = _FINITE(float(value), f"--tol {name}")
        except ValueError:
            raise ConfigError(f"--tol {name}: not a number: {value!r}")
    return out


def _jnums(values):
    """JSON-safe numbers, as a list: infinities and NaN become strings,
    -0.0 becomes 0.0."""
    x = np.asarray(values, dtype=float).ravel() + 0.0
    out = x.tolist()
    for i in np.flatnonzero(~np.isfinite(x)).tolist():
        out[i] = "nan" if out[i] != out[i] else "inf" if out[i] > 0 else "-inf"
    return out


def _jnum(x):
    return _jnums(x)[0]


def _signature_columns(sig):
    """The report's signature object (Records columns for a stack)."""
    return {"pos": sig.n_pos, "neg": sig.n_neg, "zero": sig.n_zero}


def _q_column(q, n):
    """A q per row as the report writes it: "none" where q == n."""
    return np.where(q == n, "none", q.astype(object))


# ---------------------------------------------------------------- levi

def cmd_levi(cfg, out_dir):
    """Signature of an explicit Hermitian matrix, or q-convexity
    classification of a function over sampled points."""
    failures, expect = [], cfg["expect"]
    if "matrix" in cfg:
        h, ztol, want = cfg["matrix"], cfg["ztol"], expect["signature"]
        try:
            sig = levi.eig_signature(h, ztol)
        except ValueError as e:
            raise ConfigError(str(e))
        report = {"mode": "matrix", "m": h.m, "herm_deviation": _jnum(h.herm_dev),
                  "ztol": _jnum(ztol), "signature": _signature_columns(sig)}
        if want is not None and sig.as_tuple() != want:
            failures.append(f"signature {sig.as_tuple()} != expected {want}")
    else:
        f, pts = cfg["function"], cfg["points"]
        try:
            cls = levi.classify_function(f, pts, ztol=cfg["ztol"])
        except (ValueError, ex.EvalError) as e:
            raise ConfigError(str(e))
        report = {"mode": "function", "n": cfg["n"], "function": ex.to_text(f),
                  "points": fileio.Records({
                      "point": tuple(pts.T),
                      "signature": _signature_columns(cls.signatures),
                      "q": cls.per_point_q}),
                  "overall_q": cls.overall_q, "overall": cls.overall_text}
        if expect["q"] is not None and cls.overall_q != expect["q"]:
            failures.append(f"overall q {cls.overall_q} != expected {expect['q']}")
        if expect["q_max"] is not None and cls.overall_q > expect["q_max"]:
            failures.append(
                f"overall q {cls.overall_q} > allowed maximum {expect['q_max']}")
    report["failures"] = failures
    fileio.dump_json(os.path.join(out_dir, "levi_report.json"), report)
    return 1 if failures else 0


# ---------------------------------------------------------------- classify

def cmd_classify(cfg, out_dir):
    """Boundary classification of a domain model at sampled boundary points."""
    phi, run_seed = cfg["defining"], cfg["seed"]
    try:
        pts = levi.sample_boundary(phi, cfg["boundary_samples"], run_seed,
                                   box=cfg["box"])
    except (ValueError, ex.EvalError, RuntimeError) as e:
        raise ConfigError(str(e))     # the sampler names the draw or the stall
    try:
        cls = levi.classify_boundary_point(phi, pts, ztol=cfg["ztol"])
    except (ValueError, ex.EvalError) as e:
        raise ConfigError(
            f"classification failed at {pts[getattr(e, 'row', 0)]}: {e}")
    n, strict, failures = cls.n, cls.strict_q, []
    want, cap = cfg["expect"]["strict_q"], cfg["expect"]["strict_q_max"]
    none = strict == n      # no strict q: a failure of both checks
    if want is not None:
        bad = np.count_nonzero(none | (strict != want))
        if bad:
            failures.append(f"{bad}/{len(strict)} points have strict q != {want}")
    if cap is not None:
        bad = np.count_nonzero(none | (strict > cap))
        if bad:
            failures.append(f"{bad}/{len(strict)} points exceed strict q {cap}")
    report = {"mode": "boundary", "name": cfg["name"], "n": n,
              "defining": ex.to_text(phi), "seed": run_seed, "failures": failures,
              "points": fileio.Records({
                  "point": tuple(pts.T), "gradient": tuple(cls.gradient.T),
                  "signature": _signature_columns(cls.restricted),
                  "strict_q": _q_column(strict, n),
                  "weak_q": _q_column(cls.weak_q, n)})}
    fileio.dump_json(os.path.join(out_dir, "classify_report.json"), report)
    return 1 if failures else 0


# ---------------------------------------------------------------- qholo

def cmd_qholo(cfg, out_dir):
    """Pointwise q-holomorphicity residual sweep against a threshold."""
    (f, name), threshold = cfg["function"], cfg["threshold"]
    try:
        residuals = np.asarray(
            forms.q_holo_residuals(f, cfg["points"], cfg["q"]), dtype=float)
    except ValueError as e:     # EvalError, or an empty point set
        raise ConfigError(f"evaluation failed: {e}")
    fails, worst = ex._verdict(residuals, threshold, np.less_equal)
    report = {"n": cfg["n"], "q": cfg["q"], "function": name,
              "points": len(residuals), "threshold": _jnum(threshold),
              "max_residual": _jnum(worst), "residuals": _jnums(residuals),
              "passed": not fails}
    fileio.dump_json(os.path.join(out_dir, "qholo_report.json"), report)
    return 1 if fails else 0


# ---------------------------------------------------------------- hull

def _key(x):
    """Coordinates rounded to 12 decimals, kept where scaling by 1e12 overflows."""
    with np.errstate(over="ignore"):
        r = np.round(x, 12)
    return np.where(np.isinf(r), x, r)


def cmd_hull(cfg, out_dir):
    """Outer hull approximation of K against a certified finite family."""
    n, run_seed, K, (Z, axes, idx) = cfg["n"], cfg["seed"], cfg["K"], cfg["candidates"]
    basener = itertools.count()     # one running index over every entry
    members = [(e, q, f"basener[{next(basener)}]" if name is None else name, avoid)
               for entry in cfg["family"] for e, q, name, avoid in entry]
    try:
        problem = hull.build_problem(n, K, Z, members, run_seed, tol=cfg["fam"])
        result = hull.discrete_hull(problem)
    except (ValueError, OverflowError) as e:    # EvalError; |K| near 1e308
        raise ConfigError(str(e))

    fileio.write_points_csv(
        os.path.join(out_dir, "hull_points.csv"), fileio._Column((axes, idx)),
        extra=[("member", fileio._Column((np.arange(2), result.members.view(np.uint8)))),
               ("margin", result.margins)])

    # K points that appear among the candidates must be flagged members.
    # A prefilter, a binary search of each sorted K column for its axis's
    # values gathered to the rows, keeps the exact row check to the few
    # candidates that can match; rounding and == treat -0.0 as 0.0.
    k_flat = _key(K.view(float).reshape(len(K), -1))
    k_rows = set(map(tuple, k_flat.tolist()))
    hit = np.ones(len(Z), dtype=bool)
    for c, (axis, at) in enumerate(zip(axes, idx)):
        keys, zc = np.sort(k_flat[:, c]), _key(axis)
        hit &= (keys[np.minimum(np.searchsorted(keys, zc), len(keys) - 1)] == zc)[at]
    hits = np.flatnonzero(hit)
    k_in_z_ok = all(result.members[i] for i, row in zip(
        hits.tolist(), _key(Z[hits].view(float)).tolist()) if tuple(row) in k_rows)
    excluded = result.margins[~result.members & ~result.singular]
    members = int(np.count_nonzero(result.members))
    summary = {
        "n": n, "label": "outer hull approximation", "seed": run_seed,
        "candidates": len(Z), "k_points": len(K), "members": members,
        "excluded": len(Z) - members,
        "singular": int(np.count_nonzero(result.singular)),
        "min_margin_excluded": _jnum(excluded.min()) if excluded.size else None,
        "k_in_z_all_member": bool(k_in_z_ok),
        "family": [{"name": m.name, "q": m.q,
                    "residual_bound": _jnum(m.residual_bound), "k_max": _jnum(k)}
                   for m, k in zip(problem.family, result.k_maxima)],
    }
    fileio.dump_json(os.path.join(out_dir, "hull_summary.json"), summary)
    return 0 if k_in_z_ok else 1


# ---------------------------------------------------------------- thm2

def cmd_thm2(cfg, out_dir):
    """Separation experiment: randomized batch or one explicit configuration."""
    single = "single" in cfg
    try:
        if single:
            s = cfg["single"]
            rep = hull.theorem2_experiment(s["n"], s["p"], s["r"], s["K"], s["z"])
        else:
            b = cfg["batch"]
            rep = hull.run_theorem2_batch(
                configs=b["configs"], seed=b["seed"], ns=b["ns"],
                k_count=b["k_count"], z_count=b["z_count"], r_range=b["r_range"])
    except ValueError as e:
        raise ConfigError(str(e))
    report = {"violations": rep.violations, "min_margin": _jnum(rep.min_margin)}
    if single:
        report.update(mode="single", n=s["n"], p=fileio.point_to_strings(s["p"]),
                      r=_jnum(s["r"]), z_count=rep.z_count, k_count=rep.k_count,
                      link_slacks=_jnums(rep.link_slacks),
                      monotonicity_err=_jnum(rep.monotonicity_err))
    else:
        report.update(mode="batch", seed=b["seed"], configs=rep.configs,
                      min_link_slacks=_jnums(rep.min_link_slacks),
                      max_monotonicity_err=_jnum(rep.max_monotonicity_err))
    fileio.dump_json(os.path.join(out_dir, "thm2_report.json"), report)
    return 0 if rep.violations == 0 else 1


# ---------------------------------------------------------------- peak

def cmd_peak(cfg, out_dir):
    """Assemble and verify the almost-peak extension at a boundary point."""
    dom, p, q, c, rho_v = (cfg[k] for k in ("domain", "p", "q", "c", "rho_V"))
    run_seed, samples = cfg["seed"], cfg["samples"]
    report = {"domain": {"name": dom.name, "n": dom.n},
              "p": fileio.point_to_strings(p), "q": q, "c": _jnum(c),
              "rho_V": _jnum(rho_v), "seed": run_seed}
    path = os.path.join(out_dir, "peak_report.json")
    try:
        cons, f = peak.assemble_peak(dom, p, q, c=c, rho_V=rho_v, r=cfg["r"],
                                     seed=run_seed, tube_samples=samples["tube"])
        rep = peak.verify_peak(
            f, dom, p, q, rho_V=rho_v, boundary_samples=samples["boundary"],
            interior_samples=samples["interior"],
            residual_points=samples["interior"], seed=run_seed,
            residual_tol=cfg["residual_tol"], margin_min=cfg["margin_min"],
            peak_tol=cfg["peak_tol"])
    except peak.TubeError as e:
        fileio.dump_json(path, dict(report, assembled=False, error=str(e)))
        return 1
    except (ValueError, RuntimeError) as e:    # EvalError, stalled sampling
        raise ConfigError(str(e))

    checks = {
        "peak_value": {"err": _jnum(rep.peak_value_err), "tol": _jnum(rep.peak_tol)},
        "sup_outside": {"sup": _jnum(rep.sup_outside),
                        "margin": _jnum(rep.sup_margin),
                        "min_margin": _jnum(rep.margin_min)},
        "residual": {"max": _jnum(rep.max_residual),
                     "points": rep.residual_points, "tol": _jnum(rep.residual_tol)},
        "vanish": {"max": _jnum(rep.vanish_max), "points": rep.vanish_points},
    }
    for name, check in checks.items():
        check["ok"] = name not in rep.failed
    report.update(assembled=True, passed=not rep.failed, parameters={
        "r": _jnum(cons.r), "rho_W": _jnum(cons.rho_W),
        "r_halvings": cons.r_halvings, "w_steps": cons.w_steps,
        "tube_min_phi": _jnum(cons.tube_min_phi),
        "cap_max_dist": _jnum(cons.cap_max_dist),
    }, checks=checks)
    fileio.dump_json(path, report)
    return 1 if rep.failed else 0


# ---------------------------------------------------------------- driver

_COMMANDS = {     # name: (handler, --tol names, help)
    "levi": (cmd_levi, {"ztol"},
             "signature of a Hermitian matrix or q-convexity of a function"),
    "classify": (cmd_classify, {"ztol"},
                 "boundary-point classification of a domain model"),
    "qholo": (cmd_qholo, {"threshold"},
              "q-holomorphicity residual sweep against a threshold"),
    "hull": (cmd_hull, {"fam"},
             "discrete outer hull approximation against a certified family"),
    "thm2": (cmd_thm2, set(),
             "hull separation experiment (single or randomized batch)"),
    "peak": (cmd_peak, {"residual_tol", "margin_min", "peak_tol"},
             "peak-extension assembly and verification on a model domain"),
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process (building takes ms)."""
    parser = argparse.ArgumentParser(
        prog="qholo",
        description="Levi forms, q-holomorphicity, hulls, and peak extensions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", required=True, help="path to JSON config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE", help="tolerance override")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads (evaluation is sequential)")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, allowed, _ = _COMMANDS[args.command]
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        tols = _tol_overrides(args.tol, allowed)
        env = {"dir": os.path.dirname(os.path.abspath(args.config)),
               "--seed": args.seed}
        cfg = _SHAPES[args.command](_load_config(args.config), "", env)
        cfg.update(tols)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:    # --out names a file, or a path below one
            raise ConfigError(f"cannot make the --out directory: {e}")
        return handler(cfg, args.out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
