"""Command-line surface: config loading, subcommand dispatch, report emission.

Subcommands: levi | classify | qholo | hull | thm2 | peak.  Every run reads
one JSON config, writes its artifacts into --out, and exits with 0 (success),
1 (a requested property or threshold failed; artifacts are still written), or
2 (input/config error; nothing is written).  With a fixed seed, reruns emit
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

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
    except FileNotFoundError:
        raise ConfigError(f"config not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e.msg} at line "
                          f"{e.lineno} column {e.colno} (char {e.pos})")


def _resolve(path, base_dir):
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _require(cfg, key, where="config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return cfg[key]


# Resource caps: on every sampled count a config gives (thm2's batch configs
# included), and on the points of a hull grid.
MAX_SAMPLES = 100_000
MAX_GRID = 2_000_000


# Bound on config lengths and scales (box, halfwidths, radii, peak c), so twice
# one stays finite.
MAX_LENGTH = 1e300


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _whole(value, what, lo=1, cap=math.inf):
    """A whole number in [lo, cap] from the config; anything else is a
    ConfigError."""
    if (not _is_number(value) or not lo <= value < math.inf
            or value != int(value)):
        raise ConfigError(f"{what} must be an integer >= {lo}, got {value!r}")
    if value > cap:
        raise ConfigError(f"{what} must be at most {cap}, got {value!r}")
    return int(value)


def _each(read, values, what, **limits):
    """read(entry, what, **limits) of each entry of a config list, as a tuple."""
    if not isinstance(values, list):
        raise ConfigError(f"{what} must be a list, got {values!r}")
    return tuple(read(v, f"{what} entry", **limits) for v in values)


def _seed(value, what="seed"):
    return _whole(value, what, lo=0)


def _run_seed(override, cfg):
    """The --seed override, else the config's seed (default 0)."""
    return _seed(cfg.get("seed", 0) if override is None else override)


def _finite(value, what):
    """A finite number from the config."""
    if not _is_number(value) or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _length(value, what, zero_ok=False):
    """A length or scale from the config: a number in (0, MAX_LENGTH], or in
    [0, MAX_LENGTH] when zero_ok."""
    if (not _is_number(value) or not value <= MAX_LENGTH
            or not (value >= 0 if zero_ok else value > 0)):
        low = "[0" if zero_ok else "(0"
        raise ConfigError(
            f"{what} must be a number in {low}, {MAX_LENGTH:g}], got {value!r}")
    return float(value)


def _name(spec, default, where):
    """The optional string "name" of a config object."""
    name = spec.get("name", default)
    if not isinstance(name, str):
        raise ConfigError(f"{where} name must be a string, got {name!r}")
    return name


def _parse_expr(text, n):
    try:
        return ex.parse(text, n)
    except ValueError as e:     # a ParseError, or a constant that overflows
        raise ConfigError(f"bad expression {text!r}: {e}")


def _parse_point(entries, n, what="point"):
    try:
        return fileio.parse_point(entries, n)
    except ValueError as e:
        raise ConfigError(f"bad {what}: {e}")


def _tol_overrides(pairs, allowed):
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        if name not in allowed:
            raise ConfigError(
                f"unknown tolerance {name!r}; expected one of {sorted(allowed)}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError(f"--tol {name}: not a number: {value!r}")
        if not math.isfinite(out[name]):
            raise ConfigError(f"--tol {name}: not finite: {value!r}")
    return out


def _tol(name, overrides, cfg, default):
    """The --tol override, else the config's finite number, else default."""
    if name in overrides:
        return overrides[name]
    return _finite(cfg[name], name) if name in cfg else default


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


def _random_points(n, spec, avoid=None):
    count = _whole(spec.get("count", 100), "random.count", cap=MAX_SAMPLES)
    seed = _seed(spec.get("seed", 0), "random.seed")
    halfwidth = _length(spec.get("halfwidth", 2.0), "random.halfwidth")
    radius = _length(spec.get("avoid_radius", 0.3), "random.avoid_radius",
                     zero_ok=True)
    center = _parse_point(spec["center"], n) if "center" in spec else None
    try:
        return hull.certification_points(
            n, seed, count=count, halfwidth=halfwidth, center=center,
            avoid=avoid, avoid_radius=radius)
    except RuntimeError as e:
        raise ConfigError(f"random points: {e}")


def _load_points(cfg_points, n, base_dir, avoid=None):
    """Point sources: inline list, {"file": csv}, or {"random": {...}}."""
    if isinstance(cfg_points, list):
        return np.array([_parse_point(row, n) for row in cfg_points])
    if isinstance(cfg_points, dict):
        if "file" in cfg_points:
            path = _resolve(cfg_points["file"], base_dir)
            try:
                pts = fileio.read_points_csv(path)
            except (OSError, ValueError) as e:
                raise ConfigError(str(e))
            if pts.shape[1] != n:
                raise ConfigError(
                    f"{path}: points have {pts.shape[1]} coordinates, expected {n}")
            return pts
        if "random" in cfg_points:
            return _random_points(n, cfg_points["random"], avoid=avoid)
    raise ConfigError("points must be a list, {'file': csv}, or {'random': {...}}")


def _signature_columns(sigs):
    """The report's signature object of each of sigs, as Records columns."""
    return {"pos": [s.n_pos for s in sigs], "neg": [s.n_neg for s in sigs],
            "zero": [s.n_zero for s in sigs]}


# ---------------------------------------------------------------- levi

def cmd_levi(cfg, out_dir, seed, tols):
    """Signature of an explicit Hermitian matrix, or q-convexity
    classification of a function over sampled points."""
    report = {}
    failures = []
    if "matrix" in cfg:
        rows = cfg["matrix"]
        try:
            mat = np.array([[fileio.parse_complex(v) for v in row]
                            for row in rows], dtype=complex)
        except ValueError as e:
            raise ConfigError(f"bad matrix entry: {e}")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError(f"matrix must be square, got shape {mat.shape}")
        try:
            h = levi.LeviMatrix(mat)
        except ValueError as e:
            raise ConfigError(f"bad matrix: {e}")
        ztol = _tol("ztol", tols, cfg, levi.default_ztol(h))
        try:
            sig = levi.eig_signature(h, ztol)
        except ValueError as e:
            raise ConfigError(str(e))
        report = {
            "mode": "matrix",
            "m": h.m,
            "herm_deviation": _jnum(h.herm_dev),
            "ztol": _jnum(ztol),
            "signature": {"pos": sig.n_pos, "neg": sig.n_neg, "zero": sig.n_zero},
        }
        expect = cfg.get("expect", {})
        if "signature" in expect:
            want = _each(_whole, expect["signature"], "expect.signature", lo=0)
            if sig.as_tuple() != want:
                failures.append(
                    f"signature {sig.as_tuple()} != expected {want}")
    elif "function" in cfg:
        n = _whole(_require(cfg, "n"), "n")
        f = _parse_expr(cfg["function"], n)
        pts = _load_points(_require(cfg, "points"), n, cfg["_dir"])
        ztol = _tol("ztol", tols, cfg, None)
        try:
            cls = levi.classify_function(f, pts, ztol=ztol)
        except (ValueError, ex.EvalError) as e:
            raise ConfigError(str(e))
        report = {
            "mode": "function",
            "n": n,
            "function": ex.to_text(f),
            "points": fileio.Records({
                "point": tuple(pts.T),
                "signature": _signature_columns(cls.signatures),
                "q": list(cls.per_point_q),
            }),
            "overall_q": cls.overall_q,
            "overall": cls.overall_text,
        }
        expect = cfg.get("expect", {})
        if "q" in expect and cls.overall_q != _whole(expect["q"], "expect.q"):
            failures.append(f"overall q {cls.overall_q} != expected {expect['q']}")
        if "q_max" in expect and cls.overall_q > _whole(expect["q_max"],
                                                        "expect.q_max"):
            failures.append(
                f"overall q {cls.overall_q} > allowed maximum {expect['q_max']}")
    else:
        raise ConfigError("levi config needs either 'matrix' or 'function'")
    report["failures"] = failures
    fileio.dump_json(os.path.join(out_dir, "levi_report.json"), report)
    return 1 if failures else 0


# ---------------------------------------------------------------- classify

def cmd_classify(cfg, out_dir, seed, tols):
    """Boundary classification of a domain model at sampled boundary points."""
    n = _whole(_require(cfg, "n"), "n")
    name = _name(cfg, "domain", "classify")
    phi = _parse_expr(_require(cfg, "defining"), n)
    count = _whole(_require(cfg, "boundary_samples"), "boundary_samples",
                   cap=MAX_SAMPLES)
    run_seed = _run_seed(seed, cfg)
    box = _length(cfg.get("box", 2.0), "box")
    ztol = _tol("ztol", tols, cfg, None)
    try:
        pts = levi.sample_boundary(phi, count, run_seed, box=box)
    except (ValueError, ex.EvalError, RuntimeError) as e:
        raise ConfigError(f"boundary sampling failed: {e}")
    try:
        classes = levi.classify_boundary_point(phi, pts, ztol=ztol)
    except (ValueError, ex.EvalError) as e:
        raise ConfigError(
            f"classification failed at {pts[getattr(e, 'row', 0)]}: {e}")
    strict_qs = [c.strict_q for c in classes]
    entries = fileio.Records({
        "point": tuple(pts.T),
        "gradient": tuple(np.array([c.gradient for c in classes]).T),
        "signature": _signature_columns([c.restricted for c in classes]),
        "strict_q": ["none" if q is None else q for q in strict_qs],
        "weak_q": ["none" if c.weak_q is None else c.weak_q for c in classes],
    })
    failures = []
    expect = cfg.get("expect", {})
    if "strict_q" in expect:
        want = _whole(expect["strict_q"], "expect.strict_q")
        bad = sum(1 for q in strict_qs if q != want)
        if bad:
            failures.append(f"{bad}/{len(strict_qs)} points have strict q != {want}")
    if "strict_q_max" in expect:
        cap = _whole(expect["strict_q_max"], "expect.strict_q_max")
        bad = sum(1 for q in strict_qs if q is None or q > cap)
        if bad:
            failures.append(f"{bad}/{len(strict_qs)} points exceed strict q {cap}")
    report = {
        "mode": "boundary",
        "name": name,
        "n": n,
        "defining": ex.to_text(phi),
        "seed": run_seed,
        "points": entries,
        "failures": failures,
    }
    fileio.dump_json(os.path.join(out_dir, "classify_report.json"), report)
    return 1 if failures else 0


# ---------------------------------------------------------------- qholo

def _family_from_config(entry, n, base_dir, default_seed):
    """One family source: a function-file ref or the builtin singular family.

    Returns a list of (expr, q, name, avoid) tuples.
    """
    if isinstance(entry, str):
        spec = _load_config(_resolve(entry, base_dir))
        if "n" in spec and _whole(spec["n"], f"{entry}: n") != n:
            raise ConfigError(
                f"{entry}: function file has n={spec['n']}, config has n={n}")
        e = _parse_expr(_require(spec, "expr", entry), n)
        q = _whole(_require(spec, "q", entry), f"{entry}: q")
        name = _name(spec, os.path.basename(entry), entry)
        avoid = _parse_point(spec["avoid"], n) if "avoid" in spec else None
        return [(e, q, name, avoid)]
    if isinstance(entry, dict) and entry.get("builtin") == "basener":
        p = _parse_point(entry.get("p", [0.0] * n), n)
        count = _whole(entry.get("lambda_count", 1), "lambda_count",
                       cap=MAX_SAMPLES)
        fseed = _seed(entry.get("seed", default_seed), "family seed")
        if "lambda" in entry:
            try:
                lams = [hull.Lambda(_parse_point(entry["lambda"], n))]
            except ValueError as e:
                raise ConfigError(f"bad lambda: {e}")
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([fseed, 0x62617365]))
            lams = hull.random_lambdas(n, count, rng)
        out = []
        for i, lam in enumerate(lams):
            out.append((hull.basener_expr(lam, p, n), n,
                        f"basener[{i}]", p))
        return out
    raise ConfigError(f"bad family entry: {entry!r}")


def cmd_qholo(cfg, out_dir, seed, tols):
    """Pointwise q-holomorphicity residual sweep against a threshold."""
    n = _whole(_require(cfg, "n"), "n")
    q = _whole(_require(cfg, "q"), "q")
    run_seed = _run_seed(seed, cfg)
    spec = _require(cfg, "function")
    avoid = None
    if isinstance(spec, str):
        f = _parse_expr(spec, n)
        name = ex.to_text(f)
    else:
        entries = _family_from_config(spec, n, cfg["_dir"], run_seed)
        if len(entries) != 1:
            raise ConfigError("qholo takes a single function; use lambda_count 1")
        f, _, name, avoid = entries[0]
    pts = _load_points(_require(cfg, "points"), n, cfg["_dir"], avoid=avoid)
    threshold = _tol("threshold", tols, cfg, 1e-8)
    try:
        residuals = np.asarray(forms.q_holo_residuals(f, pts, q), dtype=float)
    except ValueError as e:     # EvalError, or an empty point set
        raise ConfigError(f"evaluation failed: {e}")
    worst = max(residuals.tolist())
    report = {
        "n": n,
        "q": q,
        "function": name,
        "points": len(residuals),
        "threshold": _jnum(threshold),
        "max_residual": _jnum(worst),
        "residuals": _jnums(residuals),
        "passed": bool(worst <= threshold),
    }
    fileio.dump_json(os.path.join(out_dir, "qholo_report.json"), report)
    return 0 if worst <= threshold else 1


# ---------------------------------------------------------------- hull

def _grid_candidates(n, spec):
    g = _require(spec, "grid", "candidates")
    center = _parse_point(g.get("center", [0.0] * n), n, "grid center")
    hw = _length(_require(g, "halfwidth", "grid"), "grid halfwidth")
    per = _whole(_require(g, "per_axis", "grid"), "per_axis", cap=MAX_GRID)
    fixed = g.get("fixed_axes", {})
    if not isinstance(fixed, dict):
        raise ConfigError(f"fixed_axes must be an object, got {fixed!r}")
    known = {f"{part}{k + 1}" for k in range(n) for part in ("re", "im")}
    for key in fixed:
        if key not in known:
            raise ConfigError(f"unknown fixed axis {key!r}")
    axes = []
    for k in range(n):
        for part, base in (("re", center[k].real), ("im", center[k].imag)):
            axis = f"{part}{k + 1}"
            if axis in fixed:
                axes.append(np.array([_finite(fixed[axis], f"fixed axis {axis}")]))
            else:
                axes.append(np.linspace(base - hw, base + hw, per))
    dims = [len(a) for a in axes]
    total = math.prod(dims)
    if total > MAX_GRID:
        raise ConfigError(f"grid has {total} points; fix more axes")
    # Coordinate k is re + 1j * im on axes 2k, 2k + 1 alone (a meshgrid's
    # zero signs), broadcast over the row-major grid.
    Z = np.empty(dims + [n], dtype=complex)
    for k in range(n):
        Z[..., k] = (axes[2 * k][:, None] + 1j * axes[2 * k + 1]).reshape(
            dims[2 * k:2 * k + 2] + [1] * (2 * n - 2 * k - 2))
    return Z.reshape(total, n)


def _load_k_set(spec, n, base_dir):
    if "file" in spec:
        return _load_points(spec, n, base_dir)
    if "sphere" in spec:
        s = spec["sphere"]
        p = _parse_point(s.get("p", [0.0] * n), n, "sphere center")
        r = _length(_require(s, "r", "sphere"), "sphere r")
        return hull.sample_sphere(n, p, r,
                                  _whole(s.get("count", 100), "sphere count",
                                         cap=MAX_SAMPLES),
                                  _seed(s.get("seed", 0), "sphere seed"))
    raise ConfigError("K must be {'file': csv} or {'sphere': {...}}")


def _key(x):
    """Coordinates rounded to 12 decimals, kept where scaling by 1e12 overflows."""
    with np.errstate(over="ignore"):
        r = np.round(x, 12)
    if r.size and (r.max() == np.inf or r.min() == -np.inf):
        r = np.where(np.isinf(r), x, r)
    return r


def cmd_hull(cfg, out_dir, seed, tols):
    """Outer hull approximation of K against a certified finite family."""
    n = _whole(_require(cfg, "n"), "n")
    run_seed = _run_seed(seed, cfg)
    members = []
    for entry in _require(cfg, "family"):
        members.extend(_family_from_config(entry, n, cfg["_dir"], run_seed))
    if not members:
        raise ConfigError("family is empty")
    K = _load_k_set(_require(cfg, "K"), n, cfg["_dir"])
    Z = _grid_candidates(n, _require(cfg, "candidates"))
    fam_tol = _tol("fam", tols, cfg, 1e-8)
    try:
        problem = hull.build_problem(n, K, Z, members, run_seed, tol=fam_tol)
        result = hull.discrete_hull(problem)
    except (ValueError, ex.EvalError) as e:
        raise ConfigError(str(e))

    fileio.write_points_csv(
        os.path.join(out_dir, "hull_points.csv"), Z,
        extra=[("member", result.members.astype(int)),
               ("margin", result.margins)])

    # K points that appear among the candidates must be flagged members.
    # A per-coordinate prefilter keeps the exact row check to the few
    # candidates that can match; rounding and == treat -0.0 as 0.0.  A binary
    # search of the sorted K column needs far less scratch memory than isin.
    k_flat = _key(K.view(float).reshape(len(K), -1))
    k_rows = set(map(tuple, k_flat.tolist()))
    z_flat = Z.view(float).reshape(len(Z), -1)
    hit = np.ones(len(Z), dtype=bool)
    for c in range(z_flat.shape[1]):
        keys = np.sort(k_flat[:, c])
        zc = _key(z_flat[:, c])
        idx = np.searchsorted(keys, zc)
        np.minimum(idx, len(keys) - 1, out=idx)
        hit &= keys[idx] == zc
    hits = np.flatnonzero(hit)
    k_in_z_ok = all(result.members[i] for i, row in zip(
        hits.tolist(), _key(z_flat[hits]).tolist()) if tuple(row) in k_rows)
    excluded = result.margins[~result.members & ~result.singular]
    members = int(np.count_nonzero(result.members))
    summary = {
        "n": n,
        "label": "outer hull approximation",
        "seed": run_seed,
        "candidates": len(Z),
        "k_points": len(K),
        "members": members,
        "excluded": len(Z) - members,
        "singular": int(np.count_nonzero(result.singular)),
        "min_margin_excluded": _jnum(excluded.min()) if excluded.size else None,
        "k_in_z_all_member": bool(k_in_z_ok),
        "family": [{
            "name": m.name,
            "q": m.q,
            "residual_bound": _jnum(m.residual_bound),
            "k_max": _jnum(k),
        } for m, k in zip(problem.family, result.k_maxima)],
    }
    fileio.dump_json(os.path.join(out_dir, "hull_summary.json"), summary)
    return 0 if k_in_z_ok else 1


# ---------------------------------------------------------------- thm2

def cmd_thm2(cfg, out_dir, seed, tols):
    """Separation experiment: randomized batch or one explicit configuration."""
    if "single" in cfg:
        s = cfg["single"]
        n = _whole(_require(s, "n", "single"), "n")
        p = _parse_point(_require(s, "p", "single"), n, "center")
        r = _length(_require(s, "r", "single"), "r")
        K = _load_k_set(_require(s, "K", "single"), n, cfg["_dir"])
        zspec = _require(s, "z", "single")
        if not isinstance(zspec, dict):
            raise ConfigError("z must be {'file': csv} or {'count', 'seed'}")
        try:
            if "file" in zspec:
                Z = _load_points(zspec, n, cfg["_dir"])
            else:
                Z = hull.sample_ball(n, p, r / np.sqrt(n) * (1 - 1e-12),
                                     _whole(zspec.get("count", 50), "z count",
                                            cap=MAX_SAMPLES),
                                     _seed(zspec.get("seed", 0), "z seed"))
            rep = hull.theorem2_experiment(n, p, r, K, Z)
        except ValueError as e:
            raise ConfigError(str(e))
        report = {
            "mode": "single",
            "n": n,
            "p": fileio.point_to_strings(p),
            "r": _jnum(r),
            "z_count": rep.z_count,
            "k_count": rep.k_count,
            "violations": rep.violations,
            "min_margin": _jnum(rep.min_margin),
            "link_slacks": [_jnum(v) for v in rep.link_slacks],
            "monotonicity_err": _jnum(rep.monotonicity_err),
        }
        violations = rep.violations
    else:
        b = cfg.get("batch", {})
        run_seed = _run_seed(seed, b if "seed" in b else cfg)
        try:
            rep = hull.run_theorem2_batch(
                configs=_whole(b.get("configs", 1000), "configs", cap=MAX_SAMPLES),
                seed=run_seed,
                ns=_each(_whole, b.get("ns", [2, 3, 4]), "ns"),
                k_count=_whole(b.get("k_count", 200), "k_count", cap=MAX_SAMPLES),
                z_count=_whole(b.get("z_count", 50), "z_count", cap=MAX_SAMPLES),
                # run_theorem2_batch checks for a pair with lo <= hi
                r_range=_each(_length, b.get("r_range", [0.1, 2.0]), "r_range"))
        except ValueError as e:
            raise ConfigError(str(e))
        report = {
            "mode": "batch",
            "seed": run_seed,
            "configs": rep.configs,
            "violations": rep.violations,
            "min_margin": _jnum(rep.min_margin),
            "min_link_slacks": [_jnum(v) for v in rep.min_link_slacks],
            "max_monotonicity_err": _jnum(rep.max_monotonicity_err),
        }
        violations = rep.violations
    fileio.dump_json(os.path.join(out_dir, "thm2_report.json"), report)
    return 0 if violations == 0 else 1


# ---------------------------------------------------------------- peak

def _load_domain(spec, base_dir):
    if isinstance(spec, str):
        spec = _load_config(_resolve(spec, base_dir))
    if not isinstance(spec, dict):
        raise ConfigError("domain must be an object or a path to a JSON file")
    model = spec.get("model")
    try:
        if model == "ball":
            n = _whole(_require(spec, "n", "domain"), "n")
            center = (_parse_point(spec["center"], n) if "center" in spec
                      else None)
            radius = _length(spec.get("radius", 1.0), "domain radius")
            return peak.ModelDomain.ball(n, radius=radius, center=center)
        if model == "ellipsoid":
            a = _each(_length, _require(spec, "a", "domain"), "domain a")
            b = _each(_finite, spec.get("b", [0.0] * len(a)), "domain b")
            return peak.ModelDomain.ellipsoid(a, b)
        if model is not None:
            raise ConfigError(f"unknown domain model {model!r}")
        n = _whole(_require(spec, "n", "domain"), "n")
        phi = _parse_expr(_require(spec, "defining", "domain"), n)
        return peak.ModelDomain.from_expr(
            n, phi, _length(_require(spec, "box", "domain"), "domain box"),
            name=_name(spec, "custom", "domain"),
            convex_certified=bool(spec.get("convex_certified", False)))
    except (ValueError, OverflowError) as e:    # OverflowError: radius ** 2
        raise ConfigError(f"bad domain: {e}")


def cmd_peak(cfg, out_dir, seed, tols):
    """Assemble and verify the almost-peak extension at a boundary point."""
    dom = _load_domain(_require(cfg, "domain"), cfg["_dir"])
    n = dom.n
    p = _parse_point(_require(cfg, "p"), n, "boundary point")
    q = _whole(_require(cfg, "q"), "q")
    c = _length(cfg.get("c", 1.0), "c")
    rho_v = _length(cfg.get("rho_V", 0.5), "rho_V")
    r = cfg.get("r", "auto")
    r = r if r == "auto" else _length(r, "r")
    samples = cfg.get("samples", {})
    boundary, interior, tube = (
        _whole(samples.get(key, default), f"samples.{key}", cap=MAX_SAMPLES)
        for key, default in (("boundary", 200), ("interior", 200), ("tube", 500)))
    run_seed = _run_seed(seed, cfg)
    tolerances = {"residual_tol": _tol("residual_tol", tols, cfg, 1e-5),
                  "margin_min": _tol("margin_min", tols, cfg, 1e-3),
                  "peak_tol": _tol("peak_tol", tols, cfg, 1e-12)}

    base = {
        "domain": {"name": dom.name, "n": n},
        "p": fileio.point_to_strings(p),
        "q": q,
        "c": _jnum(c),
        "rho_V": _jnum(rho_v),
        "seed": run_seed,
    }
    try:
        cons, f = peak.assemble_peak(dom, p, q, c=c, rho_V=rho_v, r=r,
                                     seed=run_seed, tube_samples=tube)
        rep = peak.verify_peak(
            f, dom, p, q, rho_V=rho_v, boundary_samples=boundary,
            interior_samples=interior, residual_points=interior, seed=run_seed,
            **tolerances)
    except peak.TubeError as e:
        base["assembled"] = False
        base["error"] = str(e)
        fileio.dump_json(os.path.join(out_dir, "peak_report.json"), base)
        return 1
    except (ValueError, RuntimeError) as e:    # EvalError, stalled sampling
        raise ConfigError(str(e))

    base.update({
        "assembled": True,
        "parameters": {
            "r": _jnum(cons.r),
            "rho_W": _jnum(cons.rho_W),
            "r_halvings": cons.r_halvings,
            "w_steps": cons.w_steps,
            "tube_min_phi": _jnum(cons.tube_min_phi),
            "cap_max_dist": _jnum(cons.cap_max_dist),
        },
        "checks": {
            "peak_value": {"err": _jnum(rep.peak_value_err),
                           "tol": _jnum(rep.peak_tol), "ok": rep.peak_ok},
            "sup_outside": {"sup": _jnum(rep.sup_outside),
                            "margin": _jnum(rep.sup_margin),
                            "min_margin": _jnum(rep.margin_min),
                            "ok": rep.sup_ok},
            "residual": {"max": _jnum(rep.max_residual),
                         "points": rep.residual_points,
                         "tol": _jnum(rep.residual_tol), "ok": rep.residual_ok},
            "vanish": {"max": _jnum(rep.vanish_max),
                       "points": rep.vanish_points, "ok": rep.vanish_ok},
        },
        "passed": rep.passed,
    })
    fileio.dump_json(os.path.join(out_dir, "peak_report.json"), base)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------- driver

_COMMANDS = {
    "levi": (cmd_levi, {"ztol"}),
    "classify": (cmd_classify, {"ztol"}),
    "qholo": (cmd_qholo, {"threshold"}),
    "hull": (cmd_hull, {"fam"}),
    "thm2": (cmd_thm2, set()),
    "peak": (cmd_peak, {"residual_tol", "margin_min", "peak_tol"}),
}

_HELP = {
    "levi": "signature of a Hermitian matrix or q-convexity of a function",
    "classify": "boundary-point classification of a domain model",
    "qholo": "q-holomorphicity residual sweep against a threshold",
    "hull": "discrete outer hull approximation against a certified family",
    "thm2": "hull separation experiment (single or randomized batch)",
    "peak": "peak-extension assembly and verification on a model domain",
}


@functools.cache
def _build_parser():
    """The argument parser, built once per process (building takes ms)."""
    parser = argparse.ArgumentParser(
        prog="qholo",
        description="Levi forms, q-holomorphicity, hulls, and peak extensions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=_HELP[name])
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
    handler, allowed = _COMMANDS[args.command]
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        tols = _tol_overrides(args.tol, allowed)
        cfg = _load_config(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError(f"config root must be a JSON object: {args.config}")
        cfg["_dir"] = os.path.dirname(os.path.abspath(args.config))
        os.makedirs(args.out, exist_ok=True)
        return handler(cfg, args.out, args.seed, tols)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
