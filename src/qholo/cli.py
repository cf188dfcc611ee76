"""Command-line surface: config loading, subcommand dispatch, report emission.

Subcommands: levi | classify | qholo | hull | thm2 | peak.  Every run reads
one JSON config, writes its artifacts into --out, and exits with 0 (success),
1 (a requested property or threshold failed; artifacts are still written), or
2 (input/config error; nothing is written).  With a fixed seed, reruns emit
byte-identical files.
"""

from __future__ import annotations

import argparse
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


# Resource cap on the sampled point counts classify.boundary_samples and
# points.random.count, as the hull grid has its 2M-point cap.
MAX_SAMPLES = 100_000


def _positive_int(value, what, cap=math.inf):
    """A whole number in [1, cap] from the config; anything else is a
    ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 1 <= value < math.inf or value != int(value)):
        raise ConfigError(f"{what} must be a positive integer, got {value!r}")
    if value > cap:
        raise ConfigError(f"{what} must be at most {cap}, got {value!r}")
    return int(value)


def _parse_expr(text, n):
    try:
        return ex.parse(text, n)
    except ex.ParseError as e:
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
    if name not in cfg:
        return default
    value = cfg[name]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _jnum(x):
    """JSON-safe number: infinities become strings, -0.0 becomes 0.0."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return 0.0 if x == 0.0 else x


def _random_points(n, spec, avoid=None):
    count = _positive_int(spec.get("count", 100), "random.count", MAX_SAMPLES)
    seed = int(spec.get("seed", 0))
    halfwidth = float(spec.get("halfwidth", 2.0))
    center = _parse_point(spec["center"], n) if "center" in spec else None
    return hull.certification_points(
        n, seed, count=count, halfwidth=halfwidth, center=center,
        avoid=avoid, avoid_radius=float(spec.get("avoid_radius", 0.3)))


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
            want = tuple(int(v) for v in expect["signature"])
            if sig.as_tuple() != want:
                failures.append(
                    f"signature {sig.as_tuple()} != expected {want}")
    elif "function" in cfg:
        n = _positive_int(_require(cfg, "n"), "n")
        f = _parse_expr(cfg["function"], n)
        pts = _load_points(_require(cfg, "points"), n, cfg["_dir"])
        ztol = _tol("ztol", tols, cfg, None)
        try:
            cls = levi.classify_function(f, pts, ztol=ztol)
        except (ValueError, ex.EvalError) as e:
            raise ConfigError(str(e))
        per_point = []
        for p, sig, q in zip(cls.points, cls.signatures, cls.per_point_q):
            per_point.append({
                "point": fileio.point_to_strings(p),
                "signature": {"pos": sig.n_pos, "neg": sig.n_neg,
                              "zero": sig.n_zero},
                "q": q,
            })
        report = {
            "mode": "function",
            "n": n,
            "function": ex.to_text(f),
            "points": per_point,
            "overall_q": cls.overall_q,
            "overall": cls.overall_text,
        }
        expect = cfg.get("expect", {})
        if "q" in expect and cls.overall_q != int(expect["q"]):
            failures.append(f"overall q {cls.overall_q} != expected {expect['q']}")
        if "q_max" in expect and cls.overall_q > int(expect["q_max"]):
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
    n = _positive_int(_require(cfg, "n"), "n")
    name = cfg.get("name", "domain")
    phi = _parse_expr(_require(cfg, "defining"), n)
    count = _positive_int(_require(cfg, "boundary_samples"), "boundary_samples",
                          MAX_SAMPLES)
    run_seed = seed if seed is not None else int(cfg.get("seed", 0))
    box = float(cfg.get("box", 2.0))
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
    entries = []
    strict_qs = []
    for c in classes:
        entries.append({
            "point": fileio.point_to_strings(c.point),
            "gradient": fileio.point_to_strings(c.gradient),
            "signature": {"pos": c.restricted.n_pos, "neg": c.restricted.n_neg,
                          "zero": c.restricted.n_zero},
            "strict_q": "none" if c.strict_q is None else c.strict_q,
            "weak_q": "none" if c.weak_q is None else c.weak_q,
        })
        strict_qs.append(c.strict_q)
    failures = []
    expect = cfg.get("expect", {})
    if "strict_q" in expect:
        want = int(expect["strict_q"])
        bad = sum(1 for q in strict_qs if q != want)
        if bad:
            failures.append(f"{bad}/{len(strict_qs)} points have strict q != {want}")
    if "strict_q_max" in expect:
        cap = int(expect["strict_q_max"])
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
        if "n" in spec and int(spec["n"]) != n:
            raise ConfigError(
                f"{entry}: function file has n={spec['n']}, config has n={n}")
        e = _parse_expr(_require(spec, "expr", entry), n)
        q = int(_require(spec, "q", entry))
        name = spec.get("name", os.path.basename(entry))
        avoid = _parse_point(spec["avoid"], n) if "avoid" in spec else None
        return [(e, q, name, avoid)]
    if isinstance(entry, dict) and entry.get("builtin") == "basener":
        p = _parse_point(entry.get("p", [0.0] * n), n)
        count = int(entry.get("lambda_count", 1))
        fseed = int(entry.get("seed", default_seed))
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
    n = _positive_int(_require(cfg, "n"), "n")
    q = int(_require(cfg, "q"))
    if q < 1:
        raise ConfigError(f"q must be >= 1, got {q}")
    run_seed = seed if seed is not None else int(cfg.get("seed", 0))
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
        residuals = [float(r) for r in forms.q_holo_residuals(f, pts, q)]
    except ValueError as e:     # EvalError, or an empty point set
        raise ConfigError(f"evaluation failed: {e}")
    worst = max(residuals)
    report = {
        "n": n,
        "q": q,
        "function": name,
        "points": len(residuals),
        "threshold": _jnum(threshold),
        "max_residual": _jnum(worst),
        "residuals": [_jnum(r) for r in residuals],
        "passed": bool(worst <= threshold),
    }
    fileio.dump_json(os.path.join(out_dir, "qholo_report.json"), report)
    return 0 if worst <= threshold else 1


# ---------------------------------------------------------------- hull

def _grid_candidates(n, spec):
    g = _require(spec, "grid", "candidates")
    center = _parse_point(g.get("center", [0.0] * n), n, "grid center")
    hw = float(_require(g, "halfwidth", "grid"))
    per = int(_require(g, "per_axis", "grid"))
    if per < 1:
        raise ConfigError("per_axis must be >= 1")
    fixed = g.get("fixed_axes", {})
    known = {f"{part}{k + 1}" for k in range(n) for part in ("re", "im")}
    for key in fixed:
        if key not in known:
            raise ConfigError(f"unknown fixed axis {key!r}")
    axes = []
    for k in range(n):
        for part, base in (("re", center[k].real), ("im", center[k].imag)):
            axis = f"{part}{k + 1}"
            if axis in fixed:
                axes.append(np.array([float(fixed[axis])]))
            else:
                axes.append(np.linspace(base - hw, base + hw, per))
    total = int(np.prod([len(a) for a in axes]))
    if total > 2_000_000:
        raise ConfigError(f"grid has {total} points; fix more axes")
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    return flat[:, 0::2] + 1j * flat[:, 1::2]


def _load_k_set(spec, n, base_dir):
    if "file" in spec:
        return _load_points(spec, n, base_dir)
    if "sphere" in spec:
        s = spec["sphere"]
        p = _parse_point(s.get("p", [0.0] * n), n, "sphere center")
        return hull.sample_sphere(n, p, float(_require(s, "r", "sphere")),
                                  int(s.get("count", 100)),
                                  int(s.get("seed", 0)))
    raise ConfigError("K must be {'file': csv} or {'sphere': {...}}")


def cmd_hull(cfg, out_dir, seed, tols):
    """Outer hull approximation of K against a certified finite family."""
    n = _positive_int(_require(cfg, "n"), "n")
    run_seed = seed if seed is not None else int(cfg.get("seed", 0))
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
    k_flat = np.round(K.view(float).reshape(len(K), -1), 12)
    k_rows = {tuple(x) for x in k_flat}
    z_flat = Z.view(float).reshape(len(Z), -1)
    hit = np.ones(len(Z), dtype=bool)
    for c in range(z_flat.shape[1]):
        keys = np.sort(k_flat[:, c])
        zc = np.round(z_flat[:, c], 12)
        idx = np.searchsorted(keys, zc)
        np.minimum(idx, len(keys) - 1, out=idx)
        hit &= keys[idx] == zc
    k_in_z_ok = all(result.members[i] for i in np.flatnonzero(hit)
                    if tuple(np.round(z_flat[i], 12)) in k_rows)
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
        n = _positive_int(_require(s, "n", "single"), "n")
        p = _parse_point(_require(s, "p", "single"), n, "center")
        r = float(_require(s, "r", "single"))
        K = _load_k_set(_require(s, "K", "single"), n, cfg["_dir"])
        zspec = _require(s, "z", "single")
        if not isinstance(zspec, dict):
            raise ConfigError("z must be {'file': csv} or {'count', 'seed'}")
        try:
            if "file" in zspec:
                Z = _load_points(zspec, n, cfg["_dir"])
            else:
                Z = hull.sample_ball(n, p, r / np.sqrt(n) * (1 - 1e-12),
                                     int(zspec.get("count", 50)),
                                     int(zspec.get("seed", 0)))
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
        run_seed = seed if seed is not None else int(b.get("seed", cfg.get("seed", 0)))
        try:
            rep = hull.run_theorem2_batch(
                configs=int(b.get("configs", 1000)),
                seed=run_seed,
                ns=tuple(int(v) for v in b.get("ns", (2, 3, 4))),
                k_count=int(b.get("k_count", 200)),
                z_count=int(b.get("z_count", 50)),
                r_range=tuple(float(v) for v in b.get("r_range", (0.1, 2.0))))
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
            n = _positive_int(_require(spec, "n", "domain"), "n")
            center = (_parse_point(spec["center"], n) if "center" in spec
                      else None)
            return peak.ModelDomain.ball(n, radius=float(spec.get("radius", 1.0)),
                                         center=center)
        if model == "ellipsoid":
            a = _require(spec, "a", "domain")
            b = spec.get("b", [0.0] * len(a))
            return peak.ModelDomain.ellipsoid(a, b)
        if model is not None:
            raise ConfigError(f"unknown domain model {model!r}")
        n = _positive_int(_require(spec, "n", "domain"), "n")
        phi = _parse_expr(_require(spec, "defining", "domain"), n)
        return peak.ModelDomain.from_expr(
            n, phi, float(_require(spec, "box", "domain")),
            name=spec.get("name", "custom"),
            convex_certified=bool(spec.get("convex_certified", False)))
    except ValueError as e:
        raise ConfigError(f"bad domain: {e}")


def cmd_peak(cfg, out_dir, seed, tols):
    """Assemble and verify the almost-peak extension at a boundary point."""
    dom = _load_domain(_require(cfg, "domain"), cfg["_dir"])
    n = dom.n
    p = _parse_point(_require(cfg, "p"), n, "boundary point")
    q = int(_require(cfg, "q"))
    c = float(cfg.get("c", 1.0))
    rho_v = float(cfg.get("rho_V", 0.5))
    r = cfg.get("r", "auto")
    if r != "auto":
        r = float(r)
    samples = cfg.get("samples", {})
    boundary = _positive_int(samples.get("boundary", 200), "samples.boundary")
    interior = _positive_int(samples.get("interior", 200), "samples.interior")
    tube = _positive_int(samples.get("tube", 500), "samples.tube")
    run_seed = seed if seed is not None else int(cfg.get("seed", 0))
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
    except peak.TubeError as e:
        base["assembled"] = False
        base["error"] = str(e)
        fileio.dump_json(os.path.join(out_dir, "peak_report.json"), base)
        return 1
    except (ValueError, ex.EvalError) as e:
        raise ConfigError(str(e))

    rep = peak.verify_peak(
        f, dom, p, q, rho_V=rho_v, boundary_samples=boundary,
        interior_samples=interior, residual_points=interior, seed=run_seed,
        **tolerances)

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


def _build_parser():
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
