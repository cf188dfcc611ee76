"""Workload generation and output checks for the qholo benchmark.

A workload is a fixed sequence of CLI steps.  Its configs are generated from
the workload seed, which moves coefficients, sample seeds, weight vectors and
boundary points but never the sizes, so every seed asks for the same amount
of work.  Each step carries the exit code and report content it must produce;
the expected values follow from the mathematics of the generated input (a
holomorphic function and the weighted-reciprocal family at q = n have zero
residual, a positive diagonal plus squares of holomorphic moduli has a
positive definite Levi form, a strictly convex domain is strictly
1-pseudoconvex in C^2), or, for hull membership, from an independent numpy
evaluation of the family.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

WORKLOADS = ("jets-lowdim", "wedge-highdim", "peak-hull")


def _num(x):
    return f"{x:.4f}"


def _cnum(c):
    return f"({c.real:.4f}{c.imag:+.4f}*i)"


def _cstr(c):
    """A complex number as the CLI's "a+bi" string, exact in both parts."""
    im = float(c.imag)
    return f"{float(c.real)!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


def _point(z):
    return [_cstr(c) for c in z]


class _Seeds:
    """Independent integer seeds and draws, all derived from the workload seed."""

    def __init__(self, seed, tag):
        self.rng = np.random.default_rng(
            np.random.SeedSequence([seed, sum(map(ord, tag))]))

    def seed(self):
        return int(self.rng.integers(0, 2 ** 31 - 1))

    def complex(self, scale, size=None):
        re_, im_ = self.rng.uniform(-scale, scale, size=(2,) + ((size,) if size else ()))
        return re_ + 1j * im_

    def unit_phases(self, size):
        return np.exp(1j * self.rng.uniform(0.0, 2.0 * np.pi, size=size))


# ---------------------------------------------------------------- expressions

def holomorphic_expr(s, n, terms):
    """Sum of c * z1^a * ... * exp(<d, z>): no conjugates, so dbar f = 0."""
    parts = []
    for t in range(terms):
        mono = "*".join(f"z{k + 1}^{1 + (t + k) % 3}" for k in range(n))
        lin = "+".join(f"{_cnum(d)}*z{k + 1}"
                       for k, d in enumerate(s.complex(0.3, n)))
        parts.append(f"{_cnum(s.complex(1.0))}*{mono}*exp({lin})")
    return "+".join(parts)


def psh_expr(s, n, squares, holo_terms=0):
    """Positive diagonal plus weighted |g_m|^2 plus Re(h), g_m and h holomorphic.

    With g_m = exp(<c_m, z>) the Levi form is diag(a) + sum_m w_m |g_m|^2
    c_m c_m^*, positive definite at every point, so every point has q = 1.
    """
    diag = "+".join(f"{_num(a)}*abs2(z{k + 1})"
                    for k, a in enumerate(s.rng.uniform(1.0, 2.0, n)))
    terms = []
    for w in s.rng.uniform(0.2, 0.5, squares):
        lin = "+".join(f"{_cnum(c)}*z{k + 1}" for k, c in enumerate(s.complex(0.15, n)))
        terms.append(f"{_num(w)}*abs2(exp({lin}))")
    if holo_terms:
        terms.append(f"re({holomorphic_expr(s, n, holo_terms)})")
    return "+".join([diag] + terms)


def convex_domain(s):
    """Strictly convex, non-spherical domain in C^2: an ellipsoid plus quartics."""
    a = s.rng.uniform(1.0, 2.0, 2)
    b = s.rng.uniform(-0.45, 0.45, 2) * a
    c = s.rng.uniform(0.1, 0.3, 2)
    return ("+".join(f"{_num(a[k])}*abs2(z{k + 1})+{_cnum(b[k])}*re(z{k + 1}^2)"
                     f"+{_num(c[k])}*abs2(z{k + 1})^2" for k in range(2))
            + "-1")


# ---------------------------------------------------------------- hull oracle

def grid_axes(n, center, halfwidth, per_axis, fixed):
    """Real axis values of the candidate grid, in re1, im1, re2, ... order."""
    axes = []
    for k in range(n):
        for part, base in (("re", center[k].real), ("im", center[k].imag)):
            name = f"{part}{k + 1}"
            axes.append(np.array([fixed[name]]) if name in fixed
                        else np.linspace(base - halfwidth, base + halfwidth, per_axis))
    return axes


def grid_points(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    return flat[:, 0::2] + 1j * flat[:, 1::2]


def basener_moduli(lams, p, pts):
    """|f_lambda(z - p)| = |sum_k lambda_k conj(z_k - p_k)| / ||z - p||^2."""
    d = pts - p[None, :]
    return np.abs(np.conj(d) @ np.asarray(lams).T) / np.sum(np.abs(d) ** 2, axis=1)[:, None]


def hull_expectation(lams, p, K, Z, k_in_z):
    """Member count of Z and the number of candidates too close to call.

    A candidate is a member when no family modulus exceeds its maximum over
    K; candidates that are K points are members by definition.
    """
    kmax = basener_moduli(lams, p, K).max(axis=0)
    margins = (basener_moduli(lams, p, Z) - kmax[None, :]).max(axis=1)
    members = (margins <= 0.0) | k_in_z
    close = (np.abs(margins) <= 1e-9 * kmax.max()) & ~k_in_z
    return int(members.sum()), int(close.sum())


def write_points(path, pts):
    n = pts.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([f"{part}{k + 1}" for k in range(n) for part in ("re", "im")])
        for z in pts:
            w.writerow([repr(float(v)) for c in z for v in (c.real, c.imag)])


def hull_step(s, cfg_dir, n, family, k_sphere, per_axis, halfwidth, fixed):
    """A hull config over a grid around a random center p, K from a CSV file.

    K is a sphere sample around p plus a few grid candidates, so the
    K-in-Z check has points to check.
    """
    p = s.complex(0.5, n)
    lams = [s.unit_phases(n) for _ in range(family)]
    axes = grid_axes(n, p, halfwidth, per_axis, fixed)
    Z = grid_points(axes)
    dirs = s.rng.normal(size=(k_sphere, 2 * n))
    dirs = dirs[:, :n] + 1j * dirs[:, n:]
    sphere = p[None, :] + dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    k_in_z = np.zeros(len(Z), dtype=bool)
    k_in_z[s.rng.choice(len(Z), size=8, replace=False)] = True
    K = np.concatenate([sphere, Z[k_in_z]])
    k_path = os.path.join(cfg_dir, "hull_K.csv")
    write_points(k_path, K)
    members, close = hull_expectation(lams, p, K, Z, k_in_z)
    cfg = {
        "n": n,
        "seed": s.seed(),
        "family": [{"builtin": "basener", "p": _point(p), "lambda": _point(lam)}
                   for lam in lams],
        "K": {"file": os.path.basename(k_path)},
        "candidates": {"grid": {"center": _point(p), "halfwidth": halfwidth,
                                "per_axis": per_axis, "fixed_axes": fixed}},
    }
    expect = {"candidates": len(Z), "members": members, "close": close}
    return cfg, expect


# ---------------------------------------------------------------- workloads

def _jets_lowdim(s, cfg_dir):
    return [
        ("qholo", {"n": 2, "q": 1, "function": holomorphic_expr(s, 2, 3),
                   "points": {"random": {"count": 1500, "seed": s.seed(),
                                         "halfwidth": 1.0}},
                   "threshold": 1e-8},
         {"points": 1500}),
        ("levi", {"n": 2, "function": psh_expr(s, 2, 1, 1),
                  "points": {"random": {"count": 1500, "seed": s.seed(),
                                        "halfwidth": 1.0}}},
         {"overall_q": 1, "points": 1500}),
        ("classify", {"n": 2, "name": "convex2", "defining": convex_domain(s),
                      "boundary_samples": 300, "seed": s.seed()},
         {"strict_q": 1, "points": 300}),
    ]


def _wedge_highdim(s, cfg_dir):
    fixed = {"im1": 0.1, "re2": 0.2, "im2": -0.1, "re3": 0.3, "im4": 0.2}
    hull_cfg, hull_expect = hull_step(s, cfg_dir, 4, 4, 48, 6, 1.2, fixed)
    return [
        ("qholo", {"n": 5, "q": 5,
                   "function": {"builtin": "basener", "p": _point(s.complex(0.5, 5)),
                                "seed": s.seed()},
                   "points": {"random": {"count": 100, "seed": s.seed()}},
                   "threshold": 1e-8},
         {"points": 100}),
        ("hull", hull_cfg, hull_expect),
        ("levi", {"n": 10, "function": psh_expr(s, 10, 3),
                  "points": {"random": {"count": 120, "seed": s.seed(),
                                        "halfwidth": 1.0}}},
         {"overall_q": 1, "points": 120}),
    ]


# The acceptance fixtures' boundary points: (1, 0, 0) on ball3, and the
# ellipsoid3 point that ModelDomain.sample_boundary(1, seed=11) returns.  At
# other boundary points verify_peak's finite-difference residual can exceed
# its 1e-5 tolerance (1.7e-4 seen on ball3), so only the seeds vary here.
BALL3_P = ["1+0i", "0+0i", "0+0i"]
ELLIPSOID3_P = ["0.2824756097093917+0.41954465578217387i",
                "0.1634313709160992+0.12050456103175339i",
                "-0.17600504310454643-0.6469416352545985i"]


def _peak_hull(s, cfg_dir):
    samples = {"boundary": 200, "interior": 200, "tube": 500}
    hull_cfg, hull_expect = hull_step(s, cfg_dir, 2, 4, 64, 18, 1.5, {})
    return [
        ("peak", {"domain": {"model": "ball", "n": 3},
                  "p": BALL3_P, "q": 2,
                  "samples": samples, "seed": s.seed()}, {}),
        ("peak", {"domain": {"model": "ellipsoid", "a": [1.0, 1.5, 2.0],
                             "b": [0.2, -0.3, 0.5]},
                  "p": ELLIPSOID3_P, "q": 1,
                  "samples": samples, "seed": s.seed()}, {}),
        ("hull", hull_cfg, hull_expect),
        ("thm2", {"batch": {"configs": 1000, "seed": s.seed()}},
         {"configs": 1000}),
    ]


_WORKLOAD_STEPS = {
    "jets-lowdim": _jets_lowdim,
    "wedge-highdim": _wedge_highdim,
    "peak-hull": _peak_hull,
}

REPORTS = {
    "levi": "levi_report.json", "classify": "classify_report.json",
    "qholo": "qholo_report.json", "hull": "hull_summary.json",
    "thm2": "thm2_report.json", "peak": "peak_report.json",
}


def build(workload, seed, work_dir):
    """Write the workload's configs under work_dir; return its step list.

    Each step is a dict with the subcommand, the CLI argv, its output
    directory and its expectations.
    """
    cfg_dir = os.path.join(work_dir, "cfg")
    os.makedirs(cfg_dir, exist_ok=True)
    steps = []
    for i, (sub, cfg, expect) in enumerate(
            _WORKLOAD_STEPS[workload](_Seeds(seed, workload), cfg_dir)):
        name = f"{i + 1}-{sub}"
        cfg_path = os.path.join(cfg_dir, f"{name}.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh, indent=1)
        out = os.path.join(work_dir, "out", name)
        steps.append({
            "name": name, "sub": sub, "out": out,
            "argv": [sub, "--config", cfg_path, "--out", out],
            "expect": dict(expect, exit=0),
        })
    return steps


# ---------------------------------------------------------------- checks

def check_report(sub, rep, expect):
    """Return the list of ways the report misses its expectations."""
    bad = []

    def want(cond, what):
        if not cond:
            bad.append(what)

    if sub == "qholo":
        want(rep["passed"] is True, f"qholo max residual {rep['max_residual']}")
        want(rep["points"] == expect["points"], "qholo point count")
    elif sub == "levi":
        want(rep["overall_q"] == expect["overall_q"],
             f"levi overall_q {rep['overall_q']} != {expect['overall_q']}")
        want(len(rep["points"]) == expect["points"], "levi point count")
    elif sub == "classify":
        qs = [pt["strict_q"] for pt in rep["points"]]
        want(len(qs) == expect["points"], "classify point count")
        want(all(q == expect["strict_q"] for q in qs),
             f"classify strict_q values {sorted(set(map(str, qs)))}")
    elif sub == "hull":
        want(rep["k_in_z_all_member"] is True, "hull K-in-Z check")
        want(rep["candidates"] == expect["candidates"], "hull candidate count")
        want(abs(rep["members"] - expect["members"]) <= expect["close"],
             f"hull members {rep['members']} != {expect['members']}")
    elif sub == "thm2":
        want(rep["violations"] == 0, f"thm2 violations {rep['violations']}")
        want(rep["configs"] == expect["configs"], "thm2 config count")
    elif sub == "peak":
        want(rep.get("passed") is True, f"peak not passed: {rep.get('error', '')}")
    return bad


def check_step(step, exit_code):
    """Failures of one finished step: exit code, then report content."""
    expect = step["expect"]
    if exit_code != expect["exit"]:
        return [f"exit {exit_code} != {expect['exit']}"]
    path = os.path.join(step["out"], REPORTS[step["sub"]])
    try:
        with open(path) as fh:
            rep = json.load(fh)
        return check_report(step["sub"], rep, expect)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable report {path}: {e!r}"]


def digest(out_dir):
    """sha256 over the names and bytes of every artifact in out_dir."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()

