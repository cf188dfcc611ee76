"""Discrete hull computation against finite certified function families.

The hull of a finite point set K, relative to a finite family F of functions,
keeps exactly the candidate points z with |f(z)| <= max over K of |f| for
every f in F.  Any finite family yields an outer approximation of the hull
taken over the full function class, so exclusions are rigorous and
memberships are not.

The family used throughout is the unit-modulus-weight reciprocal kernel

    f_lambda(z) = (sum_i lambda_i conj(z_i)) / ||z||^2,   |lambda_i| = 1,

translated to a center p.  It has an isolated nonremovable singularity at the
center, is n-holomorphic away from it, and for the right lambda its modulus
exceeds the K-maximum on a ball around the center, which drives the
separation experiment at the end of the module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import expr as ex
# q_holo_residual stays bound here: perfbench/test_perfbench.py checks that its
# tracer wraps this binding.
from .forms import q_holo_residual, q_holo_residuals  # noqa: F401
from .levi import _norms, _sample_box

__all__ = [
    "Lambda", "FamilyMember", "HullProblem", "HullResult", "Thm2Report", "BatchReport",
    "basener_value", "basener_expr", "construct_lambda", "random_lambdas",
    "certify_member", "certification_points", "build_problem", "discrete_hull",
    "theorem2_experiment", "run_theorem2_batch", "sample_sphere", "sample_ball",
]

EPS_SING = 1e-12


class Lambda(ex._Frozen):
    """Weight vector with all entries on the unit circle (checked to 1e-12)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        vec = tuple(complex(v) for v in entries)
        if not vec:
            raise ValueError("lambda must have at least one entry")
        for v in vec:
            if not abs(abs(v) - 1.0) <= 1e-12:
                raise ValueError(f"lambda entry {v} is not unit modulus")
        object.__setattr__(self, "entries", vec)

    @property
    def n(self):
        return len(self.entries)

    def as_array(self):
        return np.array(self.entries, dtype=complex)


def _rowsum(a):
    """np.sum(a, axis=-1) with its bits, faster on a short last axis: numpy
    adds fewer than 8 entries left to right, from +0.0."""
    return sum(np.moveaxis(a, -1, 0), 0.0) if 0 < a.shape[-1] < 8 else np.sum(a, axis=-1)


def _weights(d, mags=None):
    """conj(d) / ||d||^2 per row (mags = np.abs(d)): f_lambda(d) = _weights(d) @ lambda.

    For d (..., D, n) and lams (..., L, n), leading axes broadcast,
    _weights(d) @ swapaxes(lams) is the (..., D, L) table of f_lambda(d) for
    every lambda row at every row of d, one batched matmul.
    """
    return np.conj(d) / _rowsum((np.abs(d) if mags is None else mags) ** 2)[..., None]


def _align(d):
    """Row-wise unit weights with lambda_i * conj(d_i) = |d_i| (1 where d_i = 0)."""
    mags = np.abs(d)
    return np.where(mags > 0, d / np.where(mags > 0, mags, 1.0), 1.0)


def basener_value(lam: Lambda, z) -> complex:
    """f_lambda at displacement z from the singular center.

    Raises ValueError within EPS_SING of the center, where the function has
    its nonremovable singularity.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (lam.n,):
        raise ValueError(f"point has shape {z.shape}, expected ({lam.n},)")
    if float(np.sum(np.abs(z) ** 2)) <= EPS_SING ** 2:
        raise ValueError("singularity: displacement too close to the center")
    return complex((_weights(z[None]) @ lam.as_array()[:, None])[0, 0])


def basener_expr(lam: Lambda, p, n: int) -> ex.Expr:
    """Expression tree for z -> f_lambda(z - p)."""
    p = np.asarray(p, dtype=complex)
    if p.shape != (n,):
        raise ValueError(f"center has shape {p.shape}, expected ({n},)")
    num = den = None
    for k in range(n):
        v = ex.Var(n, k + 1)
        d = v if p[k] == 0 else v - p[k]
        t_num = complex(lam.entries[k]) * ex.conjugate(d)
        t_den = d * ex.conjugate(d)
        num = t_num if num is None else num + t_num
        den = t_den if den is None else den + t_den
    return num / den


def construct_lambda(z, p) -> Lambda:
    """The weight vector with lambda_i * conj(z_i - p_i) = |z_i - p_i|.

    Entries with z_i = p_i are set to 1.  For this lambda the modulus of
    f_lambda(z - p) is sum_i |z_i - p_i| / ||z - p||^2, the largest the family
    attains at z.
    """
    d = np.asarray(z, dtype=complex) - np.asarray(p, dtype=complex)
    if float(np.linalg.norm(d)) == 0.0:
        raise ValueError("z equals the center point")
    return Lambda(_align(d))


def random_lambdas(n: int, count: int, rng) -> list:
    """Deterministic batch of uniform-phase weight vectors."""
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
    return [Lambda(np.exp(1j * phases[k])) for k in range(count)]


class FamilyMember(NamedTuple):
    """A certified family function: expression, its q, measured residual bound."""

    expr: ex.Expr
    q: int
    residual_bound: float
    name: str = ""


class HullProblem(ex._Frozen):
    """n, the (k, n) sample K of the compact set, the (m, n) candidate
    points Z and the family's FamilyMember entries."""

    __slots__ = ("n", "K", "Z", "family")

    def __init__(self, n, K, Z, family):
        if len(K) == 0:
            raise ValueError("K must be nonempty")
        if len(family) == 0:
            raise ValueError("family must be nonempty")
        self._set((n, K, Z, family))


class HullResult(NamedTuple):
    """Per-candidate read-only arrays and the per-member K maxima."""

    members: np.ndarray     # bool per candidate
    margins: np.ndarray     # max_f (|f(z)| - max_K |f|); +inf when singular
    singular: np.ndarray    # bool: evaluation failed at the candidate
    k_maxima: tuple         # per family member


def certify_member(e: ex.Expr, q: int, sample_pts, tol: float = 1e-8,
                   name: str = "") -> FamilyMember:
    """Measure the q-holomorphicity residual over a documented sample.

    Raises ValueError unless every residual is at most tol (a NaN is not):
    the family must be certified, not assumed.
    """
    fails, worst = ex._verdict(q_holo_residuals(e, sample_pts, q), tol, np.less_equal,
                               initial=0.0)
    if fails:
        raise ValueError(
            f"family member {name or ex.to_text(e)!r} failed certification: "
            f"residual {worst:.3e} > {tol:.1e} for q={q}")
    return FamilyMember(expr=e, q=q, residual_bound=float(worst), name=name)


def certification_points(n: int, seed: int, count: int = 100,
                         halfwidth: float = 2.0, center=None,
                         avoid=None, avoid_radius: float = 0.3) -> np.ndarray:
    """Deterministic box sample used to certify family members.

    Points closer than avoid_radius to any `avoid` center (singularities of
    the member) are redrawn, since roundoff amplification near a pole would
    measure the arithmetic, not the function.  The first `count` kept draws
    are returned, from at most 100 * count draws (_sample_box, in blocks sized
    by the acceptance rate, 0.01 at worst, and of at most 4096 rows, which
    bounds the (rows, avoid centers, n) distance array at any count).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x63657274]))
    avoid = None if avoid is None else np.atleast_2d(np.asarray(avoid, dtype=complex))

    def accept(z):
        if avoid is None:
            return np.ones(len(z), dtype=bool), None, None
        with np.errstate(over="ignore"):    # an overflowing distance is far
            return ~np.any(_norms(z[:, None, :] - avoid) < avoid_radius, axis=1), None, None

    return _sample_box(
        "certification", n, count, rng, center, halfwidth,
        lambda need, rate: min(4096, math.ceil(need / max(rate, 0.01))),
        accept, 100 * count)


def build_problem(n: int, K, Z, members, seed: int, tol: float = 1e-8) -> HullProblem:
    """Assemble a HullProblem, certifying each (expr, q, name, avoid) entry."""
    K = np.asarray(K, dtype=complex)
    Z = np.asarray(Z, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(K))) if K.size else 1.0)
    fam = []
    for idx, (e, q, name, avoid) in enumerate(members):
        pts = certification_points(n, seed + idx, halfwidth=1.5 * scale,
                                   avoid=avoid, avoid_radius=0.3 * scale)
        fam.append(certify_member(e, q, pts, tol=tol, name=name))
    return HullProblem(n=n, K=K, Z=Z, family=tuple(fam))


def discrete_hull(prob: HullProblem) -> HullResult:
    """Membership sweep: z stays iff every family member satisfies
    |f(z)| <= max over K of |f|.

    K maxima are computed once with exact comparisons.  An evaluation failure
    at a K point aborts (the reference maxima would be meaningless); a failure
    at a candidate marks it excluded with margin +inf.
    """
    k_maxima = [float(np.max(np.abs(ex.eval_batch(mem.expr, prob.K))))
                for mem in prob.family]

    m = len(prob.Z)
    worst = np.full(m, -np.inf)     # running max over members of |f| - k_max
    sing = np.zeros(m, dtype=bool)
    for mem, k_max in zip(prob.family, k_maxima):
        vals, bad, _ = ex._values(mem.expr, prob.Z)
        dev = np.abs(vals)
        del vals            # released before the next member is evaluated
        dev -= k_max
        np.maximum(worst, dev, out=worst)
        sing |= False if bad is None else bad
    margins = np.where(sing, np.inf, worst)
    members = ex._verdict(margins, 0.0, np.less_equal, ())[0] == 0
    for arr in (members, margins, sing):
        arr.setflags(write=False)
    return HullResult(members=members, margins=margins, singular=sing,
                      k_maxima=tuple(k_maxima))


# ---------------------------------------------------------------------------
# Separation experiment

class Thm2Report(NamedTuple):
    """Record of the separation chain around one center; for a stack of C
    centers the last four fields are (C,) arrays, link_slacks (C, 5).

    For every candidate z in the inner ball, with lambda built from z, the
    chain
        |f_lambda(z-p)| = sum|z_i-p_i|/||z-p||^2 >= 1/||z-p||
                        > sqrt(n)/||w-p|| >= sum|w_i-p_i|/||w-p||^2
                        >= |f_lambda(w-p)|        (for every w in K)
    forces |f_lambda(z-p)| > max over K, so z is outside the hull.  Slacks are
    the minima of each link over all (z, w); margins are the final separation
    per z.

    A violation is one failing (link, candidate) pair: links 1-3 and 5 and
    the final margin count once per candidate, link 4 (which involves K
    alone) once per configuration, and the radial scaling check once per
    (candidate, t) for t in (0.5, 2).  A check that does not provably hold
    fails, so a NaN (from an overflow) is a violation.  The link-2 guard is
    relative to each candidate's own closed form, the link-4 and link-5
    guards to the largest K-side closed form.
    """

    n: int
    z_count: int
    k_count: int
    violations: int | np.ndarray
    min_margin: float | np.ndarray
    link_slacks: tuple | np.ndarray  # min slack per chain link, in displayed order
    monotonicity_err: float | np.ndarray


_REL_GUARD = 1e-9
_FAR = 1e150        # bound on |K - p|: the chain squares up to twice it
_MAX_R = 1e100      # bound on a batch radius r: K lies within 2.5 r sqrt(2n) of p


def theorem2_experiment(n: int, p, r: float, K, z_samples) -> Thm2Report:
    """Verify the separation chain for explicit K and candidate samples.

    Preconditions (reported per offending point): K and the candidates
    nonempty, every K point at distance at least r and at most _FAR from p,
    every candidate strictly between 0 and r/sqrt(n).  Violations are
    counted as described in Thm2Report.  This is the stacked chain for a
    stack of one.
    """
    p = np.asarray(p, dtype=complex)
    K = np.asarray(K, dtype=complex)
    Z = np.asarray(z_samples, dtype=complex)
    if p.shape != (n,):
        raise ValueError(f"center has shape {p.shape}, expected ({n},)")
    for what, a, rows in (("K", K, "k"), ("z_samples", Z, "z")):
        if a.ndim != 2 or a.shape[1] != n or len(a) == 0:
            raise ValueError(f"{what} has shape {a.shape}, expected a nonempty ({rows}, {n})")
    with np.errstate(over="ignore", invalid="ignore"):  # _chain rejects the result
        dk, dz = K - p, Z - p
    rep = _chain(n, np.array([r]), dk[None], dz[None])
    v, mm, ls, me = (f[0].tolist() for f in rep[3:])    # row 0, as Python scalars
    return Thm2Report(n, len(Z), len(K), v, mm, tuple(ls), me)


@np.errstate(over="ignore", invalid="ignore")     # an overflow fails a check
def _chain(n, r, dk, dz) -> Thm2Report:
    """The separation chain for a stack of configurations of one dimension n.

    r (C,) radii, dk = K - p (C, k, n) and dz = Z - p (C, z, n); returns the
    stack's Thm2Report.  Every reduction runs within one configuration, so a
    configuration's row does not depend on the stack it came in.
    """
    # np.linalg.norm(d, axis=-1), bit for bit
    dk_norm, dz_norm = (np.sqrt(_rowsum((d.conj() * d).real)) for d in (dk, dz))
    for bad, what in ((dk_norm < r[:, None] * (1 - 1e-12), "K points inside B(p, r)"),
                      (~(dk_norm <= _FAR), f"K points not within {_FAR:g} of p"),
                      (~((dz_norm < r[:, None] / np.sqrt(n)) & (dz_norm > 0)),
                       "candidates outside (0, r/sqrt(n))")):
        if bad.any():
            raise ValueError(
                f"{what}: indices {np.flatnonzero(bad[bad.any(axis=1)][0]).tolist()}")

    mk, mz = np.abs(dk), np.abs(dz)
    closed_k = _rowsum(mk) / dk_norm ** 2                  # K-side middle term
    guard_k = _REL_GUARD * np.max(closed_k, axis=1)
    k_bound = np.sqrt(n) / dk_norm

    lams = _align(dz)                                      # one lambda per z
    lhs = np.abs(_weights(dz, mz)[..., None, :] @ lams[..., None])[..., 0, 0]
    closed = _rowsum(mz) / dz_norm ** 2
    # link 1: evaluated |f_lambda(z-p)| equals its closed form
    err1 = np.abs(lhs - closed) / np.maximum(1.0, closed)
    # link 2: sum|d_i|/||d||^2 >= 1/||d||
    s2 = closed - 1.0 / dz_norm
    # link 3: 1/||z-p|| > sqrt(n)/||w-p||  (strict)
    s3 = 1.0 / dz_norm - np.max(k_bound, axis=1, keepdims=True)
    # link 4: sqrt(n)/||w-p|| >= sum|w_i-p_i|/||w-p||^2
    s4 = np.min(k_bound - closed_k, axis=1)
    # link 5: that middle expression >= |f_lambda(w-p)|, per (w, z), and the
    # margins against max_K |f_lambda|, a K chunk of _STACK_PAIRS / 8 pairs at
    # a time: its table holds |f|, then the slacks; running min and max
    chunk = max(1, _STACK_PAIRS // 8 // (len(r) * dz.shape[1]))
    s5, f_max = np.full(lhs.shape, np.inf), np.full(lhs.shape, -np.inf)
    wk, lt = _weights(dk, mk), np.swapaxes(lams, -1, -2)
    for lo in range(0, dk.shape[1], chunk):
        f = np.abs(wk[:, lo:lo + chunk] @ lt)
        np.maximum(f_max, np.max(f, axis=1), out=f_max)
        np.minimum(s5, np.min(np.subtract(closed_k[:, lo:lo + chunk, None], f, out=f),
                              axis=1), out=s5)
    margins = lhs - f_max
    # radial scaling |f(t d)| t = |f(d)|, per (t, z) for t in (0.5, 2), holds
    # bit for bit where every nonzero part of d lies in [2^-150, 2^150]:
    # scaling by 2^k commutes with a rounded +, -, *, /, sqrt or fma whose
    # operands and result are normal, and abs scales its input itself.  There
    # the nonzero |t d_i|^2 and ||t d||^2 lie in [2^-302, n 2^304], the nonzero
    # parts of the weights in [2^-455 / n, 2^453] and of lambda (made from d)
    # in [2^-301, 1]; so their products, and sums of those, are 0 or multiples
    # of 2^-862 / n, all normal, and f(t d) = f(d) / t.  Only the candidates
    # outside the window are evaluated.
    parts = np.abs(np.stack([dz.real, dz.imag]))
    far = np.any((parts > 2.0 ** 150) | ((parts < 2.0 ** -150) & (parts > 0)), axis=(0, 3))
    ts, one, mono = np.array([[0.5], [2.0]]), lhs[far], np.zeros((2,) + lhs.shape)
    g = np.abs(_weights(ts[..., None] * dz[far])[..., None, :] @ lams[far][..., None])
    mono[:, far] = np.abs(g[..., 0, 0] * ts - one) / np.maximum(1.0, one)

    fails, (max_err1, *min_slacks, min_margin, max_mono) = zip(*(ex._verdict(*c) for c in (
        (err1, 1e-12, np.less_equal, 1), (s2, -_REL_GUARD * closed, np.greater_equal, 1),
        (s3, 0.0, np.greater, 1), (s4, -guard_k, np.greater_equal, ()),
        (s5, -guard_k[:, None], np.greater_equal, 1), (margins, 0.0, np.greater, 1),
        (mono, 1e-12, np.less_equal, (0, 2)))))
    return Thm2Report(n=n, z_count=dz.shape[1], k_count=dk.shape[1],
                      violations=sum(fails), min_margin=min_margin,
                      link_slacks=np.stack([-max_err1, *min_slacks], axis=1),
                      monotonicity_err=max_mono)


class BatchReport(NamedTuple):
    configs: int
    violations: int
    min_margin: float
    min_link_slacks: tuple
    max_monotonicity_err: float


def _first_kept(rngs, make, count, width, normals=0):
    """The first count rows each configuration keeps, shape (C, count, w).

    A block of configuration i is 4 * count rows from rngs[i]: standard
    normals of width `normals` (maybe 0), then uniform [0, 1) doubles of
    width `width`.  make(idx, normals, uniforms) turns those rows into rows
    (len(idx), rows, w) and a keep mask (len(idx), rows).  The stack's first
    blocks, with only a prefix of their uniforms, go into stacked buffers
    and are made and cut in one pass.  A configuration that comes up short
    draws the rest of its block, then blocks alone; every other one jumps
    its PCG64 generator past the rest (one output per uniform double; a
    normal reads a varying number, so normals are drawn whole).  So each
    generator ends where a one-configuration-at-a-time loop leaves it."""
    rows = 4 * count
    pre = min(rows, count + count // 8 + 8)
    heads, u = np.empty((len(rngs), rows, normals)), np.empty((len(rngs), pre, width))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=heads[i])
        rng.random(out=u[i])
    heads += 0.0        # Generator.normal() is 0.0 + standard_normal(): no -0.0
    pts, keep = make(range(len(rngs)), heads[:, :pre], u)
    take = keep & (np.cumsum(keep, axis=1) <= count)
    full = take.sum(axis=1) == count
    out = np.empty((len(rngs), count, pts.shape[-1]))
    out[full] = pts[take & full[:, None]].reshape(-1, count, pts.shape[-1])
    for i in np.flatnonzero(full):
        rngs[i].bit_generator.advance((rows - pre) * width)
    for i in np.flatnonzero(~full):
        got = [pts[i, keep[i]]]
        block = [heads[i, pre:], rngs[i].random((rows - pre, width))]
        while True:
            more, kept = make([i], *(b[None] for b in block))
            got.append(more[0, kept[0]])
            if sum(map(len, got)) >= count:
                break
            block = [rngs[i].normal(size=(rows, normals)), rngs[i].random((rows, width))]
        out[i] = np.concatenate(got)[:count]
    return out


def _complex(x):
    """The complex points (..., n) of rows [re_1..re_n | im_1..im_n] of x."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] // 2,), dtype=complex)
    out.real, out.imag = np.split(x, 2, axis=-1)
    return out


def _outside(d, r):
    """||d|| >= r for rows d of _complex's form, as np.linalg.norm decides it:
    a sum of squares in another order is within a few ulps of that norm, so
    only rows within 1e-12 r of r take the norm itself, whose bits depend on
    the row alone (r > 1e-9 here, far above where the squares underflow)."""
    s = np.sqrt((d * d) @ np.ones(d.shape[-1]))
    near = np.abs(s - r) <= 1e-12 * r
    s[near] = np.linalg.norm(_complex(d[near]), axis=-1)
    return s >= r


def _outside_balls(rngs, pr, r, count, halfwidth_factor=2.5):
    """count uniform displacements z - p[i] per configuration i, z in the box
    of half-width halfwidth_factor * r[i] around p[i] and outside B(p[i],
    r[i]), as _complex rows; pr (C, 1, 2n) holds the centers as rows.  A box
    coordinate is Generator.uniform(-half, half), -half + (half - -half) u."""
    half = (halfwidth_factor * r)[:, None, None]

    def make(idx, _, u):
        idx = list(idx)
        h, p = half[idx], pr[idx]       # ((h - -h) u - h + p) - p, in u's buffer
        for op, x in ((np.multiply, h - -h), (np.subtract, h), (np.add, p), (np.subtract, p)):
            op(u, x, out=u)
        return u, _outside(u, r[idx, None])

    return _first_kept(rngs, make, count, pr.shape[-1])


def _above_floor(radius, floor):
    bad = ~(radius > floor)     # no draw could be kept
    if bad.any():
        raise ValueError(f"ball radius {radius[np.argmax(bad)]} must exceed "
                         f"the floor {floor}")


def _inner_balls(rngs, pr, radius, count, floor=1e-9):
    """count uniform points per configuration i of B(p[i], radius[i]) minus
    B(p[i], floor), as _complex rows, pr as in _outside_balls; each block
    draws its normals, then its radii (Generator.uniform(0, 1) is u)."""
    _above_floor(radius, floor)
    width = pr.shape[-1]

    def make(idx, raw, u):
        idx = list(idx)
        radii = radius[idx, None] * u[..., 0] ** (1.0 / width)
        dirs = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        return radii[..., None] * dirs + pr[idx], radii > floor

    return _first_kept(rngs, make, count, 1, width)


def _inner_radius(r, n):
    """The radius thm2 draws candidates within: just inside r/sqrt(n)."""
    return r / np.sqrt(n) * (1 - 1e-12)


def _sample_configs(children, n, r_range, k_count, z_count, halfwidth_factor=2.5):
    """Radii r (C,) and displacements K - p (C, k_count, n), Z - p
    (C, z_count, n) of a stack of configurations of dimension n.

    Configuration i draws from np.random.default_rng(children[i]): its center
    p and radius r in one draw (Generator.uniform(-1, 1) and
    uniform(*r_range), bit for bit), K's blocks (outside B(p, r)), then the
    candidates' blocks (inside B(p, r/sqrt(n))).  The candidates' floor is
    checked before K is drawn: below it, K's draws need not separate from p."""
    rngs = [np.random.default_rng(child) for child in children]
    u = np.empty((len(rngs), 2 * n + 1))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    lo, hi = (float(v) for v in r_range)
    r, pr = lo + (hi - lo) * u[:, -1], 2.0 * u[:, None, :-1] - 1.0
    inner = _inner_radius(r, n)
    _above_floor(inner, 1e-9)
    dk = _outside_balls(rngs, pr, r, k_count, halfwidth_factor)
    return r, _complex(dk), _complex(_inner_balls(rngs, pr, inner, z_count) - pr)


def sample_sphere(n: int, p, r: float, count: int, seed: int) -> np.ndarray:
    """Deterministic sample of the sphere of radius r around p in C^n."""
    p = np.asarray(p, dtype=complex)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x73706872]))
    raw = rng.normal(size=(count, 2 * n))
    dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return p[None, :] + r * (dirs[:, :n] + 1j * dirs[:, n:])


def sample_ball(n: int, p, radius: float, count: int, seed: int,
                floor: float = 1e-9) -> np.ndarray:
    """Uniform sample of the punctured ball B(p, radius) minus B(p, floor).

    Raises ValueError unless radius > floor.
    """
    p = np.asarray(p, dtype=complex)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x62616c6c]))
    pr = np.concatenate([p.real, p.imag])[None, None]
    return _complex(_inner_balls([rng], pr, np.array([radius], float), count, floor)[0])


# (K point, candidate) pairs per stack of configurations in the batched
# chain, whose K chunks hold an eighth of them.  A 1000-configuration batch
# (k 200, z 50, seed 0) peaks at 42.1 MB VmHWM in a fresh process that imports
# qholo.hull alone (42.2-42.3 MB with the full radial scaling table); 2 ** 18
# and 2 ** 20 ran 1-5% slower.
_STACK_PAIRS = 2 ** 19


def run_theorem2_batch(configs: int = 1000, seed: int = 0, ns=(2, 3, 4),
                       k_count: int = 200, z_count: int = 50,
                       r_range=(0.1, 2.0)) -> BatchReport:
    """Randomized sweep of theorem2_experiment over sampled configurations.

    Configuration i draws n = ns[i % len(ns)], a center p, a radius r, K
    outside B(p, r) and candidates inside B(p, r/sqrt(n)).  The rows of
    the configurations fold into one report: violations add up (so they
    count failing (link, candidate) pairs as in Thm2Report), margins and
    link slacks take the minimum, the monotonicity error the maximum.
    Configurations of equal n go through the chain together, about
    _STACK_PAIRS (K point, candidate) pairs at a time; each draws from its
    own seed in its own order.

    Raises ValueError, before any sampling, when configs, k_count or z_count
    is < 1, ns is empty or holds an n < 1, or r_range is not a pair
    (lo, hi) with 0 < lo <= hi <= _MAX_R.
    """
    if configs < 1:
        raise ValueError(f"configs must be >= 1, got {configs}")
    if k_count < 1 or z_count < 1:
        raise ValueError("K and the candidate set must be nonempty")
    if len(ns) == 0 or min(ns) < 1:
        raise ValueError(f"ns must be nonempty with every n >= 1, got {list(ns)}")
    if not (len(r_range) == 2 and 0 < r_range[0] <= r_range[1] <= _MAX_R):
        raise ValueError(f"r_range must be (lo, hi) with 0 < lo <= hi <= {_MAX_R:g}, "
                         f"got {list(r_range)}")
    children = np.random.SeedSequence([seed, 0x74686d32]).spawn(configs)
    stack = max(1, _STACK_PAIRS // (k_count * z_count))
    reps = []
    for j, n in enumerate(int(v) for v in ns):
        mine = children[j::len(ns)]         # configuration i has n = ns[i % len(ns)]
        for lo in range(0, len(mine), stack):
            reps.append(_chain(n, *_sample_configs(mine[lo:lo + stack], n, r_range,
                                                   k_count, z_count)))
    # the per-configuration fields of every stack, concatenated
    v, mm, ls, me = (np.concatenate(f) for f in list(zip(*reps))[3:])
    return BatchReport(
        configs=configs, violations=int(v.sum()), min_margin=float(mm.min()),
        min_link_slacks=tuple(ls.min(axis=0).tolist()),
        max_monotonicity_err=float(me.max()))
