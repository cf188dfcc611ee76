"""Peak-function pipeline on strictly convex model domains.

Given a boundary point p of a bounded strictly convex model domain and a
validity level q, the pipeline picks a slice basis L (outward normal plus
n-q directions of Levi positivity), an affine subspace M of complex dimension
n-q through p inside span L, and builds the extension

    f(z) = exp(c <z-p, nu>) * g(||b(z)||)

where b(z) collects the coordinates of z-p orthogonal to M and g is a flat
smooth cutoff supported in [0, r).  On the domain closure, f peaks exactly at
p, vanishes outside a tube around the affine M, and is holomorphic in the
n-q slice variables, which makes it (q+1)-holomorphic; the verification step
measures all of that numerically rather than assuming it.  Its residual
check runs on closed-form 2-jets of f (PeakExtension.jet2_batch), which
finite_diff_jet can check as an independent oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import expr as ex
from . import levi
from .forms import residual_from_jet

__all__ = [
    "ModelDomain", "CutoffG", "SliceBasis", "PeakConstruction", "PeakExtension",
    "PeakReport", "TubeError", "select_slice", "build_peak_h", "assemble_peak",
    "verify_peak",
]


class TubeError(ValueError):
    """Tube invariants could not be satisfied within the tuning limits."""


class ModelDomain(ex._Frozen):
    """Bounded domain {phi < 0} with strictly convex geometry certified
    by construction (balls and ellipsoids) or vouched for by the caller."""

    __slots__ = ("n", "phi", "name", "box_halfwidth", "box_center", "convex_certified")

    def __init__(self, n, phi, name, box_halfwidth, box_center, convex_certified):
        self._set((n, phi, name, box_halfwidth, box_center, convex_certified))

    @staticmethod
    def ball(n: int, radius: float = 1.0, center=None) -> "ModelDomain":
        if radius <= 0:
            raise ValueError("radius must be positive")
        if center is None:
            center = np.zeros(n, dtype=complex)
        center = np.asarray(center, dtype=complex)
        phi = None
        for k in range(n):
            v = ex.Var(n, k + 1)
            d = v if center[k] == 0 else v - center[k]
            term = d * ex.conjugate(d)
            phi = term if phi is None else phi + term
        phi = phi - radius ** 2
        return ModelDomain(n=n, phi=phi, name=f"ball{n}",
                           box_halfwidth=1.05 * radius,
                           box_center=center, convex_certified=True)

    @staticmethod
    def ellipsoid(a, b) -> "ModelDomain":
        """Domain sum_i a_i |z_i|^2 + sum_i b_i Re(z_i^2) < 1.

        Strict convexity requires a_i > |b_i| for every axis (the real
        quadratic form has axis coefficients a_i + b_i and a_i - b_i).
        """
        a = [float(v) for v in a]
        b = [float(v) for v in b]
        n = len(a)
        if len(b) != n or n < 1:
            raise ValueError("coefficient lists must have equal positive length")
        gaps = [ai - abs(bi) for ai, bi in zip(a, b)]
        if min(gaps) <= 0:
            raise ValueError(
                "not strictly convex: need a_i > |b_i| on every axis")
        phi = None
        for k in range(n):
            v = ex.Var(n, k + 1)
            sq = v * ex.conjugate(v)
            term = sq if a[k] == 1 else a[k] * sq
            if b[k] != 0:
                rez2 = v ** 2 + ex.conjugate(v) ** 2
                half = abs(b[k]) / 2.0
                part = rez2 if half == 1 else half * rez2
                term = term + part if b[k] > 0 else term - part
            phi = term if phi is None else phi + term
        phi = phi - 1.0
        half = 1.02 * max(1.0 / np.sqrt(g) for g in gaps)
        return ModelDomain(n=n, phi=phi, name=f"ellipsoid{n}",
                           box_halfwidth=float(half),
                           box_center=np.zeros(n, dtype=complex),
                           convex_certified=True)

    @staticmethod
    def from_expr(n, phi, box_halfwidth, name="custom", center=None,
                  convex_certified=False) -> "ModelDomain":
        if center is None:
            center = np.zeros(n, dtype=complex)
        return ModelDomain(n=n, phi=phi, name=name,
                           box_halfwidth=float(box_halfwidth),
                           box_center=np.asarray(center, dtype=complex),
                           convex_certified=bool(convex_certified))

    def sample_interior(self, count: int, rng) -> np.ndarray:
        """Uniform rejection sample of {phi < 0} from the bounding box, in
        blocks of max(4 * need, 2000) draws; a draw that fails to evaluate
        raises only when it comes before the count-th interior one."""
        def accept(z):
            values, bad, error = ex._values(self.phi, z)
            return values.real < 0, bad, error

        return levi._sample_box(
            f"{self.name} interior", self.n, count, rng, self.box_center,
            self.box_halfwidth, lambda need, rate: max(4 * need, 2000), accept,
            4000 * max(4 * count, 2000))

    def sample_boundary(self, count: int, seed: int) -> np.ndarray:
        return levi.sample_boundary(self.phi, count, seed,
                                    box=self.box_halfwidth,
                                    center=self.box_center)


class CutoffG(ex._Frozen):
    """Flat smooth cutoff g(t) = s(r-t)/(s(r-t)+s(t)), s(u)=exp(-1/u) for u>0.

    Exactly 1 for t <= 0, exactly 0 for t >= r, smooth and nonincreasing in
    between; every derivative vanishes at both ends of the transition.
    """

    __slots__ = ("r",)

    def __init__(self, r):
        if not r > 0:
            raise ValueError("transition radius must be positive")
        self._set((r,))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.jet(np.atleast_1d(t))[0]
        return float(out[0]) if t.ndim == 0 else out

    def jet(self, t):
        """(g, g', g'') at an array of t.

        With L = 1/(r-t) - 1/t, g = 1/(1 + e^L), so g' = -g(1-g) L' and
        g'' = -(1-2g) g' L' - g(1-g) L''; 1-g is taken as s(t)/(s(r-t)+s(t)),
        without cancellation.  Where both s values underflow (only possible
        for r < 2/745), g and 1-g are 1/(1+e^L) and 1/(1+e^-L) instead.  Both
        derivatives are exactly 0 outside 0 < t < r and wherever g(1-g)
        underflows to 0.
        """
        t = np.asarray(t, dtype=float)
        g = np.where(t <= 0.0, 1.0, 0.0)
        d1 = np.zeros_like(g)
        d2 = np.zeros_like(g)
        mid = np.flatnonzero((t > 0.0) & (t < self.r))
        a = np.exp(-1.0 / (self.r - t[mid]))
        b = np.exp(-1.0 / t[mid])
        s = a + b
        under = s == 0.0
        s[under] = 1.0
        gm, gc = a / s, b / s
        lf = 1.0 / (self.r - t[mid[under]]) - 1.0 / t[mid[under]]
        with np.errstate(over="ignore"):
            gm[under], gc[under] = 1.0 / (1.0 + np.exp(lf)), 1.0 / (1.0 + np.exp(-lf))
        g[mid] = gm
        # g(1-g) underflows to 0 where g is flat in double precision; where
        # it does not, L' and L'' are finite
        live = np.where(under, gm * gc, gm * b) > 0.0
        mid, gm, gc = mid[live], gm[live], gc[live]
        tm = t[mid]
        u = self.r - tm
        w = gm * gc
        dl = 1.0 / u ** 2 + 1.0 / tm ** 2
        d1[mid] = -w * dl
        d2[mid] = -(gc - gm) * d1[mid] * dl - w * (2.0 / u ** 3 - 2.0 / tm ** 3)
        return g, d1, d2


class SliceBasis(NamedTuple):
    """Output of slice selection at a boundary point."""

    nu: np.ndarray            # outward unit normal (gradient direction)
    L: np.ndarray             # n x (n-q+1), orthonormal, first column nu
    tangent_vectors: np.ndarray   # the lifted positivity directions
    eigenvalues: np.ndarray   # restricted Levi eigenvalues, descending
    n_pos: int
    gram_err: float


def _canonical_phases(cols):
    """Rotate each column so its largest-modulus entry is positive real."""
    cols = np.array(cols, dtype=complex)
    for j in range(cols.shape[1]):
        k = int(np.argmax(np.abs(cols[:, j])))
        piv = cols[k, j]
        if piv != 0:
            cols[:, j] *= np.conj(piv) / abs(piv)
    return cols


def select_slice(dom: ModelDomain, p, q: int, ztol: float | None = None) -> SliceBasis:
    """Normal direction plus n-q orthonormal Levi-positive tangent directions.

    The tangent directions are eigenvectors of the Levi form restricted to
    the complex tangent space, lifted back through the Householder frame;
    fewer than n-q positive restricted eigenvalues is an error (the boundary
    point is not strictly q-pseudoconvex).
    """
    n = dom.n
    if not 1 <= q <= n - 1:
        raise ValueError(f"q must be in [1, {n - 1}] for slice selection")
    g, frame, restricted = levi.restricted_levi_form(
        dom.phi, np.asarray(p, dtype=complex))
    nu = np.conj(g) / float(np.linalg.norm(g))
    vals, vecs = np.linalg.eigh(restricted.mat)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    if ztol is None:
        ztol = levi.default_ztol(restricted)
    n_pos = int(np.sum(vals > ztol))
    need = n - q
    if n_pos < need:
        raise ValueError(
            f"insufficient positive restricted eigenvalues: {n_pos} < {need} "
            f"(point is not strictly {q}-pseudoconvex)")
    lifted = _canonical_phases(frame @ vecs[:, :need])
    basis = np.column_stack([nu, lifted])
    gram_err = float(np.linalg.norm(
        basis.conj().T @ basis - np.eye(need + 1)))
    return SliceBasis(nu=nu, L=basis, tangent_vectors=lifted,
                      eigenvalues=vals, n_pos=n_pos, gram_err=gram_err)


def build_peak_h(p, nu, c: float) -> ex.Expr:
    """The exponential peak h(z) = exp(c sum_j conj(nu_j) (z_j - p_j)).

    h(p) = 1 exactly; on a strictly convex domain whose outward normal at p
    is nu, the exponent has negative real part on the closure minus {p},
    so |h| < 1 there.
    """
    if c <= 0:
        raise ValueError("peak scale c must be positive")
    p = np.asarray(p, dtype=complex)
    nu = np.asarray(nu, dtype=complex)
    n = p.shape[0]
    arg = None
    for k in range(n):
        coef = complex(c * np.conj(nu[k]))
        if coef == 0:
            continue
        v = ex.Var(n, k + 1)
        d = v if p[k] == 0 else v - p[k]
        term = d if coef == 1 else coef * d
        arg = term if arg is None else arg + term
    if arg is None:
        raise ValueError("direction nu must be nonzero")
    return ex.Exp(n, arg)


class PeakExtension(ex._Frozen):
    """Callable z -> exp(c <z-p, nu>) g(||b(z)||), exactly zero off the tube;
    complement is the n x q orthonormal basis of M-perp.

    Accepts a single point (n,) or a batch (m, n).
    """

    __slots__ = ("p", "nu", "c", "complement", "cutoff", "r")

    def __init__(self, p, nu, c, complement, cutoff, r):
        self._set((p, nu, c, complement, cutoff, r))

    def b_norms(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=complex))
        b = (pts - self.p[None, :]) @ np.conj(self.complement)
        return np.linalg.norm(b, axis=1)

    def __call__(self, z):
        pts = np.asarray(z, dtype=complex)
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        t = self.b_norms(pts)
        on = ~(t >= self.r)     # f is exactly 0 off the tube, where h may overflow
        w1 = (pts - self.p[None, :]) @ np.conj(self.nu)
        vals = np.zeros(len(t), dtype=complex)
        vals[on] = np.exp(self.c * w1[on]) * self.cutoff(t[on])
        return complex(vals[0]) if scalar else vals

    def jet2_batch(self, pts):
        """Closed-form 2-jets of f = h G(s) at the rows of pts, shape (m, n).

        Returns one stacked Jet2, as eval_jet2_batch does.  h's jet comes
        from eval_jet2_batch; s = ||b||^2 with b = (z-p) A, A = conj(comp),
        has s_z = conj(b) A^T, s_zb = b A^H, s_zzb = A A^H and s_zz = 0; and
        G(s) = g(sqrt s) has G' = g'/(2t), G'' = (t g'' - g')/(4t^3), both 0
        where the cutoff is flat.
        """
        pts = np.asarray(pts, dtype=complex)
        hv, h_z, _, h_zz, _, _ = ex.eval_jet2_batch(
            build_peak_h(self.p, self.nu, self.c), pts)
        a = np.conj(self.complement)
        b = (pts - self.p[None, :]) @ a
        s_z = np.conj(b) @ a.T
        s_zb = b @ a.conj().T
        t = np.linalg.norm(b, axis=1)
        g, d1, d2 = self.cutoff.jet(t)
        ts = np.where((d1 == 0.0) & (d2 == 0.0), 1.0, t)   # G' = G'' = 0 there
        gp = d1 / (2.0 * ts)
        gpp = (ts * d2 - d1) / (4.0 * ts ** 3)
        hp, hpp = hv * gp, hv * gpp
        value = hv * g
        g_z = h_z * g[:, None] + hp[:, None] * s_z
        g_zb = hp[:, None] * s_zb
        cross = h_z[:, :, None] * s_z[:, None, :]
        f_zz = (h_zz * g[:, None, None]
                + gp[:, None, None] * (cross + np.swapaxes(cross, 1, 2))
                + hpp[:, None, None] * s_z[:, :, None] * s_z[:, None, :])
        f_zzb = ((h_z * gp[:, None] + hpp[:, None] * s_z)[:, :, None] * s_zb[:, None, :]
                 + hp[:, None, None] * (a @ a.conj().T)[None])
        f_zbzb = hpp[:, None, None] * s_zb[:, :, None] * s_zb[:, None, :]
        return ex.Jet2(value, g_z, g_zb, f_zz, f_zzb, f_zbzb)


class PeakConstruction(NamedTuple):
    p: np.ndarray
    q: int
    nu: np.ndarray
    L: np.ndarray
    M: np.ndarray             # n x (n-q), first column nu
    complement: np.ndarray    # n x q
    c: float
    rho_W: float
    r: float
    rho_V: float
    cutoff: CutoffG
    r_halvings: int
    w_steps: int
    tube_min_phi: float       # min phi over the sampled wall of the tube
    cap_max_dist: float       # max ||z-p|| among sampled tube points with |h|>=1
    slice_info: SliceBasis

    def __repr__(self):     # without slice_info
        fields = zip(self._fields[:-1], self)
        return f"PeakConstruction({', '.join(f'{f}={v!r}' for f, v in fields)})"


def _tube_wall_points(rng, p, m_basis, comp, rho_w, r, count):
    """Samples of the tube wall: ||w|| = rho_W crossed with ||b|| < r."""
    dim_w = m_basis.shape[1]
    dim_b = comp.shape[1]
    raw = rng.normal(size=(count, 2 * dim_w))
    w = raw[:, :dim_w] + 1j * raw[:, dim_w:]
    w *= rho_w / np.linalg.norm(w, axis=1, keepdims=True)
    raw_b = rng.normal(size=(count, 2 * dim_b))
    b = raw_b[:, :dim_b] + 1j * raw_b[:, dim_b:]
    radii = r * rng.uniform(0.0, 1.0, size=count) ** (1.0 / (2 * dim_b))
    b *= (radii / np.linalg.norm(b, axis=1))[:, None]
    return p[None, :] + w @ m_basis.T + b @ comp.T


def assemble_peak(dom: ModelDomain, p, q: int, c: float = 1.0,
                  rho_V: float = 0.5, r="auto", seed: int = 0,
                  tube_samples: int = 500, estimate_samples: int = 400,
                  max_r_halvings: int = 20, max_w_steps: int = 10):
    """Build the peak extension, tuning the tube to the sampled invariants.

    Two sampled conditions must hold: the tube wall (||w|| = rho_W, ||b|| < r)
    stays outside the open domain, and tube points of the closure where
    |h| >= 1 stay within rho_V of p.  Tuning halves r (inner loop) and then
    widens rho_W (outer loop); the first satisfying pair wins.  Returns
    (PeakConstruction, PeakExtension).
    """
    if not dom.convex_certified:
        raise ValueError("domain slices are not certified strictly convex")
    n = dom.n
    p = np.asarray(p, dtype=complex)
    info = select_slice(dom, p, q)
    nu = info.nu
    m_basis = np.column_stack([nu, info.tangent_vectors[:, :n - q - 1]])
    u, _, _ = np.linalg.svd(m_basis)
    comp = _canonical_phases(u[:, n - q:])

    seq = np.random.SeedSequence([seed, 0x7065616b])
    rng_est, rng_tube, rng_cap = (np.random.default_rng(s) for s in seq.spawn(3))

    interior = dom.sample_interior(estimate_samples, rng_est)
    boundary = dom.sample_boundary(max(estimate_samples // 2, 50), seed + 1)
    closure = np.concatenate([interior, boundary], axis=0)
    d = closure - p[None, :]
    w_sup = float(np.max(np.linalg.norm(d @ np.conj(m_basis), axis=1)))
    b_closure = np.linalg.norm(d @ np.conj(comp), axis=1)
    b_sup = float(np.max(b_closure))
    scale = max(dom.box_halfwidth, 1e-3)
    rho_w0 = 1.1 * w_sup + 0.1 * scale
    r0 = 0.5 * b_sup if r == "auto" else float(r)
    if r0 <= 0:
        raise ValueError("tube radius must be positive")

    h_vals_closure = np.abs(np.exp(c * (d @ np.conj(nu))))
    dist_closure = np.linalg.norm(d, axis=1)

    last_witness = None
    for w_step in range(max_w_steps + 1):
        rho_w = rho_w0 * (1.0 + 0.25 * w_step)
        for halving in range(max_r_halvings + 1):
            r_try = r0 / 2 ** halving
            wall = _tube_wall_points(rng_tube, p, m_basis, comp, rho_w,
                                     r_try, tube_samples)
            phi_wall = ex.eval_batch(dom.phi, wall).real
            min_phi = float(np.min(phi_wall))
            if min_phi < 0.0:
                last_witness = wall[int(np.argmin(phi_wall))]
                continue
            cap = (b_closure < r_try) & (h_vals_closure >= 1.0)
            cap_max = float(np.max(dist_closure[cap])) if np.any(cap) else 0.0
            if cap_max > rho_V:
                last_witness = closure[cap][int(np.argmax(dist_closure[cap]))]
                continue
            cutoff = CutoffG(r_try)
            extension = PeakExtension(p=p, nu=nu, c=float(c), complement=comp,
                                      cutoff=cutoff, r=float(r_try))
            cons = PeakConstruction(
                p=p, q=q, nu=nu, L=info.L, M=m_basis, complement=comp,
                c=float(c), rho_W=float(rho_w), r=float(r_try),
                rho_V=float(rho_V), cutoff=cutoff, r_halvings=halving,
                w_steps=w_step, tube_min_phi=min_phi, cap_max_dist=cap_max,
                slice_info=info)
            return cons, extension
    raise TubeError(
        "tube conditions unsatisfiable within parameter limits; "
        f"last violating sample: {last_witness}")


class PeakReport(NamedTuple):
    """The four verification checks with their measured quantities."""

    peak_value_err: float          # (a) |f(p) - 1|
    sup_outside: float             # (b) sampled sup |f| on closure minus B(p, rho_V)
    sup_margin: float              #     1 - sup_outside
    max_residual: float            # (c) worst (q+1)-residual over closed-form jets
    residual_points: int
    vanish_max: float              # (d) max |f| at sampled points with ||b|| >= r
    vanish_points: int
    peak_tol: float
    margin_min: float
    residual_tol: float

    @property
    def peak_ok(self):
        return self.peak_value_err <= self.peak_tol

    @property
    def sup_ok(self):
        return self.sup_margin >= self.margin_min

    @property
    def residual_ok(self):
        return self.max_residual <= self.residual_tol

    @property
    def vanish_ok(self):
        return self.vanish_max == 0.0

    @property
    def passed(self):
        return self.peak_ok and self.sup_ok and self.residual_ok and self.vanish_ok


def verify_peak(f: PeakExtension, dom: ModelDomain, p, q: int,
                rho_V: float = 0.5, boundary_samples: int = 200,
                interior_samples: int = 200, residual_points: int = 200,
                seed: int = 0, residual_tol: float = 1e-5, margin_min: float = 1e-3,
                peak_tol: float = 1e-12) -> PeakReport:
    """Measure the four almost-peak properties of an assembled extension.

    (a) f(p) = 1; (b) sampled sup of |f| over the closure minus B(p, rho_V)
    stays below 1 by margin_min; (c) the (q+1)-residual of f's closed-form
    jets (f.jet2_batch, one evaluation and one residual call) at interior
    points, half of them steered into the tube where the cutoff actually
    varies, stays below residual_tol -- the form vanishes identically, so
    this measures roundoff; (d) f is exactly zero at sampled points with
    ||b|| >= r.
    """
    p = np.asarray(p, dtype=complex)
    seq = np.random.SeedSequence([seed, 0x76657269])
    rng_int, rng_res = (np.random.default_rng(s) for s in seq.spawn(2))

    peak_value_err = abs(f(p) - 1.0)

    interior = dom.sample_interior(interior_samples, rng_int)
    boundary = dom.sample_boundary(boundary_samples, seed + 17)
    closure = np.concatenate([interior, boundary], axis=0)
    dist = np.linalg.norm(closure - p[None, :], axis=1)
    away = closure[dist > rho_V]
    sup_outside = float(np.max(np.abs(f(away)))) if len(away) else 0.0

    pts = _residual_points(f, dom, p, residual_points, rng_res)
    worst = float(np.max(residual_from_jet(f.jet2_batch(pts), q + 1), initial=0.0))

    b_all = f.b_norms(closure)
    ring = closure[b_all >= f.r]
    if len(ring) < 10:
        extra = _ring_points(f, p, 25, rng_res)
        ring = np.concatenate([ring, extra], axis=0) if len(ring) else extra
    vanish_max = float(np.max(np.abs(f(ring))))

    return PeakReport(
        peak_value_err=float(peak_value_err), sup_outside=sup_outside,
        sup_margin=float(1.0 - sup_outside), max_residual=float(worst),
        residual_points=len(pts),
        vanish_max=vanish_max, vanish_points=len(ring),
        peak_tol=peak_tol, margin_min=margin_min, residual_tol=residual_tol)


def _residual_points(f: PeakExtension, dom: ModelDomain, p, count, rng):
    """Interior points for the residual check, half steered into the cutoff
    transition.

    Uniform interior draws mostly miss the tube (where the cutoff varies and
    the construction is actually stressed), so half of the budget rescales
    the complement coordinate of a pool of interior points to ||b|| in
    (0, r), keeping rescaled points that remain interior, in pool order.
    One target radius is drawn per pool point with ||b|| >= 1e-12 up to the
    last one needed, as a point-at-a-time loop would draw them.
    """
    if count < 1:
        return np.empty((0, len(p)), dtype=complex)
    uniform = dom.sample_interior(count, rng)
    half = count // 2
    pool = dom.sample_interior(4 * count, rng)
    comp = f.complement
    # stacked matrix-vector products and levi._norms round each row as one
    # product and one np.linalg.norm call do
    b = (np.conj(comp.T) @ (pool - p)[:, :, None])[..., 0]
    bn = levi._norms(b)
    use = bn >= 1e-12
    pool, b, bn = pool[use], b[use], bn[use]
    state = rng.bit_generator.state
    target = f.r * rng.uniform(0.15, 0.95, size=len(pool))
    shifted = pool + (comp @ b[:, :, None])[..., 0] * (target / bn - 1.0)[:, None]
    inside = ex.eval_batch(dom.phi, shifted).real < 0
    # the loop draws at pool point i while fewer than half points before it
    # were kept
    rng.bit_generator.state = state
    rng.uniform(0.15, 0.95, size=np.count_nonzero(np.cumsum(inside) - inside < half))
    steered = shifted[inside][:half]
    return np.concatenate([uniform[:count - len(steered)], steered])


def _ring_points(f: PeakExtension, p, count, rng):
    """Points with ||b|| in [r, 1.5r], where the extension must be exactly 0."""
    dim_b = f.complement.shape[1]
    n = len(p)
    dim_w = n - dim_b
    raw = rng.normal(size=(count, 2 * dim_b))
    b = raw[:, :dim_b] + 1j * raw[:, dim_b:]
    radii = f.r * rng.uniform(1.0, 1.5, size=count)
    b *= (radii / np.linalg.norm(b, axis=1))[:, None]
    raw_w = rng.normal(size=(count, 2 * dim_w))
    w = 0.1 * f.r * (raw_w[:, :dim_w] + 1j * raw_w[:, dim_w:])
    u, _, _ = np.linalg.svd(f.complement)
    m_basis = u[:, dim_b:]
    return p[None, :] + b @ f.complement.T + w @ m_basis.T
