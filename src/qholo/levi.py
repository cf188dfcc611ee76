"""Levi forms, Hermitian eigenvalue signatures, and convexity classification.

The mixed second-derivative block of a real-valued function is a Hermitian
matrix; its counts of positive, negative, and near-zero eigenvalues drive
every classification here.  Two independent engines compute signatures:
LAPACK's complex Hermitian eigensolver (primary) and a real-embedding
eigensolver (oracle).

Every step works on stacks: a matrix (k, k), a gradient or point (n,) is a
batch of one, and a stack (m, k, k) or (m, n) goes through each step in one
call (one jet evaluation, one matmul, one eigensolver call), each row as it
would go alone.  When a stack fails a check, the error raised is the one its
first failing row raises alone, with that row's index in the error's `row`
attribute.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .expr import Expr, _Frozen, _jet_blocks, eval_mixed_jet_batch
# Unused here; perfbench's tracer test still wraps this binding.
from .expr import eval_jet2  # noqa: F401

__all__ = [
    "LeviMatrix", "Signature", "BoundaryClassification", "FunctionClassification",
    "eig_signature", "signature_oracle", "tangent_frame", "restricted_levi_form",
    "classify_function", "classify_boundary_point", "sample_boundary",
]

EPS_HERM = 1e-10
EPS_GRAD = 1e-10
EPS_BDRY = 1e-10

_NON_FINITE = "matrix has a non-finite entry or overflows double precision"


def _norms(x, axes=1):
    """2-norms over the last `axes` axes, each taken as np.linalg.norm takes
    one array's (two strided BLAS dots), so stacked and single rows agree."""
    x = x.reshape(x.shape[:x.ndim - axes] + (1, -1))
    re, im = x.real, x.imag
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def _raise_first(checks, shape):
    """Raise the ValueError the first failing row raises on its own.  checks
    are (bad, message) pairs in the order one point is checked: bad marks
    failing rows (batch-shaped, or one bool for all), message(i) is flat row
    i's text.  The error's `row` is that row."""
    fails = np.array([np.broadcast_to(bad, shape).ravel() for bad, _ in checks])
    rows = np.flatnonzero(fails.any(axis=0))
    if rows.size:
        err = ValueError(checks[int(np.argmax(fails[:, rows[0]]))][1](rows[0]))
        err.row = int(rows[0])
        raise err


class LeviMatrix(_Frozen):
    """Hermitian matrix (k, k), or a stack of them (m, k, k), symmetrized at
    construction.

    herm_dev records the relative deviation of the input from Hermitian
    symmetry (Frobenius norms), a float or, for a stack, an (m,) array;
    inputs beyond EPS_HERM indicate a caller bug but are still symmetrized
    rather than rejected.  A non-finite entry, or an overflow while
    symmetrizing or taking norms, raises ValueError: no eigensolver gives a
    meaningful signature for such a matrix.
    """

    __slots__ = ("mat", "herm_dev")

    def __init__(self, mat):
        a = np.asarray(mat, dtype=complex)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if np.any(self._fill(a)):
            raise ValueError(_NON_FINITE)

    @classmethod
    def _checked(cls, a):
        """(LeviMatrix of a, mask of its non-finite matrices), no raise."""
        h = object.__new__(cls)
        return h, h._fill(a)

    def _fill(self, a):
        with np.errstate(over="ignore", invalid="ignore"):
            ah = np.conj(np.swapaxes(a, -1, -2))
            sym = (a + ah) / 2.0
            norm = _norms(a, 2)
            dev = _norms(a - ah, 2) / np.maximum(1.0, norm)
        sym.flags.writeable = False
        if np.ndim(dev):
            dev.flags.writeable = False
        object.__setattr__(self, "mat", sym)
        object.__setattr__(self, "herm_dev", dev if np.ndim(dev) else float(dev))
        return ~(np.isfinite(norm) & np.isfinite(dev)
                 & np.isfinite(sym).all(axis=(-2, -1)))

    @property
    def m(self):
        return self.mat.shape[-1]


class Signature(NamedTuple):
    """Counts of eigenvalues above ztol, below -ztol, and within [-ztol, ztol]:
    ints and a float for one matrix, (m,) arrays for a stack of m."""

    n_pos: int | np.ndarray
    n_neg: int | np.ndarray
    n_zero: int | np.ndarray
    ztol: float | np.ndarray

    def as_tuple(self):
        return (self.n_pos, self.n_neg, self.n_zero)


def _as_matrix(h):
    if isinstance(h, LeviMatrix):
        return h.mat
    return LeviMatrix(h).mat


def default_ztol(h):
    """Zero-eigenvalue tolerance 1e-8 * Frobenius norm (at least 1e-300),
    per matrix: a float, or an (m,) array for a stack."""
    z = np.maximum(1e-8 * _norms(_as_matrix(h), 2), 1e-300)
    return z if np.ndim(z) else float(z)


def _ztol_check(ztol):
    return (ztol is not None and bool(np.any(np.asarray(ztol) < 0)),
            lambda i: "ztol must be nonnegative")


def _signatures(h, ztol, eigvals):
    """The Signature of h from the eigenvalue rows eigvals(mat), each row
    against its own ztol."""
    _raise_first([_ztol_check(ztol)], ())
    mat = _as_matrix(h)
    zt = np.asarray(default_ztol(h) if ztol is None else ztol, dtype=float)
    vals = eigvals(mat)
    pos = np.sum(vals > zt[..., None], axis=-1)
    neg = np.sum(vals < -zt[..., None], axis=-1)
    counts = (pos, neg, vals.shape[-1] - pos - neg, np.broadcast_to(zt, pos.shape))
    return Signature(*(counts if mat.ndim == 3 else (c.item() for c in counts)))


def eig_signature(h, ztol: float | None = None):
    """Eigenvalue signature via LAPACK's complex Hermitian eigensolver, one
    eigensolver call for a stack."""
    return _signatures(h, ztol, np.linalg.eigvalsh)


def _embedded_eigvals(mat):
    re, im = mat.real, mat.imag
    emb = np.concatenate([np.concatenate([re, -im], axis=-1),
                          np.concatenate([im, re], axis=-1)], axis=-2)
    w = np.sort(np.linalg.eigvalsh(emb), axis=-1)
    return (w[..., 0::2] + w[..., 1::2]) / 2.0


def signature_oracle(h, ztol: float | None = None):
    """Signature via the real 2k x 2k embedding [[Re,-Im],[Im,Re]], stacked
    like eig_signature.

    The embedding's spectrum is the Hermitian spectrum doubled; adjacent
    sorted pairs are averaged before counting, so a threshold never splits
    a pair.
    """
    return _signatures(h, ztol, _embedded_eigvals)


def _gradient_checks(norm, n):
    return [(n < 2, lambda i: "need dimension at least 2 to form a tangent space"),
            (norm <= EPS_GRAD, lambda i: f"degenerate gradient: norm "
             f"{float(np.ravel(norm)[i]):.3e} <= {EPS_GRAD}")]


def _frame(g, norm, pivot=0):
    """Householder frames of gradients g (..., n) with norms `norm`; a
    degenerate gradient gets a meaningless frame."""
    n = g.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.conj(g) / norm[..., None]
        up = u[..., pivot]
        w = u.copy()    # hypot: np.abs of a complex array can differ in the last bit
        w[..., pivot] += np.where(up != 0, up / np.hypot(up.real, up.imag), 1.0)
        ww = (np.conj(w)[..., None, :] @ w[..., :, None])[..., 0, 0].real
        p = (np.eye(n, dtype=complex)
             - 2.0 * (w[..., :, None] * np.conj(w)[..., None, :]) / ww[..., None, None])
    return np.delete(p, pivot, axis=-1)


def tangent_frame(g, pivot: int = 0) -> np.ndarray:
    """Orthonormal basis (columns) of {v : sum_j g_j v_j = 0}: (n, n-1) for
    a gradient (n,), (m, n, n-1) for a stack (m, n).

    Built from a Householder reflection that aligns the Hermitian normal
    direction conj(g)/||g|| with coordinate axis `pivot`; the remaining
    reflection columns span the complex tangent space.  `pivot` only selects
    the internal reflection axis; the column span is independent of it.
    """
    g = np.asarray(g, dtype=complex)
    norm = _norms(g)
    _raise_first(_gradient_checks(norm, g.shape[-1]), norm.shape)
    return _frame(g, norm, pivot)


def _not_real(values, imag_tol=1e-9):
    bad = np.abs(values.imag) > imag_tol * np.maximum(1.0, np.abs(values.real))
    return bad, lambda i: (f"function is not real-valued at the point: value "
                           f"{complex(np.ravel(values)[i])}")


def restricted_levi_form(phi: Expr, p, eps_bdry: float = 1e-8, _extra=()):
    """Levi form of phi at a boundary point, restricted to the complex tangent
    space: returns (g, frame, restricted) with g the holomorphic gradient,
    frame the tangent_frame(g) columns and restricted = frame* H frame.  For
    a stack of points (m, n) each result has a leading point axis.

    Raises ValueError when phi is not real-valued at p, when |phi(p)| >
    eps_bdry (p is not on the boundary), or when the gradient is degenerate;
    then the checks in _extra, per row.
    """
    p = np.asarray(p, dtype=complex)
    (value, g, _, h_zzb), bad, error = _jet_blocks(
        phi, p[None, :] if p.ndim == 1 else p, mixed=True)
    if error is not None:           # check the rows before the first failure
        first = int(np.argmax(bad))
        if first == 0:
            raise error()
        value, g, h_zzb = value[:first], g[:first], h_zzb[:first]
    if p.ndim == 1:                 # a point is a batch of one
        value, g, h_zzb = value[0], g[0], h_zzb[0]
    h, h_bad = LeviMatrix._checked(h_zzb)
    norm = _norms(g)
    frame = _frame(g, norm)
    with np.errstate(over="ignore", invalid="ignore"):
        restricted, r_bad = LeviMatrix._checked(
            np.swapaxes(np.conj(frame), -1, -2) @ h.mat @ frame)
    off = np.hypot(value.real, value.imag)      # abs() of one complex, bit for bit
    _raise_first([
        _not_real(value), (h_bad, lambda i: _NON_FINITE),
        (off > eps_bdry, lambda i: f"point is not on the boundary: |phi(p)| = "
                                   f"{float(np.ravel(off)[i]):.3e} > {eps_bdry}"),
        *_gradient_checks(norm, g.shape[-1]), (r_bad, lambda i: _NON_FINITE),
        *_extra], value.shape)
    if error is not None:
        raise error()
    return g, frame, restricted


class FunctionClassification(NamedTuple):
    """Minimal q per sampled point, an (m,) array (n+1 means no valid q <= n),
    and overall; points is the read-only (m, n) array of the sampled points
    and signatures their stacked Signature."""

    n: int
    points: np.ndarray
    signatures: Signature
    per_point_q: np.ndarray
    overall_q: int

    @property
    def overall_text(self):
        q, n = self.overall_q, self.n
        return str(q) if q <= n else f"not q-convex for any q <= {n}"


def classify_function(f: Expr, points, ztol: float | None = None) -> FunctionClassification:
    """Minimal q with at least n-q+1 positive Levi eigenvalues, per point.

    That minimum is q = n - n_pos + 1; a point with no positive eigenvalues
    reports q = n+1 ("not q-convex for any q <= n").  The overall value is
    the maximum over the sample.  All points go through one jet evaluation
    and one eigensolver call.
    """
    n = f.n
    pts = np.array(points, dtype=complex, order="C")     # a copy, frozen below
    if not len(pts):
        raise ValueError("need at least one point")
    pts.flags.writeable = False
    values, _, _, h_zzb = eval_mixed_jet_batch(f, pts)
    h, bad = LeviMatrix._checked(h_zzb)
    _raise_first([_not_real(values), (bad, lambda i: _NON_FINITE),
                  _ztol_check(ztol)], values.shape)
    sigs = eig_signature(h, ztol)
    qs = n - sigs.n_pos + 1
    return FunctionClassification(n=n, points=pts, signatures=sigs,
                                  per_point_q=qs, overall_q=int(qs.max()))


class BoundaryClassification(NamedTuple):
    """Classification of boundary points of {phi = 0}: point and gradient
    (n,) and ints for one point, (m, n) and (m,) arrays for a stack of m.

    strict_q = n - n_pos is the minimal q with at least n-q positive
    restricted eigenvalues, weak_q = n - n_pos - n_zero counts nonnegative
    ones the same way; q = n, which every point has, stands for "none".
    """

    point: np.ndarray
    gradient: np.ndarray
    restricted: Signature
    strict_q: int | np.ndarray
    weak_q: int | np.ndarray
    n: int


def classify_boundary_point(phi: Expr, p, ztol: float | None = None,
                            eps_bdry: float = 1e-8) -> BoundaryClassification:
    """Restricted-signature classification of a smooth boundary point, or of
    a stack of points (m, n) in one pass.

    Requires |phi(p)| <= eps_bdry (point on the zero set) and a
    nondegenerate gradient (see restricted_levi_form).
    """
    p = np.asarray(p, dtype=complex)
    g, _, restricted = restricted_levi_form(phi, p, eps_bdry, [_ztol_check(ztol)])
    sig = eig_signature(restricted, ztol)
    n = phi.n
    return BoundaryClassification(
        point=p, gradient=g, restricted=sig, strict_q=n - sig.n_pos,
        weak_q=n - sig.n_pos - sig.n_zero, n=n)


def _project(phi, z, eps_bdry, max_iter, cap):
    """Damped zero-finding steps on the rows of z, in place, all live rows at
    once; a row that fails to evaluate leaves them.  Returns the converged and
    failed masks and the error builder of the lowest failed row, or None."""
    converged = np.zeros(len(z), dtype=bool)
    failed = np.zeros(len(z), dtype=bool)
    error = None
    live = np.arange(len(z))
    for _ in range(max_iter):
        if live.size == 0:
            break
        (value, g, _), bad, fail = _jet_blocks(phi, z[live], order=1)
        if fail is not None:
            if not failed[:live[np.argmax(bad)]].any():     # lowest so far
                error = fail
            failed[live[bad]] = True
            live, value, g = live[~bad], value[~bad], g[~bad]
        done = np.abs(value) <= eps_bdry
        converged[live[done]] = True
        gn2 = np.sum(g.real ** 2 + g.imag ** 2, axis=1)
        step_on = ~done & (gn2 > EPS_GRAD ** 2)
        live, value, g, gn2 = (live[step_on], value[step_on], g[step_on],
                               gn2[step_on])
        step = value.real[:, None] * np.conj(g) / (2.0 * gn2[:, None])
        slen = np.linalg.norm(step, axis=1)
        long_ = slen > cap
        step[long_] *= (cap / slen[long_])[:, None]
        z[live] = z[live] - step
    return converged, failed, error


def sample_boundary(phi: Expr, count: int, seed: int, box: float = 2.0,
                    eps_bdry: float = EPS_BDRY, max_iter: int = 100,
                    center=None) -> np.ndarray:
    """Draw approximate zeros of phi by damped projection of random box points.

    Each draw starts uniform in the box around `center` and iterates the
    first-order zero-finding step z <- z - phi(z) conj(g)/(2 ||g||^2) with the
    step length capped, until |phi| <= eps_bdry; a draw that has not
    converged after max_iter steps, or meets a vanishing gradient, is
    discarded.  The result is the first `count` converged draws in draw
    order, and sampling stalls (RuntimeError) when 60 * count draws yield
    fewer.  Draws run in blocks, each Newton step over all live draws of a
    block at once and on values and gradients only (as eval_jet1_batch); the
    generator is deterministic in `seed`.  A draw that fails to evaluate
    raises its EvalError (`row` its index in draw order) only when it comes
    before the count-th converged draw.
    """
    n = phi.n
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x62647279]))
    if center is None:
        center = np.zeros(n, dtype=complex)
    center = np.asarray(center, dtype=complex)
    out = [np.empty((0, n), dtype=complex)]
    got = drawn = 0
    limit = 60 * count
    cap = 0.5 * box
    while got < count:
        if drawn >= limit:
            raise RuntimeError(
                f"boundary sampling stalled: {got}/{count} points after "
                f"{drawn + 1} draws")
        need = count - got
        # enough draws for the acceptance rate seen so far (1/60 at worst)
        rate = max(got / drawn if drawn else 1.0, 1.0 / 60.0)
        block = min(limit - drawn, math.ceil(need / rate))
        drawn += block
        x = rng.uniform(-box, box, size=(block, 2 * n))
        z = center + x[:, :n] + 1j * x[:, n:]
        converged, failed, error = _project(phi, z, eps_bdry, max_iter, cap)
        kept = np.flatnonzero(converged)[:need]
        first = int(np.argmax(failed))      # the lowest failed draw, if any
        if error is not None and (len(kept) < need or first < kept[-1]):
            raise error(drawn - block + first)
        out.append(z[kept])
        got += len(kept)
    return np.concatenate(out)

