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

from .expr import EvalError, Expr, _Frozen, _jet_blocks
# Unused here; perfbench's tracer test still wraps this binding.
from .expr import eval_jet2  # noqa: F401

__all__ = [
    "LeviMatrix", "Signature", "BoundaryClassification", "FunctionClassification",
    "eig_signature", "signature_oracle", "tangent_frame", "restricted_levi_form",
    "classify_function", "classify_boundary_point", "sample_boundary", "default_ztol",
]

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


def _raise_first(checks, size):
    """Raise the error the first failing row of `size` rows raises on its
    own.  checks are (bad, error) pairs in the order one point is checked:
    bad marks failing rows (one per row, or one bool for all; None for no
    failures), error(i) is flat row i's exception.  Its `row` is that row."""
    checks = [c for c in checks if c[0] is not None]
    fails = np.array([np.broadcast_to(np.ravel(bad), size) for bad, _ in checks])
    rows = np.flatnonzero(fails.any(axis=0))
    if rows.size:
        row = int(rows[0])
        err = checks[int(np.argmax(fails[:, row]))][1](row)
        err.row = row
        raise err


def _error(text):     # the builder of an error that is the same for every row
    return lambda i: ValueError(text)


class LeviMatrix(_Frozen):
    """Hermitian matrix (k, k), or a stack of them (m, k, k), symmetrized at
    construction.

    herm_dev records the relative deviation of the input from Hermitian
    symmetry (Frobenius norms), a float or, for a stack, an (m,) array; a
    non-Hermitian input is symmetrized rather than rejected.  A non-finite
    entry, or an overflow while symmetrizing or taking norms, raises
    ValueError: no eigensolver gives a meaningful signature for such a matrix.
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
            _error("ztol must be nonnegative"))


def _signatures(h, ztol, eigvals):
    """The Signature of h from the eigenvalue rows eigvals(mat), each row
    against its own ztol."""
    _raise_first([_ztol_check(ztol)], 1)
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
    return [(n < 2, _error("need dimension at least 2 to form a tangent space")),
            (norm <= EPS_GRAD, lambda i: ValueError(
                f"degenerate gradient: norm {float(np.ravel(norm)[i]):.3e} <= {EPS_GRAD}"))]


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
    _raise_first(_gradient_checks(norm, g.shape[-1]), norm.size)
    return _frame(g, norm, pivot)


def _not_real(values, imag_tol=1e-9):
    bad = np.abs(values.imag) > imag_tol * np.maximum(1.0, np.abs(values.real))
    return bad, lambda i: ValueError(f"function is not real-valued at the point: "
                                     f"value {complex(np.ravel(values)[i])}")


def restricted_levi_form(phi: Expr, p, eps_bdry: float = 1e-8, _extra=()):
    """Levi form of phi at a boundary point, restricted to the complex tangent
    space: returns (g, frame, restricted) with g the holomorphic gradient,
    frame the tangent_frame(g) columns and restricted = frame* H frame.  For
    a stack of points (m, n) each result has a leading point axis.

    Raises EvalError when phi fails to evaluate at p, then ValueError when
    phi is not real-valued, when |phi(p)| > eps_bdry (p is not on the
    boundary) or when the gradient is degenerate, then the checks in _extra.
    """
    p = np.asarray(p, dtype=complex)
    (value, g, _, h_zzb), bad, error = _jet_blocks(phi, np.atleast_2d(p), mixed=True)
    if p.ndim == 1:                 # a point is a batch of one
        value, g, h_zzb = value[0], g[0], h_zzb[0]
    h, h_bad = LeviMatrix._checked(h_zzb)
    with np.errstate(over="ignore", invalid="ignore"):     # failed or huge rows
        norm = _norms(g)
        frame = _frame(g, norm)
        restricted, r_bad = LeviMatrix._checked(
            np.swapaxes(np.conj(frame), -1, -2) @ h.mat @ frame)
    off = np.hypot(value.real, value.imag)      # abs() of one complex, bit for bit
    _raise_first([
        (bad, error), _not_real(value), (h_bad, _error(_NON_FINITE)),
        (off > eps_bdry, lambda i: ValueError(
            f"point is not on the boundary: |phi(p)| = "
            f"{float(np.ravel(off)[i]):.3e} > {eps_bdry}")),
        *_gradient_checks(norm, g.shape[-1]), (r_bad, _error(_NON_FINITE)),
        *_extra], np.size(value))
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
    (values, _, _, h_zzb), bad, error = _jet_blocks(f, pts, mixed=True)
    h, h_bad = LeviMatrix._checked(h_zzb)
    _raise_first([(bad, error), _not_real(values), (h_bad, _error(_NON_FINITE)),
                  _ztol_check(ztol)], values.size)
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
    once; a row that fails to evaluate, or whose step overflows (a step or
    step length that is not finite), leaves them.  Returns the converged and
    failed masks and the error builder of the lowest failed row, or None."""
    converged, failed = np.zeros((2, len(z)), dtype=bool)
    error = None
    live = np.arange(len(z))
    for _ in range(max_iter):
        if live.size == 0:
            break
        (value, g, _), bad, fail = _jet_blocks(phi, z[live], order=1)
        with np.errstate(all="ignore"):     # failed, flat or huge gradients
            gn2 = np.sum(g.real ** 2 + g.imag ** 2, axis=1)
            step = value.real[:, None] * np.conj(g) / (2.0 * gn2[:, None])
            slen = np.linalg.norm(step, axis=1)
        done = np.abs(value) <= eps_bdry
        step_on = ~done & (gn2 > EPS_GRAD ** 2)
        lost = step_on & ~np.isfinite(slen)
        lost |= False if bad is None else bad
        if lost.any():
            first = int(np.argmax(lost))
            if not failed[:live[first]].any():      # lowest so far
                error = (fail if fail and bad[first]
                         else lambda i: EvalError("Newton step overflows"))
            failed[live[lost]] = True
            done, step_on = done & ~lost, step_on & ~lost
        converged[live[done]] = True
        live, step, slen = live[step_on], step[step_on], slen[step_on]
        long_ = slen > cap
        step[long_] *= (cap / slen[long_])[:, None]
        z[live] = z[live] - step
    return converged, failed, error


def _sample_box(what, n, count, rng, center, halfwidth, block, accept, limit):
    """The first `count` accepted draws, in draw order, of uniform points in
    the box of `halfwidth` around `center` (the origin if None) in C^n.

    Draws come in blocks of block(need, rate) rows, rate the share accepted
    so far, and at most `limit` in all; the generator's end state is part of
    the result.  accept(z) returns a block's accepted and failed masks (it may
    move the rows of z in place) and its lowest failed row's error builder,
    or None.  A failed draw raises, naming its draw index (also in `row`),
    only when it comes before the count-th accepted draw; `limit` draws with
    fewer accepted stall (RuntimeError).
    """
    center = np.zeros(n) if center is None else np.asarray(center, dtype=complex)
    out = np.empty((max(count, 0), n), dtype=complex)
    got = drawn = 0
    while got < count:
        if drawn >= limit:
            raise RuntimeError(
                f"{what} sampling stalled: {got}/{count} points after {drawn} draws")
        need = count - got
        size = min(limit - drawn, block(need, got / drawn if drawn else 1.0))
        x = rng.uniform(-halfwidth, halfwidth, size=(size, 2 * n))
        z = center + x[:, :n] + 1j * x[:, n:]
        ok, failed, error = accept(z)
        kept = np.flatnonzero(ok if error is None else ok & ~failed)[:need]
        if error is not None:
            first = drawn + int(np.argmax(failed))
            if len(kept) < need or first < drawn + kept[-1]:
                err = error(first)
                err.row, err.args = first, (f"{what} draw {first}: {err}",)
                raise err
        np.take(z, kept, 0, out[got:got + len(kept)], "clip")  # mode "raise" buffers out
        got += len(kept)
        drawn += size
    return out


def sample_boundary(phi: Expr, count: int, seed: int, box: float = 2.0,
                    eps_bdry: float = EPS_BDRY, max_iter: int = 100,
                    center=None) -> np.ndarray:
    """Draw approximate zeros of phi by damped projection of random box points.

    Each draw starts uniform in the box around `center` and iterates the
    first-order zero-finding step z <- z - phi(z) conj(g)/(2 ||g||^2) with the
    step length capped, until |phi| <= eps_bdry; a draw that has not
    converged after max_iter steps, or meets a vanishing gradient, is
    discarded, and one that fails to evaluate or whose step overflows fails
    (an EvalError).  The first `count` converged draws are kept, from at
    most 60 * count draws (_sample_box, in blocks sized by the acceptance
    rate, 1/60 at worst); each Newton step runs over a block's live draws
    at once, on values and gradients only (as eval_jet1_batch).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x62647279]))
    return _sample_box(
        "boundary", phi.n, count, rng, center, box,
        lambda need, rate: math.ceil(need / max(rate, 1.0 / 60.0)),
        lambda z: _project(phi, z, eps_bdry, max_iter, 0.5 * box), 60 * count)
