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
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, Expr, eval_jet1_batch, eval_jet2, eval_mixed_jet_batch

__all__ = [
    "LeviMatrix", "Signature", "BoundaryClassification", "FunctionClassification",
    "levi_form", "eig_signature", "signature_oracle", "tangent_frame",
    "tangent_restrict", "restricted_levi_form", "classify_function",
    "classify_boundary_point", "sample_boundary", "describe_q",
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


@dataclass(frozen=True)
class LeviMatrix:
    """Hermitian matrix (k, k), or a stack of them (m, k, k), symmetrized at
    construction.

    herm_dev records the relative deviation of the input from Hermitian
    symmetry (Frobenius norms), a float or, for a stack, an (m,) array;
    inputs beyond EPS_HERM indicate a caller bug but are still symmetrized
    rather than rejected.  A non-finite entry, or an overflow while
    symmetrizing or taking norms, raises ValueError: no eigensolver gives a
    meaningful signature for such a matrix.
    """

    mat: np.ndarray
    herm_dev: float = 0.0

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


@dataclass(frozen=True)
class Signature:
    """Counts of eigenvalues above ztol, below -ztol, and within [-ztol, ztol]."""

    n_pos: int
    n_neg: int
    n_zero: int
    ztol: float

    @property
    def m(self):
        return self.n_pos + self.n_neg + self.n_zero

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
    """Signatures of h (a Signature, or a tuple for a stack) from the
    eigenvalue rows eigvals(mat), each against its own ztol."""
    _raise_first([_ztol_check(ztol)], ())
    mat = _as_matrix(h)
    zt = np.asarray(default_ztol(h) if ztol is None else ztol, dtype=float)
    vals = eigvals(mat)
    pos = np.sum(vals > zt[..., None], axis=-1)
    neg = np.sum(vals < -zt[..., None], axis=-1)
    k = vals.shape[-1]
    sigs = tuple(Signature(p, q, k - p - q, z) for p, q, z in zip(
        pos.ravel().tolist(), neg.ravel().tolist(),
        np.broadcast_to(zt, pos.shape).ravel().tolist()))
    return sigs if mat.ndim == 3 else sigs[0]


def eig_signature(h, ztol: float | None = None):
    """Eigenvalue signature via LAPACK's complex Hermitian eigensolver: one
    Signature, or for a stack a tuple of them from one eigensolver call."""
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


def _restrict(mat, frame):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.swapaxes(np.conj(frame), -1, -2) @ mat @ frame


def tangent_restrict(h, g, pivot: int = 0) -> LeviMatrix:
    """Restriction B* H B of a Levi form to the complex tangent space of g
    (a matrix and a gradient, or stacks of both)."""
    mat = _as_matrix(h)
    b = tangent_frame(g, pivot=pivot)
    if b.shape[-2] != mat.shape[-1]:
        raise ValueError("gradient and matrix dimensions differ")
    return LeviMatrix(_restrict(mat, b))


def _not_real(values, imag_tol=1e-9):
    bad = np.abs(values.imag) > imag_tol * np.maximum(1.0, np.abs(values.real))
    return bad, lambda i: (f"function is not real-valued at the point: value "
                           f"{complex(np.ravel(values)[i])}")


def levi_form(phi: Expr, z, imag_tol: float = 1e-9) -> LeviMatrix:
    """Mixed Hessian block of a real-valued function at a point, symmetrized.

    Raises ValueError when phi is not real-valued at z (relative imaginary
    part above imag_tol): the Levi form of a non-real function has no
    signature meaning.
    """
    j = eval_jet2(phi, z)
    _raise_first([_not_real(np.asarray(j.value), imag_tol)], ())
    return LeviMatrix(j.h_zzb)


def _jets(phi, p):
    """(value, g_z, h_zzb) of phi at a point (n,) or the rows of (m, n), and
    the EvalError of the first row that fails to evaluate, if any; the
    blocks then cover the rows before it.  A point is a batch of one."""
    if p.ndim == 1:
        *blocks, err = _jets(phi, p[None, :])
        return (*(b[0] for b in blocks), err)
    err = None
    try:
        b = eval_mixed_jet_batch(phi, p)
    except EvalError as e:
        err, lo, hi = e, 0, len(p)  # p[:lo] evaluates, p[:hi] raises err
        while hi - lo > 1:          # a batch raises when one of its rows does
            mid = (lo + hi) // 2
            try:
                eval_mixed_jet_batch(phi, p[:mid])
                lo = mid
            except EvalError as e:
                err, hi = e, mid
        err.row = lo                # the only raising row of p[:hi]
        if lo == 0:
            raise err
        b = eval_mixed_jet_batch(phi, p[:lo])
    return b[0], b[1], b[3], err


def restricted_levi_form(phi: Expr, p, eps_bdry: float = 1e-8, _extra=()):
    """Levi form of phi at a boundary point, restricted to the complex tangent
    space: returns (g, frame, restricted) with g the holomorphic gradient,
    frame the tangent_frame(g) columns and restricted = frame* H frame.  For
    a stack of points (m, n) each result has a leading point axis.

    Raises ValueError when phi is not real-valued at p, when |phi(p)| >
    eps_bdry (p is not on the boundary), or when the gradient is degenerate;
    then the checks in _extra, per row.
    """
    value, g, h_zzb, err = _jets(phi, np.asarray(p, dtype=complex))
    h, h_bad = LeviMatrix._checked(h_zzb)
    norm = _norms(g)
    frame = _frame(g, norm)
    restricted, r_bad = LeviMatrix._checked(_restrict(h.mat, frame))
    off = np.hypot(value.real, value.imag)      # abs() of one complex, bit for bit
    _raise_first([
        _not_real(value), (h_bad, lambda i: _NON_FINITE),
        (off > eps_bdry, lambda i: f"point is not on the boundary: |phi(p)| = "
                                   f"{float(np.ravel(off)[i]):.3e} > {eps_bdry}"),
        *_gradient_checks(norm, g.shape[-1]), (r_bad, lambda i: _NON_FINITE),
        *_extra], value.shape)
    if err is not None:
        raise err
    return g, frame, restricted


def describe_q(q: int, n: int) -> str:
    if q > n:
        return f"not q-convex for any q <= {n}"
    return str(q)


@dataclass(frozen=True)
class FunctionClassification:
    """Minimal q per sampled point (n+1 means no valid q <= n) and overall;
    points is the read-only (m, n) array of the sampled points."""

    n: int
    points: np.ndarray
    signatures: tuple
    per_point_q: tuple
    overall_q: int

    @property
    def overall_text(self):
        return describe_q(self.overall_q, self.n)


def classify_function(f: Expr, points, ztol: float | None = None) -> FunctionClassification:
    """Minimal q with at least n-q+1 positive Levi eigenvalues, per point.

    That minimum is q = n - n_pos + 1; a point with no positive eigenvalues
    reports q = n+1 ("not q-convex for any q <= n").  The overall value is
    the maximum over the sample.  All points go through one jet evaluation
    and one eigensolver call.
    """
    n = f.n
    pts = np.array([np.asarray(p, dtype=complex) for p in points])
    if not len(pts):
        raise ValueError("need at least one point")
    pts.flags.writeable = False
    values, _, _, h_zzb = eval_mixed_jet_batch(f, pts)
    h, bad = LeviMatrix._checked(h_zzb)
    _raise_first([_not_real(values), (bad, lambda i: _NON_FINITE),
                  _ztol_check(ztol)], values.shape)
    sigs = eig_signature(h, ztol)
    qs = tuple(n - sig.n_pos + 1 for sig in sigs)
    return FunctionClassification(
        n=n, points=pts, signatures=sigs,
        per_point_q=qs, overall_q=max(qs))


@dataclass(frozen=True)
class BoundaryClassification:
    """Classification of one boundary point of {phi = 0}.

    strict_q is the minimal q with at least n-q positive restricted
    eigenvalues (None when there are none); weak_q counts nonnegative
    eigenvalues the same way.
    """

    point: tuple
    gradient: tuple
    restricted: Signature
    strict_q: int | None
    weak_q: int | None
    n: int


def classify_boundary_point(phi: Expr, p, ztol: float | None = None,
                            eps_bdry: float = 1e-8):
    """Restricted-signature classification of a smooth boundary point, or a
    tuple of classifications for a stack of points (m, n), made in one pass.

    Requires |phi(p)| <= eps_bdry (point on the zero set) and a
    nondegenerate gradient (see restricted_levi_form).  With n_pos positive
    restricted eigenvalues the minimal strict q is n - n_pos; the weak
    variant also counts zeros.
    """
    p = np.asarray(p, dtype=complex)
    g, _, restricted = restricted_levi_form(phi, p, eps_bdry, [_ztol_check(ztol)])
    sigs = eig_signature(restricted, ztol)
    n = phi.n

    def one(point, grad, sig):
        weak_count = sig.n_pos + sig.n_zero
        return BoundaryClassification(
            point=tuple(point), gradient=tuple(grad), restricted=sig,
            strict_q=n - sig.n_pos if sig.n_pos >= 1 else None,
            weak_q=n - weak_count if weak_count >= 1 else None, n=n)

    if p.ndim == 1:
        return one(p, g, sigs)
    return tuple(map(one, p, g, sigs))


def _project(phi, z, eps_bdry, max_iter, cap):
    """Damped zero-finding steps on the rows of z, in place, all live rows at
    once; returns which rows converged."""
    converged = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    for _ in range(max_iter):
        if live.size == 0:
            break
        value, g, _ = eval_jet1_batch(phi, z[live])
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
    return converged


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
    block at once and on values and gradients only (eval_jet1_batch); the
    generator is deterministic in `seed`.  A block may
    hold draws past the count-th convergence; when the block raises
    EvalError its draws are redone one at a time up to that convergence, so
    only a draw the sampler needs can raise.
    """
    n = phi.n
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x62647279]))
    if center is None:
        center = np.zeros(n, dtype=complex)
    center = np.asarray(center, dtype=complex)
    out = []
    drawn = 0
    limit = 60 * count
    cap = 0.5 * box
    while len(out) < count:
        if drawn >= limit:
            raise RuntimeError(
                f"boundary sampling stalled: {len(out)}/{count} points after "
                f"{drawn + 1} draws")
        need = count - len(out)
        # enough draws for the acceptance rate seen so far (1/60 at worst)
        rate = max(len(out) / drawn if drawn else 1.0, 1.0 / 60.0)
        block = min(limit - drawn, math.ceil(need / rate))
        drawn += block
        x = rng.uniform(-box, box, size=(block, 2 * n))
        z = center + x[:, :n] + 1j * x[:, n:]
        try:
            converged = _project(phi, z, eps_bdry, max_iter, cap)
        except EvalError:
            z = center + x[:, :n] + 1j * x[:, n:]
            converged = np.zeros(block, dtype=bool)
            for i in range(block):
                converged[i] = _project(phi, z[i:i + 1], eps_bdry, max_iter, cap)[0]
                if converged[i] and np.count_nonzero(converged) == need:
                    break
        out.extend(z[np.flatnonzero(converged)[:need]])
    return np.array(out)

