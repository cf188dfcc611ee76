"""Levi forms, Hermitian eigenvalue signatures, and convexity classification.

The mixed second-derivative block of a real-valued function is a Hermitian
matrix; its counts of positive, negative, and near-zero eigenvalues drive
every classification here.  Two independent engines compute signatures: a
cyclic complex Jacobi diagonalization (primary) and a real-embedding
eigensolver (oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import EvalError, Expr, eval_jet2, eval_jet2_batch

__all__ = [
    "LeviMatrix", "Signature", "BoundaryClassification", "FunctionClassification",
    "levi_form", "jacobi_eigh", "eig_signature", "signature_oracle",
    "tangent_frame", "tangent_restrict", "classify_function",
    "classify_boundary_point", "sample_boundary", "describe_q",
]

EPS_HERM = 1e-10
EPS_GRAD = 1e-10
EPS_BDRY = 1e-10


@dataclass(frozen=True)
class LeviMatrix:
    """Hermitian matrix, symmetrized at construction.

    herm_dev records the relative deviation of the input from Hermitian
    symmetry (Frobenius norms); inputs beyond EPS_HERM indicate a caller bug
    but are still symmetrized rather than rejected.
    """

    mat: np.ndarray
    herm_dev: float = 0.0

    def __init__(self, mat):
        a = np.asarray(mat, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        sym = (a + a.conj().T) / 2.0
        scale = max(1.0, float(np.linalg.norm(a)))
        dev = float(np.linalg.norm(a - a.conj().T)) / scale
        sym.flags.writeable = False
        object.__setattr__(self, "mat", sym)
        object.__setattr__(self, "herm_dev", dev)

    @property
    def m(self):
        return self.mat.shape[0]


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


def default_ztol(h) -> float:
    """Zero-eigenvalue tolerance 1e-8 * Frobenius norm (at least 1e-300)."""
    mat = _as_matrix(h)
    return max(1e-8 * float(np.linalg.norm(mat)), 1e-300)


def levi_form(phi: Expr, z, imag_tol: float = 1e-9) -> LeviMatrix:
    """Mixed Hessian block of a real-valued function at a point, symmetrized.

    Raises ValueError when phi is not real-valued at z (relative imaginary
    part above imag_tol): the Levi form of a non-real function has no
    signature meaning.
    """
    j = eval_jet2(phi, z)
    return _real_levi_form(j.value, j.h_zzb, imag_tol)


def _real_levi_form(value, h_zzb, imag_tol=1e-9):
    if abs(value.imag) > imag_tol * max(1.0, abs(value.real)):
        raise ValueError(
            f"function is not real-valued at the point: value {value}")
    return LeviMatrix(h_zzb)


def jacobi_eigh(h, tol: float = 1e-13, max_sweeps: int = 60):
    """Cyclic complex Jacobi diagonalization of a Hermitian matrix.

    Returns (vals, vecs) with h ~ vecs @ diag(vals) @ vecs.conj().T, running
    sweeps until the off-diagonal Frobenius norm is at most tol * ||h||.
    Raises ArithmeticError (reporting the residual) if the cap is hit.
    """
    a = _as_matrix(h).copy()
    m = a.shape[0]
    vecs = np.eye(m, dtype=complex)
    scale = float(np.linalg.norm(a))
    if m == 1 or scale == 0.0:
        return a.diagonal().real.copy(), vecs

    def offdiag():
        off = a - np.diag(a.diagonal())
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if offdiag() <= tol * scale:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                beta = a[p, q]
                absb = abs(beta)
                if absb <= 1e-300:
                    continue
                phase = beta / absb
                alpha = a[p, p].real
                gamma = a[q, q].real
                tau = (alpha - gamma) / (2.0 * absb)
                # smaller-angle root of t^2 + 2 tau t - 1 = 0, stable form
                sgn = 1.0 if tau >= 0 else -1.0
                t = sgn / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # unitary rotation R: R[p,p]=c, R[p,q]=-s*phase,
                # R[q,p]=s*conj(phase), R[q,q]=c; apply a <- R† a R
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + s * np.conj(phase) * col_q
                a[:, q] = -s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + s * phase * row_q
                a[q, :] = -s * np.conj(phase) * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vcol_p = vecs[:, p].copy()
                vcol_q = vecs[:, q].copy()
                vecs[:, p] = c * vcol_p + s * np.conj(phase) * vcol_q
                vecs[:, q] = -s * phase * vcol_p + c * vcol_q
    else:
        raise ArithmeticError(
            f"Jacobi did not converge in {max_sweeps} sweeps; "
            f"off-diagonal residual {offdiag():.3e} (target {tol * scale:.3e})")
    return a.diagonal().real.copy(), vecs


def _count(vals, ztol):
    n_pos = int(np.sum(vals > ztol))
    n_neg = int(np.sum(vals < -ztol))
    return Signature(n_pos, n_neg, vals.size - n_pos - n_neg, ztol)


def eig_signature(h, ztol: float | None = None) -> Signature:
    """Eigenvalue signature via the complex Jacobi engine."""
    if ztol is None:
        ztol = default_ztol(h)
    if ztol < 0:
        raise ValueError("ztol must be nonnegative")
    vals, _ = jacobi_eigh(h)
    return _count(vals, ztol)


def signature_oracle(h, ztol: float | None = None) -> Signature:
    """Signature via the real 2m x 2m embedding [[Re,-Im],[Im,Re]].

    The embedding's spectrum is the Hermitian spectrum doubled; adjacent
    sorted pairs are averaged before counting, so a threshold never splits
    a pair.
    """
    if ztol is None:
        ztol = default_ztol(h)
    if ztol < 0:
        raise ValueError("ztol must be nonnegative")
    mat = _as_matrix(h)
    re, im = mat.real, mat.imag
    emb = np.block([[re, -im], [im, re]])
    w = np.sort(np.linalg.eigvalsh(emb))
    vals = (w[0::2] + w[1::2]) / 2.0
    return _count(vals, ztol)


def tangent_frame(g, pivot: int = 0) -> np.ndarray:
    """Orthonormal basis (columns) of {v : sum_j g_j v_j = 0}.

    Built from a Householder reflection that aligns the Hermitian normal
    direction conj(g)/||g|| with coordinate axis `pivot`; the remaining
    reflection columns span the complex tangent space.  `pivot` only selects
    the internal reflection axis; the column span is independent of it.
    """
    g = np.asarray(g, dtype=complex)
    n = g.shape[0]
    if n < 2:
        raise ValueError("need dimension at least 2 to form a tangent space")
    norm = float(np.linalg.norm(g))
    if norm <= EPS_GRAD:
        raise ValueError(f"degenerate gradient: norm {norm:.3e} <= {EPS_GRAD}")
    u = np.conj(g) / norm
    phase = u[pivot] / abs(u[pivot]) if u[pivot] != 0 else 1.0
    w = u.copy()
    w[pivot] += phase
    p = np.eye(n, dtype=complex) - 2.0 * np.outer(w, np.conj(w)) / np.vdot(w, w).real
    cols = [j for j in range(n) if j != pivot]
    return p[:, cols]


def tangent_restrict(h, g, pivot: int = 0) -> LeviMatrix:
    """Restriction B* H B of a Levi form to the complex tangent space of g."""
    mat = _as_matrix(h)
    b = tangent_frame(g, pivot=pivot)
    if b.shape[0] != mat.shape[0]:
        raise ValueError("gradient and matrix dimensions differ")
    return LeviMatrix(b.conj().T @ mat @ b)


def describe_q(q: int, n: int) -> str:
    if q > n:
        return f"not q-convex for any q <= {n}"
    return str(q)


@dataclass(frozen=True)
class FunctionClassification:
    """Minimal q per sampled point (n+1 means no valid q <= n) and overall."""

    n: int
    points: tuple
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
    the maximum over the sample.
    """
    n = f.n
    sigs = []
    qs = []
    pts = [np.asarray(p, dtype=complex) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    values, _, _, _, h_zzb, _ = eval_jet2_batch(f, np.array(pts))
    for value, h in zip(values, h_zzb):
        sig = eig_signature(_real_levi_form(complex(value), h), ztol)
        sigs.append(sig)
        qs.append(n - sig.n_pos + 1)
    return FunctionClassification(
        n=n, points=tuple(tuple(p) for p in pts), signatures=tuple(sigs),
        per_point_q=tuple(qs), overall_q=max(qs))


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
                            eps_bdry: float = 1e-8) -> BoundaryClassification:
    """Restricted-signature classification of a smooth boundary point.

    Requires |phi(p)| <= eps_bdry (point on the zero set) and a
    nondegenerate gradient.  With n_pos positive restricted eigenvalues the
    minimal strict q is n - n_pos; the weak variant also counts zeros.
    """
    p = np.asarray(p, dtype=complex)
    j = eval_jet2(phi, p)
    if abs(j.value.imag) > 1e-9 * max(1.0, abs(j.value.real)):
        raise ValueError(f"function is not real-valued at the point: {j.value}")
    if abs(j.value) > eps_bdry:
        raise ValueError(
            f"point is not on the boundary: |phi(p)| = {abs(j.value):.3e} "
            f"> {eps_bdry}")
    g = np.asarray(j.g_z)
    restricted = tangent_restrict(LeviMatrix(j.h_zzb), g)
    sig = eig_signature(restricted, ztol)
    n = phi.n
    strict_q = n - sig.n_pos if sig.n_pos >= 1 else None
    weak_count = sig.n_pos + sig.n_zero
    weak_q = n - weak_count if weak_count >= 1 else None
    return BoundaryClassification(
        point=tuple(p), gradient=tuple(g), restricted=sig,
        strict_q=strict_q, weak_q=weak_q, n=n)


def _project(phi, z, eps_bdry, max_iter, cap):
    """Damped zero-finding steps on the rows of z, in place, all live rows at
    once; returns which rows converged."""
    converged = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    for _ in range(max_iter):
        if live.size == 0:
            break
        value, g = eval_jet2_batch(phi, z[live])[:2]
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
    block at once; the generator is deterministic in `seed`.  A block may
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

