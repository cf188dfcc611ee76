"""The q-holomorphicity residual, by dense wedge products over a batch of jets.

The residual of f at a point is the sup coefficient modulus of

    dbar(f) wedge ddbar(f)^(q-1)

in the basis dz_I wedge dconj(z)_J (I, J ascending); it vanishes exactly
when f satisfies the q-holomorphicity condition at the point.  The primary
engine stores the running (a, a+1)-form of m points as one complex array of
shape (m, C(n,a), C(n,a+1)), subsets indexed by their rank among the
lexicographically ordered combinations, and wedges with ddbar(f) through
cached gather tables (one gather of the form and one of h_zzb per insertion
pair).  A structurally independent oracle expands the same form through
Laplace minors of the mixed Hessian, taken by LU.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .expr import Expr, Jet2, _as_point, eval_jet2, eval_mixed_jet_batch

__all__ = [
    "residual_from_jet", "q_holo_residual", "q_holo_residuals",
    "minor_oracle_residual",
]

# Rows per chunk are _BUDGET // (largest form's coefficients per row), so
# each (rows, C(n,a+1), C(n,a+2)) scratch array holds at most _BUDGET
# complex entries (1 MiB) whenever one row fits; a wedge step keeps four
# such arrays alive (the running form, two gathers and their product).
_BUDGET = 1 << 16


@lru_cache(maxsize=None)
def _insertion_table(n, a):
    """Gather table from a-subsets to (a+1)-subsets of range(n).

    Row r is the r-th (a+1)-subset T in lexicographic order; column t gives
    the rank of T without T[t] among the a-subsets, the letter T[t], and the
    sign (-1)^(a-t) of merging that letter back into place.
    """
    rank = {s: r for r, s in enumerate(combinations(range(n), a))}
    targets = list(combinations(range(n), a + 1))
    source = np.array([[rank[T[:t] + T[t + 1:]] for t in range(a + 1)]
                       for T in targets], dtype=np.intp)
    letter = np.array(targets, dtype=np.intp)
    sign = np.array([(-1) ** (a - t) for t in range(a + 1)])
    return source, letter, sign


@lru_cache(maxsize=None)
def _wedge_step(n, a):
    """Flat gathers wedging an (a, a+1)-form with a (1,1)-form.

    One entry per insertion pair (t, s), in a fixed order: indices into the
    form flattened to (m, C(n,a) * C(n,a+1)), indices into h_zzb flattened
    to (m, n * n), and whether the pair's sign is negative.  The sign is the
    two merge signs times the (-1)^(a+1) of moving the new dz letter past
    the form's a+1 dconj letters.
    """
    src_i, let_i, sgn_i = _insertion_table(n, a)
    src_j, let_j, sgn_j = _insertion_table(n, a + 1)
    width = math.comb(n, a + 1)
    swap = (-1) ** (a + 1)
    return tuple(
        ((src_i[:, t, None] * width + src_j[None, :, s]).ravel(),
         (let_i[:, t, None] * n + let_j[None, :, s]).ravel(),
         swap * sgn_i[t] * sgn_j[s] < 0)
        for t in range(a + 1) for s in range(a + 2))


def _wedge_power(g_zb, h_zzb, q):
    """Coefficients of dbar(f) wedge ddbar(f)^(q-1) for each row, shape
    (m, C(n,q-1), C(n,q)); requires 1 <= q <= n."""
    m, n = g_zb.shape
    form = g_zb.reshape(m, 1, n)
    h = h_zzb.reshape(m, n * n)
    for a in range(q - 1):
        flat = form.reshape(m, -1)
        acc = np.zeros((m, math.comb(n, a + 1) * math.comb(n, a + 2)),
                       dtype=complex)
        for form_idx, h_idx, negative in _wedge_step(n, a):
            term = np.take(flat, form_idx, axis=1) * np.take(h, h_idx, axis=1)
            if negative:
                acc -= term
            else:
                acc += term
        form = acc.reshape(m, math.comb(n, a + 1), math.comb(n, a + 2))
    return form


def form_width(n, q):
    """Coefficients per row of the widest form for (n, q), 1 <= q <= n."""
    return max(math.comb(n, a) * math.comb(n, a + 1) for a in range(q))


def _chunk_rows(n, q):
    """Rows per chunk of the residual engine for dimension n and degree q."""
    return max(1, _BUDGET // form_width(n, q))


def _residuals(g_zb, h_zzb, q) -> np.ndarray:
    """Row-wise sup coefficient modulus of dbar(f) wedge ddbar(f)^(q-1),
    from g_zb of shape (m, n) and h_zzb of shape (m, n, n).

    Rows go through in chunks of _chunk_rows(n, q); a row's result does not
    depend on the batch it is in.  Zero when q > n.
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be a positive integer")
    m, n = g_zb.shape
    if q > n:
        return np.zeros(m)
    if q == 1:
        return np.max(np.abs(g_zb), axis=1)
    rows = _chunk_rows(n, q)
    out = np.empty(m)
    for lo in range(0, m, rows):
        form = _wedge_power(g_zb[lo:lo + rows], h_zzb[lo:lo + rows], q)
        out[lo:lo + rows] = np.max(np.abs(form), axis=(1, 2))
    return out


def residual_from_jet(j: Jet2, q: int) -> float | np.ndarray:
    """Sup-coefficient residual of the q-holomorphicity condition for a jet:
    a float for a jet at a point, an (m,) array for a stacked jet."""
    n = j.n
    r = _residuals(j.g_zb.reshape(-1, n), j.h_zzb.reshape(-1, n, n), q)
    return r if np.ndim(j.value) else float(r[0])


def q_holo_residual(e: Expr, z, q: int) -> float:
    """Sup coefficient modulus of dbar(e) wedge ddbar(e)^(q-1) at z.

    Zero means the q-holomorphicity condition holds exactly at the point.
    q may exceed the dimension; the residual is then zero by degree.  It is
    q_holo_residuals at a batch of one, and fails as that batch does.
    """
    return float(q_holo_residuals(e, _as_point(z, e.n)[None, :], q)[0])


def q_holo_residuals(e: Expr, pts, q: int) -> np.ndarray:
    """q_holo_residual at every row of pts (shape (m, n)), from one batch of
    mixed jets (eval_mixed_jet_batch); row k equals q_holo_residual(e,
    pts[k], q)."""
    _, _, g_zb, h_zzb = eval_mixed_jet_batch(e, pts)
    return _residuals(g_zb, h_zzb, q)


def minor_oracle_residual(e: Expr, z, q: int) -> float:
    """Same contract as q_holo_residual, computed by Laplace minors.

    The (q-1)-st wedge power of ddbar(f) expands as (q-1)! times signed
    (q-1)x(q-1) minors of the mixed Hessian; wedging with dbar(f) inserts one
    dconj factor per term.  Every minor of the point goes through one batched
    LU determinant, so the arithmetic path shares nothing with the wedge.
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be a positive integer")
    j = eval_jet2(e, z)
    n, k = j.n, q - 1
    if q > n:
        return 0.0
    # prefactor: k! from the wedge power, (-1)^(k(k-1)/2) from interleaving
    # dz/dconj pairs into sorted blocks, (-1)^k from moving the single dconj
    # of dbar(f) past the k dz letters.
    pref = math.factorial(k) * (-1) ** (k * (k - 1) // 2) * (-1) ** k
    subsets = list(combinations(range(n), k))
    if k:
        idx = np.array(subsets)
        minors = np.linalg.det(
            j.h_zzb[idx[:, None, :, None], idx[None, :, None, :]])
    else:
        minors = np.ones((1, 1))
    # column subset -> position among the k-subsets, for deleting one column
    where = {s: c for c, s in enumerate(subsets)}
    totals = np.zeros(len(subsets), dtype=complex)
    best = 0.0
    for jp in combinations(range(n), k + 1):
        totals[:] = 0j
        for t, col in enumerate(jp):
            rest = where[jp[:t] + jp[t + 1:]]
            totals += (-1) ** t * j.g_zb[col] * minors[:, rest]
        best = max(best, float(np.max(np.abs(pref * totals))))
    return best
