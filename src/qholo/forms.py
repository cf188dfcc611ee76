"""Pointwise exterior algebra of complex (a,b)-covectors.

A Form is a covector at a single point, expanded in the ordered basis
dz_1,...,dz_n, dconj(z_1),...,dconj(z_n).  The module evaluates the
q-holomorphicity residual: the sup coefficient norm of

    dbar(f) wedge ddbar(f)^(q-1)

which vanishes exactly when f satisfies the q-holomorphicity condition at the
point.  A second, structurally independent evaluation path expands the same
form through determinant minors and serves as a cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .expr import Expr, Jet2, eval_jet2, eval_jet2_batch

__all__ = [
    "Form", "wedge", "dbar_form", "ddbar_form", "residual_from_jet",
    "q_holo_residual", "q_holo_residuals", "minor_oracle_residual",
]


@dataclass(frozen=True)
class Form:
    """(a,b)-covector in dimension n with sparse canonical coefficients.

    Keys of coeffs are pairs (I, J) of strictly increasing 1-based index
    tuples with len(I) = a and len(J) = b; absent keys are zero.  Bidegrees
    exceeding n are permitted only for the zero form (empty coeffs).
    """

    n: int
    a: int
    b: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or self.a < 0 or self.b < 0:
            raise ValueError("invalid form shape")
        clean = {}
        for (i_idx, j_idx), c in self.coeffs.items():
            i_idx = tuple(i_idx)
            j_idx = tuple(j_idx)
            if len(i_idx) != self.a or len(j_idx) != self.b:
                raise ValueError(f"key {(i_idx, j_idx)} has wrong arity")
            for idx in (i_idx, j_idx):
                if any(not 1 <= k <= self.n for k in idx):
                    raise ValueError(f"index out of range in {idx}")
                if any(idx[t] >= idx[t + 1] for t in range(len(idx) - 1)):
                    raise ValueError(f"non-canonical index tuple {idx}")
            c = complex(c)
            if c != 0:
                clean[(i_idx, j_idx)] = c
        if clean and (self.a > self.n or self.b > self.n):
            raise ValueError("bidegree exceeds dimension for a nonzero form")
        object.__setattr__(self, "coeffs", clean)

    def is_zero(self):
        return not self.coeffs

    def sup_coeff(self) -> float:
        """Largest coefficient modulus over canonical components.

        Moduli go through numpy so the q = 1 residual agrees bit-for-bit
        with the gradient block it is computed from.
        """
        if not self.coeffs:
            return 0.0
        return float(np.max(np.abs(np.array(list(self.coeffs.values()),
                                            dtype=complex))))

    def __add__(self, other):
        if (self.n, self.a, self.b) != (other.n, other.a, other.b):
            raise ValueError("can only add forms of equal dimension and bidegree")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0j) + c
        return Form(self.n, self.a, self.b, out)

    def __rmul__(self, scalar):
        scalar = complex(scalar)
        return Form(self.n, self.a, self.b,
                    {k: scalar * c for k, c in self.coeffs.items()})


def _merge_sign(first, second):
    """Parity sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = 0
    for x in first:
        for y in second:
            if x > y:
                inversions += 1
    return -1 if inversions % 2 else 1


def wedge(u: Form, v: Form) -> Form:
    """Antisymmetric bilinear product; bidegrees add.

    Sign convention: the basis monomial is dz_I wedge dconj(z)_J with both
    tuples ascending, so moving v's dz block past u's dconj block contributes
    (-1)^(a2*b1) before the two merge sorts.
    """
    if u.n != v.n:
        raise ValueError(f"dimension mismatch: {u.n} vs {v.n}")
    a = u.a + v.a
    b = u.b + v.b
    if a > u.n or b > u.n:
        return Form(u.n, a, b, {})
    swap = -1 if (v.a * u.b) % 2 else 1
    out = {}
    for (i1, j1), c1 in u.coeffs.items():
        for (i2, j2), c2 in v.coeffs.items():
            if set(i1) & set(i2) or set(j1) & set(j2):
                continue
            sign = swap * _merge_sign(i1, i2) * _merge_sign(j1, j2)
            key = (tuple(sorted(i1 + i2)), tuple(sorted(j1 + j2)))
            out[key] = out.get(key, 0j) + sign * c1 * c2
    return Form(u.n, a, b, out)


def dbar_form(j: Jet2) -> Form:
    """The (0,1) form sum_k (df/dconj(z_k)) dconj(z_k) at the jet's point."""
    n = j.n
    coeffs = {((), (k + 1,)): j.g_zb[k] for k in range(n) if j.g_zb[k] != 0}
    return Form(n, 0, 1, coeffs)


def ddbar_form(j: Jet2) -> Form:
    """The (1,1) form sum_{k,l} (d2f/dz_k dconj(z_l)) dz_k wedge dconj(z_l)."""
    n = j.n
    coeffs = {}
    for k in range(n):
        for l in range(n):
            c = j.h_zzb[k, l]
            if c != 0:
                coeffs[((k + 1,), (l + 1,))] = c
    return Form(n, 1, 1, coeffs)


def residual_form_from_jet(j: Jet2, q: int) -> Form:
    """dbar(f) wedge ddbar(f)^(q-1) as a Form, by iterated wedging."""
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be a positive integer")
    acc = dbar_form(j)
    eta = ddbar_form(j)
    for _ in range(q - 1):
        acc = wedge(acc, eta)
    return acc


def residual_from_jet(j: Jet2, q: int) -> float:
    """Sup-coefficient residual of the q-holomorphicity condition for a jet."""
    return residual_form_from_jet(j, q).sup_coeff()


def q_holo_residual(e: Expr, z, q: int) -> float:
    """Sup coefficient modulus of dbar(e) wedge ddbar(e)^(q-1) at z.

    Zero means the q-holomorphicity condition holds exactly at the point.
    q may exceed the dimension; the residual is then zero by degree.
    """
    return residual_from_jet(eval_jet2(e, z), q)


def q_holo_residuals(e: Expr, pts, q: int) -> np.ndarray:
    """q_holo_residual at every row of pts (shape (m, n)), from one batch of
    jets; row k equals q_holo_residual(e, pts[k], q)."""
    value, *blocks = eval_jet2_batch(e, pts)
    return np.array([
        residual_from_jet(Jet2(complex(value[k]), *(b[k] for b in blocks)), q)
        for k in range(len(value))], dtype=float)


def minor_oracle_residual(e: Expr, z, q: int) -> float:
    """Same contract as q_holo_residual, computed by Laplace minors.

    The (q-1)-st wedge power of ddbar(f) expands as (q-1)! times signed
    (q-1)x(q-1) minors of the mixed Hessian; wedging with dbar(f) inserts one
    dconj factor per term.  Determinants go through LU factorization, so the
    arithmetic path shares nothing with the iterated wedge.
    """
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be a positive integer")
    j = eval_jet2(e, z)
    n = j.n
    k = q - 1
    if k > n or k + 1 > n:
        return 0.0
    gzb = j.g_zb
    h = np.asarray(j.h_zzb)
    # prefactor: k! from the wedge power, (-1)^(k(k-1)/2) from interleaving
    # dz/dconj pairs into sorted blocks, (-1)^k from moving the single dconj
    # of dbar(f) past the k dz letters.
    pref = math.factorial(k) * (-1) ** (k * (k - 1) // 2) * (-1) ** k
    best = 0.0
    rows = list(combinations(range(n), k))
    cols = list(combinations(range(n), k + 1))
    for i_idx in rows:
        sub = h[list(i_idx), :] if k else h[:0, :]
        for jp in cols:
            total = 0j
            for t, col in enumerate(jp):
                if gzb[col] == 0:
                    continue
                rest = [c for c in jp if c != col]
                minor = np.linalg.det(sub[:, rest]) if k else 1.0
                total += (-1) ** t * gzb[col] * minor
            mag = abs(pref * total)
            if mag > best:
                best = mag
    return best
