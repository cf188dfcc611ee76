"""Shared generators for the test suite.

Random expressions are built directly from AST constructors so the tests do
not depend on the parser; conditioning rejection keeps finite-difference
oracles inside their validity region without ever looking at the quantity
under test.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from qholo import expr as ex
from qholo.expr import Jet2
from qholo.forms import q_holo_residual
from qholo.hull import _FAR, _REL_GUARD, _STACK_PAIRS, Thm2Report, _align
from qholo.levi import EPS_BDRY, EPS_GRAD, LeviMatrix, _as_matrix, tangent_frame


def _re(e):
    return (e + ex.conjugate(e)) * 0.5


def _im(e):
    return (e - ex.conjugate(e)) / complex(0.0, 2.0)


def _abs2(e):
    return e * ex.conjugate(e)


def random_expr(rng, n, depth, allow_div=True):
    """Random AST over the full grammar with bounded constants."""
    if depth == 0 or rng.random() < 0.28:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            return ex.Var(n, int(rng.integers(1, n + 1)))
        if kind == 1:
            return ex.CVar(n, int(rng.integers(1, n + 1)))
        re_, im_ = rng.uniform(-2.0, 2.0, size=2)
        if kind == 2:
            im_ = 0.0
        return ex.Const(n, complex(round(re_, 3), round(im_, 3)))
    ops = ["add", "sub", "mul", "neg", "conj", "re", "im", "abs2", "pow", "exp"]
    if allow_div:
        ops.append("div")
    op = ops[int(rng.integers(0, len(ops)))]
    a = random_expr(rng, n, depth - 1, allow_div)
    if op == "add":
        return a + random_expr(rng, n, depth - 1, allow_div)
    if op == "sub":
        return a - random_expr(rng, n, depth - 1, allow_div)
    if op == "mul":
        return a * random_expr(rng, n, depth - 1, allow_div)
    if op == "div":
        return a / random_expr(rng, n, depth - 1, allow_div)
    if op == "neg":
        return -a
    if op == "conj":
        return ex.conjugate(a)
    if op == "re":
        return _re(a)
    if op == "im":
        return _im(a)
    if op == "abs2":
        return _abs2(a)
    if op == "pow":
        return a ** int(rng.integers(0, 4))
    # damp exponent arguments so nested exp cannot overflow
    return ex.Exp(n, ex.Const(n, 0.3 + 0.0j) * a)


def _division_nodes(e):
    stack, out = [e], []
    while stack:
        node = stack.pop()
        if isinstance(node, ex.Div):
            out.append(node)
        for attr in ("left", "right", "base", "arg"):
            child = getattr(node, attr, None)
            if isinstance(child, ex.Expr):
                stack.append(child)
    return out


def _well_conditioned(e, z, rng, block_cap=1e3, den_floor=0.2):
    """FD validity guard: bounded jets and denominators bounded away from 0
    on a small ball around z.  Never inspects oracle agreement."""
    try:
        j = ex.eval_jet2(e, z)
    except ex.EvalError:
        return False
    blocks = [abs(j.value), np.max(np.abs(j.g_z)), np.max(np.abs(j.g_zb)),
              np.max(np.abs(j.h_zz)), np.max(np.abs(j.h_zzb)),
              np.max(np.abs(j.h_zbzb))]
    if not all(np.isfinite(b) and b <= block_cap for b in blocks):
        return False
    divs = _division_nodes(e)
    if divs:
        probes = z[None, :] + 4e-4 * (rng.standard_normal((32, len(z)))
                                      + 1j * rng.standard_normal((32, len(z))))
        probes = np.concatenate([z[None, :], probes], axis=0)
        for node in divs:
            try:
                dens = ex.eval_batch(node.right, probes)
            except ex.EvalError:
                return False
            if np.min(np.abs(dens)) < den_floor:
                return False
    return True


def random_pair(rng, n_max=4, depth_max=6, allow_div=True):
    """A well-conditioned (expr, point) pair for jet/oracle comparisons."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        depth = int(rng.integers(1, depth_max + 1))
        e = random_expr(rng, n, depth, allow_div)
        z = rng.uniform(-1.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n)
        if _well_conditioned(e, z, rng):
            return e, z


def jet_rel_err(exact, fd):
    """Largest blockwise difference of two 2-jets (the six blocks of each, in
    Jet2 order), relative to the largest block of exact or 1: the
    shared-stencil oracle's error in any one block scales with the largest
    block present, so an exactly zero block cannot be resolved better."""
    scale = max(1.0, *(np.max(np.abs(b)) for b in exact))
    return max(np.max(np.abs(np.subtract(a, b)))
               for a, b in zip(exact, fd, strict=True)) / scale


def levi_form(phi, z, imag_tol=1e-9):
    """Mixed Hessian block of a real-valued function at a point, from its
    full scalar 2-jet; ValueError when phi is not real-valued at z.  With
    tangent_restrict, the oracle for levi.restricted_levi_form."""
    j = ex.eval_jet2(phi, z)
    if not j.is_real_valued(imag_tol):
        raise ValueError(f"function is not real-valued at the point: value {j.value}")
    return LeviMatrix(j.h_zzb)


def tangent_restrict(h, g, pivot=0):
    """Restriction B* H B of a Levi form to the complex tangent space of g
    (a matrix and a gradient, or stacks of both), B = tangent_frame(g)."""
    mat = _as_matrix(h)
    b = tangent_frame(g, pivot=pivot)
    if b.shape[-2] != mat.shape[-1]:
        raise ValueError("gradient and matrix dimensions differ")
    with np.errstate(over="ignore", invalid="ignore"):
        return LeviMatrix(np.swapaxes(np.conj(b), -1, -2) @ mat @ b)


def random_hermitian(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * (a + a.conj().T) / 2.0


# A third signature engine for the tests, independent of LAPACK (which the
# library's primary uses) and of the library's real-embedding oracle.
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


# A third residual engine for the tests: the sparse dict-keyed exterior
# algebra, independent of the library's dense gather engine and of its
# Laplace-minor oracle.  It also carries the wedge algebra tests.
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


def random_blocks(rng, m, n):
    """Random (g_zb, h_zzb) rows with some exact zeros, as jets have."""
    g = rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))
    h = rng.uniform(-1, 1, (m, n, n)) + 1j * rng.uniform(-1, 1, (m, n, n))
    g[rng.random((m, n)) < 0.2] = 0.0
    h[rng.random((m, n, n)) < 0.2] = 0.0
    return g, h


def random_unitary(rng, m, reflections=3):
    """Product of Householder reflections."""
    u = np.eye(m, dtype=complex)
    for _ in range(reflections):
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w /= np.linalg.norm(w)
        u = u @ (np.eye(m, dtype=complex) - 2.0 * np.outer(w, w.conj()))
    return u


def _holomorphic_tree(rng, atoms, depth):
    """Random combination of the given atoms using only +, -, *, ^, exp."""
    n = atoms[0].n
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            re_, im_ = rng.uniform(-1.0, 1.0, size=2)
            return ex.Const(n, complex(round(re_, 3), round(im_, 3)))
        return atoms[int(rng.integers(0, len(atoms)))]
    op = int(rng.integers(0, 5))
    a = _holomorphic_tree(rng, atoms, depth - 1)
    if op == 0:
        return a + _holomorphic_tree(rng, atoms, depth - 1)
    if op == 1:
        return a - _holomorphic_tree(rng, atoms, depth - 1)
    if op == 2:
        return a * _holomorphic_tree(rng, atoms, depth - 1)
    if op == 3:
        return a ** int(rng.integers(1, 4))
    return ex.Exp(n, ex.Const(n, 0.25 + 0.0j) * a)


def certified_sample(rng, n_max=4, residual_tol=1e-10, max_tries=200):
    """A (expr, point, q) triple that is analytically q-holomorphic.

    The expression combines the holomorphic coordinates with m = q-1
    antiholomorphic linear coordinates conj(l_j(z)); every antiholomorphic
    letter of the residual form then comes from an m-dimensional span, so
    any wedge with q such letters vanishes identically.  Certification
    measures the residual anyway and rejects numerically marginal draws.
    """
    for _ in range(max_tries):
        n = int(rng.integers(2, n_max + 1))
        q = int(rng.integers(1, n + 1))
        m = q - 1
        atoms = [ex.Var(n, k + 1) for k in range(n)]
        if m:
            u = random_unitary(rng, n)
            for j in range(m):
                row = None
                for k in range(n):
                    coef = complex(u[j, k])
                    term = ex.Const(n, coef) * ex.Var(n, k + 1)
                    row = term if row is None else row + term
                atoms.append(ex.conjugate(row))
        e = _holomorphic_tree(rng, atoms, int(rng.integers(2, 5)))
        z = rng.uniform(-1.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n)
        if not _well_conditioned(e, z, rng):
            continue
        if q_holo_residual(e, z, q) <= residual_tol:
            return e, z, q
    raise RuntimeError("certified sample generation stalled")


def sample_boundary_reference(phi, count, seed, box=2.0, eps_bdry=EPS_BDRY,
                              max_iter=100, center=None):
    """Scalar reference for levi.sample_boundary: one draw at a time, one
    value-and-gradient evaluation per Newton step, the same rng stream and
    acceptance rule.  A draw that fails to evaluate, or whose Newton step or
    its length is not finite, raises an EvalError naming its index in draw
    order, which is also its `row`."""
    n = phi.n
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x62647279]))
    if center is None:
        center = np.zeros(n, dtype=complex)
    center = np.asarray(center, dtype=complex)
    out = []
    attempts = 0
    cap = 0.5 * box
    while len(out) < count:
        if attempts >= 60 * count:
            raise RuntimeError(
                f"boundary sampling stalled: {len(out)}/{count} points after "
                f"{attempts} draws")
        attempts += 1
        x = rng.uniform(-box, box, size=2 * n)
        z = center + x[:n] + 1j * x[n:]
        try:
            for _ in range(max_iter):
                value, g = _value_and_gradient(phi, z)
                if abs(value) <= eps_bdry:
                    break
                with np.errstate(all="ignore"):     # a huge gradient overflows
                    gn2 = float(np.vdot(g, g).real)
                    step = value.real * np.conj(g) / (2.0 * gn2)
                    slen = float(np.linalg.norm(step))
                if gn2 <= EPS_GRAD ** 2:
                    break
                if not np.isfinite(slen):
                    raise ex.EvalError("Newton step overflows")
                if slen > cap:
                    step *= cap / slen
                z = z - step
            else:
                continue
            if abs(_value_and_gradient(phi, z)[0]) <= eps_bdry:
                out.append(z)
        except ex.EvalError as err:
            err.row = attempts - 1      # the draw's index in draw order
            err.args = (f"boundary draw {err.row}: {err}",)
            raise
    return np.array(out)


def _value_and_gradient(phi, z):
    value, g_z, _ = ex.eval_jet1_batch(phi, z[None, :])
    return complex(value[0]), g_z[0]


def _clean(x):
    # -0.0 prints as "-0.0"; the writers flush it to +0.0
    x = float(x)
    return 0.0 if x == 0.0 else x


# The one-number complex formatter the library's column-wise one replaced,
# kept as the reference for its strings.
def format_complex_reference(c):
    c = complex(c)
    re_part, im_part = _clean(c.real), _clean(c.imag)
    sign = "-" if im_part < 0 else "+"
    return f"{re_part!r}{sign}{abs(im_part)!r}i"


# The row-by-row CSV writer the library's column-wise one replaced, kept as
# the byte-for-byte reference for its output.
def write_points_csv_reference(path, points, extra=None):
    """Rows re1,im1,...,reN,imN plus optional named extra columns.

    extra: list of (name, sequence) pairs appended after the coordinates.
    """
    points = np.atleast_2d(np.asarray(points, dtype=complex))
    n = points.shape[1]
    header = [f"{part}{k}" for k in range(1, n + 1) for part in ("re", "im")]
    extra = extra or []
    header += [name for name, _ in extra]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for i, z in enumerate(points):
            row = []
            for c in z:
                row.extend([repr(_clean(c.real)), repr(_clean(c.imag))])
            for _, vals in extra:
                v = vals[i]
                row.append(repr(_clean(v)) if isinstance(v, float) else str(v))
            w.writerow(row)


# The meshgrid construction of the hull's candidate grid that
# cli._grid_candidates replaced, kept as the reference its points must equal
# bit for bit, zero signs included.
def grid_candidates_reference(center, halfwidth, per_axis, fixed):
    axes = []
    for k, c in enumerate(center):
        for part, base in (("re", c.real), ("im", c.imag)):
            axis = f"{part}{k + 1}"
            axes.append(np.array([float(fixed[axis])]) if axis in fixed
                        else np.linspace(base - halfwidth, base + halfwidth, per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh], axis=-1)
    return flat[:, 0::2] + 1j * flat[:, 1::2]


# The per-configuration separation chain the stacked one replaced, with its
# row-wise einsum evaluator, kept as the reference for its reports.
def _values_reference(lams, d):
    """f_lambda(d) row by row; lams and d broadcast over their leading axes."""
    return (np.einsum("...i,...i->...", lams, np.conj(d))
            / np.sum(np.abs(d) ** 2, axis=-1))


def theorem2_reference(n, p, r, K, z_samples):
    p = np.asarray(p, dtype=complex)
    K = np.asarray(K, dtype=complex)
    Z = np.asarray(z_samples, dtype=complex)
    dk = K - p[None, :]
    dk_norm = np.linalg.norm(dk, axis=1)
    dz = Z - p[None, :]
    dz_norm = np.linalg.norm(dz, axis=1)

    closed_k = np.sum(np.abs(dk), axis=1) / dk_norm ** 2   # K-side middle term
    guard_k = _REL_GUARD * float(np.max(closed_k))
    k_bound = np.sqrt(n) / dk_norm

    lams = _align(dz)                                      # one lambda per z
    lhs = np.abs(_values_reference(lams, dz))
    closed = np.sum(np.abs(dz), axis=1) / dz_norm ** 2
    err1 = np.abs(lhs - closed) / np.maximum(1.0, closed)
    s2 = closed - 1.0 / dz_norm
    s3 = 1.0 / dz_norm - np.max(k_bound)
    s4 = float(np.min(k_bound - closed_k))
    f_on_k = np.abs(_values_reference(lams[None, :, :], dk[:, None, :]))
    s5 = np.min(closed_k[:, None] - f_on_k, axis=0)
    margins = lhs - np.max(f_on_k, axis=0)
    ts = np.array([[0.5], [2.0]])
    scaled = np.abs(_values_reference(lams, ts[..., None] * dz)) * ts
    mono = np.abs(scaled - lhs) / np.maximum(1.0, lhs)

    violations = (np.sum(err1 > 1e-12) + np.sum(s2 < -_REL_GUARD * closed)
                  + np.sum(s3 <= 0) + (s4 < -guard_k) + np.sum(s5 < -guard_k)
                  + np.sum(margins <= 0) + np.sum(mono > 1e-12))
    return Thm2Report(
        n=n, z_count=Z.shape[0], k_count=K.shape[0],
        violations=int(violations), min_margin=float(np.min(margins)),
        link_slacks=(-float(np.max(err1)), float(np.min(s2)),
                     float(np.min(s3)), s4, float(np.min(s5))),
        monotonicity_err=float(np.max(mono)))


# The stacked separation chain as it was before the radial scaling check was
# pruned to the candidates outside its proven window and the K-side norms were
# shared: numpy's own row sums and norms, and the full (3, C, z, 1, n) weights
# table for t in (1, 0.5, 2).  Kept as the bit-for-bit reference of its report.
def _weights_reference(d):
    return np.conj(d) / np.sum(np.abs(d) ** 2, axis=-1)[..., None]


def chain_reference(n, r, dk, dz):
    dk_norm = np.linalg.norm(dk, axis=-1)
    dz_norm = np.linalg.norm(dz, axis=-1)
    for bad, what in ((dk_norm < r[:, None] * (1 - 1e-12), "K points inside B(p, r)"),
                      (~(dk_norm <= _FAR), f"K points not within {_FAR:g} of p"),
                      (~((dz_norm < r[:, None] / np.sqrt(n)) & (dz_norm > 0)),
                       "candidates outside (0, r/sqrt(n))")):
        if bad.any():
            raise ValueError(
                f"{what}: indices {np.flatnonzero(bad[bad.any(axis=1)][0]).tolist()}")
    closed_k = np.sum(np.abs(dk), axis=-1) / dk_norm ** 2
    guard_k = _REL_GUARD * np.max(closed_k, axis=1)
    k_bound = np.sqrt(n) / dk_norm
    lams = _align(dz)
    ts = np.array([1.0, 0.5, 2.0])[:, None, None]
    scaled = np.abs(_weights_reference((ts[..., None] * dz)[..., None, :])
                    @ lams[..., None])[..., 0, 0] * ts
    lhs = scaled[0]
    closed = np.sum(np.abs(dz), axis=-1) / dz_norm ** 2
    err1 = np.abs(lhs - closed) / np.maximum(1.0, closed)
    s2 = closed - 1.0 / dz_norm
    s3 = 1.0 / dz_norm - np.max(k_bound, axis=1, keepdims=True)
    s4 = np.min(k_bound - closed_k, axis=1)
    chunk = max(1, _STACK_PAIRS // 8 // (len(r) * dz.shape[1]))
    s5, f_max = np.full(lhs.shape, np.inf), np.full(lhs.shape, -np.inf)
    wk, lt = _weights_reference(dk), np.swapaxes(lams, -1, -2)
    for lo in range(0, dk.shape[1], chunk):
        f = np.abs(wk[:, lo:lo + chunk] @ lt)
        np.maximum(f_max, np.max(f, axis=1), out=f_max)
        np.minimum(s5, np.min(np.subtract(closed_k[:, lo:lo + chunk, None], f, out=f),
                              axis=1), out=s5)
    margins = lhs - f_max
    mono = np.abs(scaled[1:] - lhs) / np.maximum(1.0, lhs)
    # a check that does not provably hold fails, NaN included
    violations = (np.sum(~(err1 <= 1e-12), axis=1)
                  + np.sum(~(s2 >= -_REL_GUARD * closed), axis=1)
                  + np.sum(~(s3 > 0), axis=1) + ~(s4 >= -guard_k)
                  + np.sum(~(s5 >= -guard_k[:, None]), axis=1)
                  + np.sum(~(margins > 0), axis=1) + np.sum(~(mono <= 1e-12), axis=(0, 2)))
    slacks = np.stack([-np.max(err1, axis=1), np.min(s2, axis=1),
                       np.min(s3, axis=1), s4, np.min(s5, axis=1)], axis=1)
    return Thm2Report(n=n, z_count=dz.shape[1], k_count=dk.shape[1],
                      violations=violations, min_margin=np.min(margins, axis=1),
                      link_slacks=slacks, monotonicity_err=np.max(mono, axis=(0, 2)))


# The per-configuration samplers the stacked thm2 sampler replaced, kept as
# the reference for its draws.
def sample_outside_ball_reference(rng, n, p, r, count, halfwidth_factor=2.5):
    out = np.empty((0, n), dtype=complex)
    while len(out) < count:
        draw = rng.uniform(-halfwidth_factor * r, halfwidth_factor * r,
                           size=(4 * count, 2 * n))
        z = p[None, :] + draw[:, :n] + 1j * draw[:, n:]
        keep = np.linalg.norm(z - p[None, :], axis=1) >= r
        out = np.concatenate([out, z[keep]])
    return out[:count]


def sample_inner_ball_reference(rng, n, p, radius, count, floor=1e-9):
    if not radius > floor:      # no draw could be kept
        raise ValueError(f"ball radius {radius} must exceed the floor {floor}")
    out = np.empty((0, n), dtype=complex)
    while len(out) < count:
        raw = rng.normal(size=(4 * count, 2 * n))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        radii = radius * rng.uniform(0.0, 1.0, size=4 * count) ** (1.0 / (2 * n))
        keep = radii > floor
        pts = p[None, :] + radii[keep, None] * (dirs[keep, :n] + 1j * dirs[keep, n:])
        out = np.concatenate([out, pts])
    return out[:count]


def thm2_config_reference(child, n, r_range, k_count, z_count, halfwidth_factor=2.5):
    """(r, K - p, Z - p, generator) of one batch configuration, drawn as the
    one-configuration-at-a-time loop drew them; the generator is left after
    its last draw."""
    rng = np.random.default_rng(child)
    p = rng.uniform(-1, 1, size=2 * n)
    p = p[:n] + 1j * p[n:]
    r = float(rng.uniform(*r_range))
    K = sample_outside_ball_reference(rng, n, p, r, k_count, halfwidth_factor)
    Z = sample_inner_ball_reference(rng, n, p, r / np.sqrt(n) * (1 - 1e-12), z_count)
    return r, K - p, Z - p, rng


# The point-at-a-time loop the batched peak._residual_points replaced, kept
# as the reference for its points and its generator's state.
def residual_points_reference(f, dom, p, count, rng):
    uniform = dom.sample_interior(count, rng)
    half = count // 2
    steered = []
    pool = dom.sample_interior(4 * count, rng)
    comp = f.complement
    for z in pool:
        if len(steered) >= half:
            break
        d = z - p
        b = np.conj(comp.T) @ d
        bn = float(np.linalg.norm(b))
        if bn < 1e-12:
            continue
        target = f.r * rng.uniform(0.15, 0.95)
        shifted = z + (comp @ b) * (target / bn - 1.0)
        if float(ex.eval_value(dom.phi, shifted).real) < 0:
            steered.append(shifted)
    keep = count - len(steered)
    pts = list(uniform[:keep]) + steered
    return np.array(pts[:count])


# The criterion-9 CLI fixtures: (name, subcommand, config), each run with
# --seed 42 by the determinism and golden-digest tests.
def cli_fixtures():
    zero2 = ["0+0i", "0+0i"]
    return [
        ("levi_matrix", "levi", {
            "matrix": [["2+0i", "0+1i"], ["0-1i", "1+0i"]],
        }),
        ("levi_function", "levi", {
            "n": 2, "function": "abs2(z1)+abs2(z2)",
            "points": {"random": {"count": 15, "seed": 3}},
            "expect": {"q_max": 1},
        }),
        ("classify", "classify", {
            "n": 2, "name": "sphere2",
            "defining": "abs2(z1)+abs2(z2)-1",
            "boundary_samples": 10, "seed": 5,
            "expect": {"strict_q": 1},
        }),
        ("qholo_fn", "qholo", {
            "n": 2, "q": 1, "function": "z1*z2+exp(z2)",
            "points": {"random": {"count": 25, "seed": 7}},
        }),
        ("qholo_family", "qholo", {
            "n": 2, "q": 2,
            "function": {"builtin": "basener", "p": zero2, "seed": 11},
            "points": {"random": {"count": 25, "seed": 4,
                                      "avoid_radius": 0.3}},
            "threshold": 1e-9,
        }),
        ("hull", "hull", {
            "n": 2, "seed": 0,
            "family": [{"builtin": "basener", "p": zero2,
                        "lambda_count": 4, "seed": 2}],
            "K": {"sphere": {"p": zero2, "r": 1.0, "count": 48, "seed": 1}},
            "candidates": {"grid": {"center": zero2, "halfwidth": 0.4,
                                       "per_axis": 5,
                                       "fixed_axes": {"im1": 0.0, "re2": 0.1,
                                                      "im2": 0.0}}},
        }),
        ("thm2_single", "thm2", {
            "single": {"n": 2, "p": zero2, "r": 1.0,
                        "K": {"sphere": {"p": zero2, "r": 1.0,
                                          "count": 60, "seed": 2}},
                        "z": {"count": 25, "seed": 3}},
        }),
        ("thm2_batch", "thm2", {"batch": {"configs": 25, "seed": 9}}),
        # several stacks per n, the last one ragged, and several K chunks each
        ("thm2_batch_stacks", "thm2", {"batch": {"configs": 400, "seed": 9}}),
        # every candidate has parts above 2 ** 150, outside the window where
        # the radial scaling check is exact by proof, so the chain evaluates it
        ("thm2_batch_far", "thm2", {"batch": {"configs": 12, "seed": 9,
                                              "r_range": [1e99, 1e100]}}),
        ("peak", "peak", {
            "domain": {"model": "ball", "n": 2},
            "p": ["1+0i", "0+0i"], "q": 1,
            "samples": {"boundary": 60, "interior": 60, "tube": 200},
            "seed": 0,
        }),
        # r exceeds the ball's diameter, so no closure point has ||b|| >= r
        # and verify_peak checks the vanishing on its own ring points
        ("peak_short_ring", "peak", {
            "domain": {"model": "ball", "n": 2},
            "p": ["1+0i", "0+0i"], "q": 1, "r": 4.0,
            "samples": {"boundary": 60, "interior": 60, "tube": 200},
            "seed": 0,
        }),
    ]
