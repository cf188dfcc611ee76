"""Shared generators for the test suite.

Random expressions are built directly from AST constructors so the tests do
not depend on the parser; conditioning rejection keeps finite-difference
oracles inside their validity region without ever looking at the quantity
under test.
"""

import numpy as np

from qholo import expr as ex
from qholo.forms import q_holo_residual
from qholo.levi import EPS_BDRY, EPS_GRAD


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


def random_hermitian(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * (a + a.conj().T) / 2.0


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
    eval_jet2 per Newton step, the same rng stream and acceptance rule."""
    n = phi.n
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x62647279]))
    if center is None:
        center = np.zeros(n, dtype=complex)
    center = np.asarray(center, dtype=complex)
    out = []
    attempts = 0
    cap = 0.5 * box
    while len(out) < count:
        attempts += 1
        if attempts > 60 * count:
            raise RuntimeError(
                f"boundary sampling stalled: {len(out)}/{count} points after "
                f"{attempts} draws")
        x = rng.uniform(-box, box, size=2 * n)
        z = center + x[:n] + 1j * x[n:]
        for _ in range(max_iter):
            j = ex.eval_jet2(phi, z)
            if abs(j.value) <= eps_bdry:
                break
            g = np.asarray(j.g_z)
            gn2 = float(np.vdot(g, g).real)
            if gn2 <= EPS_GRAD ** 2:
                break
            step = j.value.real * np.conj(g) / (2.0 * gn2)
            slen = float(np.linalg.norm(step))
            if slen > cap:
                step *= cap / slen
            z = z - step
        else:
            continue
        if abs(ex.eval_jet2(phi, z).value) <= eps_bdry:
            out.append(z)
    return np.array(out)
