"""Every engine/oracle pair of the library, declared once and run by one test.

A row of ORACLES names a computed quantity, its primary engine, a
structurally independent oracle, the strategy that draws the inputs and the
tolerance on the row's error measure.  No other test states these
tolerances; acceptance criteria 1, 2 and 6 keep their own release bounds on
their own inputs.

The strategies draw the arguments of a row's `build`, which makes the case
the primary and the oracle both take.  A row's fixed `cases` always run
besides; test_each_row_can_fail moves the primary's output on the first of
them by ten times the tolerance in the row's error measure (by one count or
one ulp where the row is exact) and expects the check to fail.
"""

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qholo.expr as ex
import qholo.hull as hull
import qholo.levi as levi
import qholo.peak as pk
from qholo import forms

from helpers import (_well_conditioned, jacobi_eigh, jet_rel_err, random_blocks,
                     random_hermitian, random_pair, residual_form_from_jet,
                     theorem2_reference)

_SEEDS = st.integers(0, 2 ** 32 - 1)


@dataclass(frozen=True)
class Row:
    quantity: str
    primary: Callable       # case -> output
    oracle: Callable        # case -> what error() measures the output against
    inputs: st.SearchStrategy   # of argument tuples for build
    tol: float              # bound on error(output, oracle, case)
    build: Callable         # *arguments -> case
    error: Callable
    shift: Callable         # (output, case, by) -> output moved by `by` in error's units
    cases: tuple            # fixed argument tuples, always run
    max_examples: int


def check(row, primary, case):
    err = row.error(primary(case), row.oracle(case), case)
    assert err <= row.tol, f"{row.quantity}: error {err:.3e} above {row.tol:.1e}"


# ---------------------------------------------------------------------------
# 2-jets, of expressions and of peak extensions, against central differences


_ZERO_BLOCKS = {
    # expressions whose jets the interpreter builds from structurally zero
    # blocks: constants, affine terms, powers 0 and 1, exp of constants
    "constant": lambda z1, z2, c: ex.Const(2, 2 + 3j) * c - ex.Const(2, 1.0),
    "affine": lambda z1, z2, c: c * z1 - ex.Const(2, 1 + 1j) * ex.CVar(2, 2) + 3.0 - (-z2),
    "pow0": lambda z1, z2, c: (z1 * ex.CVar(2, 1) + z2) ** 0,
    "pow1": lambda z1, z2, c: (z1 * ex.CVar(2, 2)) ** 1,
    "pow-of-constant": lambda z1, z2, c: c ** 3 * z1,
    "div-by-constant": lambda z1, z2, c: (z1 * ex.CVar(2, 1)) / ex.Const(2, 3.0),
    "constant-over-affine": lambda z1, z2, c: c / (z1 + 4.0),
    "exp-of-constant": lambda z1, z2, c: ex.Exp(2, c) * z2 + ex.Exp(2, ex.Const(2, 1.0)),
    "exp-of-affine": lambda z1, z2, c: ex.Exp(2, c * z1 + ex.CVar(2, 2)),
}


def _jet_case(seed, zero_block=None):
    """A well-conditioned random pair with the neighbours 1e-3 away that are
    well-conditioned too, or four box points for a zero-block expression."""
    rng = np.random.default_rng(seed)
    if zero_block is not None:
        e = _ZERO_BLOCKS[zero_block](ex.Var(2, 1), ex.Var(2, 2), ex.Const(2, 0.5 - 2j))
        return e, rng.uniform(-1, 1, (4, 2)) + 1j * rng.uniform(-1, 1, (4, 2))
    e, z = random_pair(rng)
    near = z + 1e-3 * (rng.standard_normal((6, e.n)) + 1j * rng.standard_normal((6, e.n)))
    return e, np.array([z] + [p for p in near if _well_conditioned(e, p, rng)])


@cache
def _peak(fixture):
    """Criterion 7's fixtures, assembled with seed 0: (domain, point, extension)."""
    if fixture == "ball3-q2":
        dom, p, q = pk.ModelDomain.ball(3), np.array([1.0, 0.0, 0.0], dtype=complex), 2
    else:
        dom = pk.ModelDomain.ellipsoid([1.0, 1.5, 2.0], [0.2, -0.3, 0.5])
        p, q = dom.sample_boundary(1, seed=11)[0], 1
    return dom, p, pk.assemble_peak(dom, p, q, seed=0)[1]


def _peak_case(fixture, seed, count):
    """The residual-check points of verify_peak(..., seed), half of them where
    the cutoff varies."""
    dom, p, f = _peak(fixture)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x76657269]).spawn(2)[1])
    return f, pk._residual_points(f, dom, p, count, rng)


def _jets_error(batch, fds, case):
    return max(jet_rel_err(tuple(b[k] for b in batch), fd) for k, fd in enumerate(fds))


def _shift_jets(batch, case, by):
    # each row's value moves by `by` times the row's largest block (or 1)
    m = len(batch.value)
    scale = np.max([np.abs(b).reshape(m, -1).max(axis=1) for b in batch], axis=0)
    return batch._replace(value=batch.value + by * np.maximum(1.0, scale))


# ---------------------------------------------------------------------------
# The q-holomorphicity residual: wedge engine, Laplace minors, dict algebra


def _residual_case(seed):
    rng = np.random.default_rng(seed)
    e, z = random_pair(rng)
    q = int(rng.integers(1, e.n + 1))
    return e, z + np.concatenate([np.zeros((1, e.n)), 1e-3 * rng.standard_normal((4, e.n))]), q


def _relative_error(got, want, case):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.maximum(got, want))))


def _blocks_case(seed, n, dq, m, from_jet):
    """(g_zb, h_zzb, q): m random rows with exact zeros and q in 1..n+2, or the
    blocks of one random jet at n <= 5 and q in 1..n+1."""
    rng = np.random.default_rng(seed)
    if not from_jet:
        return (*random_blocks(rng, m, n), 1 + dq % (n + 2))
    e, z = random_pair(rng, n_max=5, depth_max=5)
    j = ex.eval_jet2(e, z)
    return j.g_zb[None], j.h_zzb[None], 1 + dq % (e.n + 1)


def _gather(case):
    g, h, q = case
    return (forms._wedge_power(g, h, q) if q <= g.shape[1] else None,
            forms._residuals(g, h, q))


def _dict_forms(case):
    g, h, q = case
    zero = np.zeros(h.shape[1:], dtype=complex)
    return [residual_form_from_jet(ex.Jet2(0j, g[k] * 0, g[k], zero, h[k], zero), q)
            for k in range(len(g))]


def _gather_error(got, forms_, case):
    # every coefficient and the residual, relative to the largest coefficient
    table, res = got
    n, q = case[0].shape[1], case[2]
    rows = {s: r for r, s in enumerate(combinations(range(1, n + 1), q - 1))}
    cols = {s: c for c, s in enumerate(combinations(range(1, n + 1), q))}
    worst = 0.0
    for k, form in enumerate(forms_):
        scale = max(1.0, form.sup_coeff())
        worst = max(worst, abs(res[k] - form.sup_coeff()) / scale)
        if table is not None:
            want = np.zeros(table.shape[1:], dtype=complex)
            for (i_idx, j_idx), c in form.coeffs.items():
                want[rows[i_idx], cols[j_idx]] = c
            worst = max(worst, np.max(np.abs(table[k] - want)) / scale)
    return worst


# ---------------------------------------------------------------------------
# Signatures: LAPACK, the real embedding and cyclic Jacobi


def _hermitian_case(seed, m, k, explicit):
    rng = np.random.default_rng(seed)
    return np.array([random_hermitian(rng, k) for _ in range(m)]), 1e-8 if explicit else None


def _counts(sig):
    return np.stack(sig.as_tuple(), axis=-1)


def _signature_oracles(case):
    mats, ztol = case
    h = levi.LeviMatrix(mats)
    tols = levi.default_ztol(h) if ztol is None else [ztol] * len(mats)
    jacobi = []
    for mat, tol in zip(mats, tols):
        vals, _ = jacobi_eigh(mat)
        jacobi.append((np.sum(vals > tol), np.sum(vals < -tol), np.sum(np.abs(vals) <= tol)))
    return _counts(levi.signature_oracle(h, ztol)), np.array(jacobi)


# ---------------------------------------------------------------------------
# The separation chain and the discrete hull


def _thm2_case(n, seed):
    """K on a sphere of radius r to 3r around p, the candidates in the ball of
    radius r / sqrt(n) * 0.999."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=n) + 1j * rng.normal(size=n)
    r = float(rng.uniform(0.1, 2.0))
    K = hull.sample_sphere(n, p, r * rng.uniform(1.0, 3.0), 40, seed=seed)
    Z = hull.sample_ball(n, p, r / np.sqrt(n) * 0.999, 15, seed=seed + 1)
    return n, p, r, K, Z


def _thm2_error(got, want, case):
    # the matmul table sums in another order than the reference's einsum, and
    # the closed forms are O(1/r): differences in units of 1/r
    if got[:4] != want[:4]:         # n, z_count, k_count, violations
        return math.inf
    return case[2] * max(abs(got.min_margin - want.min_margin),
                         abs(got.monotonicity_err - want.monotonicity_err),
                         *np.abs(np.subtract(got.link_slacks, want.link_slacks)))


def _hull_case(m, pole_share, seed, rows):
    """Three basener members, two with the pole p, on candidates at p and at
    offsets of 1e-320 and 1e-160 (singular: squared norm at most EPS_DIV),
    1e-140 (values near 1e140) and 1; margins in chunks of `rows`."""
    p = np.array([0.25 + 0j, 0j])
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.0, 1e-320, 1e-160, 1e-140, 1.0], size=(m, 1),
                       p=[pole_share / 3] * 3 + [(1 - pole_share) / 2] * 2)
    Z = p + scale * (rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2)))
    K = np.stack([np.exp(2j * np.pi * np.arange(16) / 16), np.zeros(16)], axis=1)
    members = [(hull.basener_expr(hull.Lambda(lam), c, 2), 2, f"f{i}", c)
               for i, (lam, c) in enumerate((([1.0, 1.0], p), ([1j, -1.0], p),
                                             ([1j, 1j], np.array([0.5j, -0.25]))))]
    return hull.build_problem(2, K, Z, members, seed=0), rows


def _discrete_hull(case):
    prob, rows = case
    with mock.patch.object(ex, "_VALUE_ROWS", rows):
        return hull.discrete_hull(prob)


def _member_table(case):
    """The (members, candidates) table of |f| - max_K |f| and its column maxima."""
    prob, _ = case
    k_maxima = [float(np.max(np.abs(ex.eval_batch(mem.expr, prob.K)))) for mem in prob.family]
    table = np.empty((len(prob.family), len(prob.Z)))
    sing = np.zeros(len(prob.Z), dtype=bool)
    for fi, mem in enumerate(prob.family):
        vals, bad, _ = ex._values(mem.expr, prob.Z)
        table[fi] = np.abs(vals) - k_maxima[fi]
        sing |= False if bad is None else bad
    margins = np.where(sing, np.inf, np.max(table, axis=0))
    return hull.HullResult((~sing) & (margins <= 0.0), margins, sing, tuple(k_maxima))


def _fields_differing(got, want, case):
    return sum(np.asarray(a).tobytes() != np.asarray(b).tobytes() for a, b in zip(got, want))


# ---------------------------------------------------------------------------


ORACLES = [
    Row("eval_jet2_batch",
        primary=lambda case: ex.eval_jet2_batch(*case),
        oracle=lambda case: [ex.finite_diff_jet(case[0], z, h=1e-4) for z in case[1]],
        inputs=st.tuples(_SEEDS), tol=1e-5, build=_jet_case,
        error=_jets_error, shift=_shift_jets,
        cases=tuple((71, name) for name in _ZERO_BLOCKS), max_examples=100),
    Row("q_holo_residuals",
        primary=lambda case: forms.q_holo_residuals(*case),
        oracle=lambda case: np.array([forms.minor_oracle_residual(case[0], z, case[2])
                                      for z in case[1]]),
        inputs=st.tuples(_SEEDS), tol=1e-10, build=_residual_case,
        error=_relative_error, shift=lambda res, case, by: res + by * np.maximum(1.0, res),
        cases=((41,),), max_examples=100),
    Row("forms._residuals",
        primary=_gather, oracle=_dict_forms,
        inputs=st.tuples(_SEEDS, st.integers(1, 6), st.integers(0, 7), st.integers(1, 3),
                         st.booleans()),
        tol=1e-13, build=_blocks_case, error=_gather_error,
        shift=lambda got, case, by: (got[0], got[1] + by * np.maximum(1.0, got[1])),
        cases=((61, 4, 2, 3, False), (62, 2, 3, 1, False), (73, 0, 4, 1, True)),
        max_examples=150),
    Row("eig_signature",
        primary=lambda case: _counts(levi.eig_signature(levi.LeviMatrix(case[0]), case[1])),
        oracle=_signature_oracles,
        inputs=st.tuples(_SEEDS, st.integers(1, 4), st.integers(1, 8), st.booleans()),
        tol=0, build=_hermitian_case,
        error=lambda got, oracles, case: max(np.max(np.abs(got - o)) for o in oracles),
        shift=lambda got, case, by: got + max(by, 1),     # at least one count
        cases=((3, 4, 5, True), (106, 2, 8, False)), max_examples=60),
    Row("PeakExtension.jet2_batch",
        primary=lambda case: case[0].jet2_batch(case[1]),
        oracle=lambda case: [ex.finite_diff_jet(case[0], z, h=3e-5, n=case[1].shape[1])
                             for z in case[1]],
        inputs=st.tuples(st.sampled_from(["ball3-q2", "ellipsoid3-q1"]), _SEEDS,
                         st.integers(1, 40)),
        tol=1e-5, build=_peak_case, error=_jets_error, shift=_shift_jets,
        cases=(("ball3-q2", 0, 200), ("ellipsoid3-q1", 0, 200)), max_examples=10),
    Row("theorem2_experiment",
        primary=lambda case: hull.theorem2_experiment(*case),
        oracle=lambda case: theorem2_reference(*case),
        inputs=st.tuples(st.sampled_from([1, 2, 3, 4, 9]), _SEEDS),
        tol=64 * np.finfo(float).eps, build=_thm2_case, error=_thm2_error,
        shift=lambda rep, case, by: rep._replace(min_margin=rep.min_margin + by / case[2]),
        cases=tuple((n, 40 + n) for n in (1, 2, 3, 4, 9)), max_examples=30),
    Row("discrete_hull",
        primary=_discrete_hull, oracle=_member_table,
        inputs=st.tuples(st.integers(1, 300), st.sampled_from([0.0, 0.3, 0.9, 1.0]),
                         _SEEDS, st.sampled_from([7, 64, ex._VALUE_ROWS])),
        tol=0, build=_hull_case, error=_fields_differing,
        shift=lambda res, case, by: res._replace(margins=np.nextafter(res.margins, np.inf)),
        cases=tuple((300, share, 8, 64) for share in (0.0, 0.3, 1.0)), max_examples=20),
]


@pytest.mark.parametrize("row", ORACLES, ids=lambda row: row.quantity)
def test_primary_agrees_with_its_oracle(row):
    def run(args):
        check(row, row.primary, row.build(*args))

    for args in row.cases:
        run = example(args)(run)
    settings(max_examples=row.max_examples)(given(row.inputs)(run))()


@pytest.mark.parametrize("row", ORACLES, ids=lambda row: row.quantity)
def test_each_row_can_fail(row):
    case = row.build(*row.cases[0])
    check(row, row.primary, case)
    with pytest.raises(AssertionError):
        check(row, lambda c: row.shift(row.primary(c), c, 10 * row.tol), case)
