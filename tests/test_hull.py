"""Weighted-reciprocal family, discrete hulls, and the separation sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qholo.expr as ex
import qholo.hull as hull
from helpers import (certification_points_reference, discrete_hull_reference,
                     sample_inner_ball_reference, theorem2_reference,
                     thm2_config_reference)
from qholo.forms import q_holo_residual


# ---------------------------------------------------------------------------
# Lambda and the closed-form function


def test_lambda_rejects_non_unit_entry():
    with pytest.raises(ValueError, match="unit modulus"):
        hull.Lambda([1.0, 0.5])


def test_lambda_rejects_empty():
    with pytest.raises(ValueError):
        hull.Lambda([])


def test_basener_value_ones_fixtures():
    lam = hull.Lambda([1.0, 1.0])
    assert hull.basener_value(lam, [1.0, 0.0]) == 1.0
    for t in (0.5, 2.0, 3.0):
        v = hull.basener_value(lam, [t, 0.0])
        assert abs(v - 1.0 / t) <= 1e-15 / t
    # (conj(.3)+conj(.3)) / (.09+.09) = 10/3, up to one rounding step
    v = abs(hull.basener_value(lam, [0.3, 0.3]))
    assert abs(v - 10.0 / 3.0) <= 1e-12 * (10.0 / 3.0)


def test_basener_value_n1_is_reciprocal():
    lam = hull.Lambda([1.0])
    for z in (0.5 + 0.5j, 2.0 + 0j, -1j):
        assert abs(hull.basener_value(lam, [z]) - 1.0 / z) <= 1e-15 * abs(1.0 / z)


def test_basener_value_rejects_singularity():
    lam = hull.Lambda([1.0, 1.0])
    with pytest.raises(ValueError, match="singular"):
        hull.basener_value(lam, [0.0, 0.0])


def test_basener_value_rejects_shape():
    lam = hull.Lambda([1.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        hull.basener_value(lam, [1.0, 0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       t=st.floats(min_value=0.1, max_value=10.0))
def test_basener_scaling_law(seed, t):
    # |f(t x)| * t = |f(x)| for real t > 0
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    lam = hull.Lambda(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
    base = abs(hull.basener_value(lam, x))
    scaled = abs(hull.basener_value(lam, t * x)) * t
    assert abs(scaled - base) <= 1e-12 * max(1.0, base)


# ---------------------------------------------------------------------------
# construct_lambda


def test_construct_lambda_fixtures():
    lam = hull.construct_lambda([3.0 + 4.0j, 0.0], [0.0, 0.0])
    assert abs(lam.entries[0] - (3 + 4j) / 5) <= 1e-15
    assert lam.entries[1] == 1.0

    lam = hull.construct_lambda([1.0, 1.0], [0.0, 0.0])
    assert lam.entries == (1.0 + 0j, 1.0 + 0j)

    lam = hull.construct_lambda([1j, -1j], [0.0, 0.0])
    assert abs(lam.entries[0] - 1j) <= 1e-15
    assert abs(lam.entries[1] + 1j) <= 1e-15


def test_construct_lambda_alignment_identity():
    # lambda_i * conj(d_i) = |d_i| is the defining property
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        lam = hull.construct_lambda(z, p)
        d = z - p
        aligned = lam.as_array() * np.conj(d)
        assert np.max(np.abs(aligned - np.abs(d))) <= 1e-14 * max(1.0, np.max(np.abs(d)))


def test_construct_lambda_rejects_center():
    with pytest.raises(ValueError, match="equals the center"):
        hull.construct_lambda([1.0, 2.0], [1.0, 2.0])


def test_random_lambdas_unit_and_deterministic():
    a = hull.random_lambdas(3, 5, np.random.default_rng(11))
    b = hull.random_lambdas(3, 5, np.random.default_rng(11))
    assert len(a) == 5
    for la, lb in zip(a, b):
        assert la.entries == lb.entries


# ---------------------------------------------------------------------------
# Expression form of the family


def test_basener_expr_matches_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        lam = hull.Lambda(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
        e = hull.basener_expr(lam, p, n)
        z = p + rng.normal(size=n) + 1j * rng.normal(size=n)
        want = hull.basener_value(lam, z - p)
        got = ex.eval_value(e, z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_basener_expr_unit_displacement():
    lam = hull.Lambda([1.0, 1.0])
    p = np.array([0.5 + 0.5j, -1.0 + 0j])
    e = hull.basener_expr(lam, p, 2)
    z = p + np.array([1.0, 0.0])
    assert abs(ex.eval_value(e, z) - 1.0) <= 1e-14


def test_basener_expr_is_n_holomorphic():
    # q = n certification away from the singular center
    rng = np.random.default_rng(5)
    for n in (2, 3):
        lam = hull.Lambda(np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        e = hull.basener_expr(lam, p, n)
        pts = hull.certification_points(n, seed=41, count=40, avoid=p,
                                        avoid_radius=0.3)
        worst = max(q_holo_residual(e, z, n) for z in pts)
        assert worst <= 1e-9


def test_basener_expr_rejects_center_shape():
    lam = hull.Lambda([1.0, 1.0])
    with pytest.raises(ValueError, match="shape"):
        hull.basener_expr(lam, [0.0], 2)


# ---------------------------------------------------------------------------
# Certification and problem assembly


def test_certify_member_accepts_holomorphic():
    e = ex.parse("z1*z2", 2)
    pts = hull.certification_points(2, seed=1, count=25)
    mem = hull.certify_member(e, 1, pts, name="prod")
    assert mem.residual_bound <= 1e-12
    assert mem.name == "prod"


def test_certify_member_rejects_wrong_q():
    e = ex.parse("abs2(z1)", 2)
    pts = hull.certification_points(2, seed=2, count=25)
    with pytest.raises(ValueError, match="failed certification"):
        hull.certify_member(e, 1, pts)


def test_build_problem_certifies_all():
    K = hull.sample_sphere(2, [0, 0], 1.0, 20, seed=9)
    Z = hull.certification_points(2, seed=10, count=15)
    members = [(ex.parse("z1", 2), 1, "z1", None),
               (ex.parse("z1*z2", 2), 1, "prod", None)]
    prob = hull.build_problem(2, K, Z, members, seed=3)
    assert len(prob.family) == 2
    assert all(m.residual_bound <= 1e-8 for m in prob.family)


# ---------------------------------------------------------------------------
# Discrete hull membership


def _disc_points(count, radius=1.0):
    th = np.linspace(0, 2 * np.pi, count, endpoint=False)
    return np.stack([radius * np.exp(1j * th), np.zeros(count, complex)], axis=1)


def test_hull_contains_k_points():
    # candidates that literally appear in K can never be excluded
    K = _disc_points(16)
    Z = np.concatenate([K[:8], K[:8] * 0.5])
    members = [(ex.parse("z1", 2), 1, "z1", None),
               (ex.parse("z1^2+z2", 2), 1, "sq", None)]
    prob = hull.build_problem(2, K, Z, members, seed=0)
    res = hull.discrete_hull(prob)
    assert all(res.members[:8])
    assert all(m <= 0 for m in res.margins[:8])


def test_hull_circle_excludes_outside():
    # family {z1}: hull of the unit circle keeps |z1| <= 1 candidates only
    K = _disc_points(32)
    Z = np.array([[0.5 + 0j, 0j], [0.0j, 0j], [1.2 + 0j, 0j], [0 + 1.5j, 0j]])
    prob = hull.build_problem(2, K, Z, [(ex.parse("z1", 2), 1, "z1", None)],
                              seed=0)
    res = hull.discrete_hull(prob)
    assert res.members.tolist() == [True, True, False, False]
    assert res.margins[2] == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError, match="read-only"):
        res.members[0] = False


def test_hull_marks_singular_candidates():
    lam = hull.Lambda([1.0, 1.0])
    p = np.zeros(2, complex)
    K = _disc_points(16)
    Z = np.array([[0j, 0j], [0.5 + 0j, 0j]])
    members = [(hull.basener_expr(lam, p, 2), 2, "f", p)]
    prob = hull.build_problem(2, K, Z, members, seed=0)
    res = hull.discrete_hull(prob)
    assert res.singular.tolist() == [True, False]
    assert res.members.tolist()[0] is False
    assert res.margins[0] == np.inf


def test_hull_poles_on_a_grid_of_several_chunks():
    # poles near the start, the middle and the end of a grid of several
    # hundred rows; every other row keeps its row-by-row margin
    lam = hull.Lambda([1.0, 1.0])
    p = np.array([0.25 + 0j, -0.5j])
    rng = np.random.default_rng(4)
    m = 3 * 256 + 17
    Z = p + rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    poles = [3, 256 + 5, m - 1]
    Z[poles] = p
    f = hull.basener_expr(lam, p, 2)
    prob = hull.build_problem(2, _disc_points(16), Z, [(f, 2, "f", p)], seed=0)
    res = hull.discrete_hull(prob)
    assert np.flatnonzero(res.singular).tolist() == poles
    rows = [i for i in range(m) if i not in poles]
    want = [np.abs(ex.eval_value(f, Z[i])) - res.k_maxima[0] for i in rows]
    assert [res.margins[i] for i in rows] == want
    assert all(res.margins[i] == np.inf for i in poles)


def _singular_grid_problem(m, pole_share, seed):
    # two members with the pole p; rows at p and at offsets of 1e-320 and
    # 1e-160 (squared norm at most EPS_DIV) are singular, rows at 1e-140
    # (values near 1e140) and at ordinary offsets are not
    p = np.array([0.25 + 0j, 0j])
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.0, 1e-320, 1e-160, 1e-140, 1.0], size=(m, 1),
                       p=[pole_share / 3] * 3 + [(1 - pole_share) / 2] * 2)
    Z = p + scale * (rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2)))
    members = [(hull.basener_expr(hull.Lambda(lam), p, 2), 2, f"f{i}", p)
               for i, lam in enumerate(([1.0, 1.0], [1j, -1.0]))]
    return hull.build_problem(2, _disc_points(16), Z, members, seed=0)


def test_mostly_singular_grid_matches_row_by_row_evaluation():
    prob = _singular_grid_problem(500, 0.9, seed=6)
    res = hull.discrete_hull(prob)
    want_sing, want_margin = [], []
    for z in prob.Z:
        try:
            vals = [np.abs(ex.eval_value(mem.expr, z)) - k
                    for mem, k in zip(prob.family, res.k_maxima)]
        except ex.EvalError:
            want_sing.append(True)
            want_margin.append(np.inf)
            continue
        want_sing.append(False)
        want_margin.append(max(vals))
    assert 0 < sum(not s for s in want_sing) < 0.2 * len(prob.Z)
    assert res.singular.tolist() == want_sing
    assert res.margins.tolist() == want_margin


@pytest.mark.parametrize("pole_share", [0.0, 0.3, 1.0])
def test_hull_running_maximum_equals_the_member_table(monkeypatch, pole_share):
    # values in chunks of 64 rows; margins of several members with poles
    # among the candidates, bit for bit
    monkeypatch.setattr(ex, "_VALUE_ROWS", 64)
    prob = _singular_grid_problem(300, pole_share, seed=8)
    lam = hull.Lambda([1j, 1j])
    prob = hull.HullProblem(2, prob.K, prob.Z, prob.family + (hull.FamilyMember(
        hull.basener_expr(lam, np.array([0.5j, -0.25]), 2), 2, 0.0, "g"),))
    got = hull.discrete_hull(prob)
    want = discrete_hull_reference(prob)
    for a, b in zip(got[:3], want[:3]):
        assert a.tobytes() == b.tobytes()
    assert got.k_maxima == want[3]


def test_all_singular_grid_evaluates_each_member_once(monkeypatch):
    # the sweep's work is bounded without a clock: one interpreter run per
    # member over the candidates, and no error text formatted
    prob = _singular_grid_problem(2000, 1.0, seed=7)
    runs, texts = [], []
    run, to_text = ex._run, ex.to_text
    monkeypatch.setattr(ex, "_run", lambda tape, pts, *a: runs.append(len(pts))
                        or run(tape, pts, *a))
    monkeypatch.setattr(ex, "to_text", lambda e: texts.append(e) or to_text(e))
    res = hull.discrete_hull(prob)
    assert res.singular.all()
    assert runs.count(len(prob.Z)) == len(prob.family) and len(runs) == 2 * len(prob.family)
    assert texts == []


def test_hull_excludes_punctured_inner_ball():
    # each candidate in B(p, r/sqrt(n)) \ {p} is excluded by its own witness
    n, r = 2, 1.0
    p = np.array([0.25 - 0.5j, 1.0 + 0j])
    K = hull.sample_sphere(n, p, r, 60, seed=21)
    Z = hull.sample_ball(n, p, r / np.sqrt(n) * (1 - 1e-9), 12, seed=22)
    members = [(hull.basener_expr(hull.construct_lambda(z, p), p, n), n,
                f"w{i}", p) for i, z in enumerate(Z)]
    prob = hull.build_problem(n, K, Z, members, seed=4)
    res = hull.discrete_hull(prob)
    assert not any(res.members)
    assert all(m > 0 for m in res.margins)


def test_hull_monotone_in_k():
    # growing K can only grow the hull
    rng = np.random.default_rng(30)
    K1 = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    K2 = np.concatenate([K1, rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))])
    Z = rng.normal(size=(25, 2)) + 1j * rng.normal(size=(25, 2))
    members = [(ex.parse("z1", 2), 1, "a", None),
               (ex.parse("z2^2", 2), 1, "b", None),
               (ex.parse("exp(0.3*z1*z2)", 2), 1, "c", None)]
    r1 = hull.discrete_hull(hull.build_problem(2, K1, Z, members, seed=0))
    r2 = hull.discrete_hull(hull.build_problem(2, K2, Z, members, seed=0))
    for m1, m2 in zip(r1.members, r2.members):
        assert (not m1) or m2


def test_hull_antitone_in_family():
    # growing the family can only shrink the hull
    rng = np.random.default_rng(31)
    K = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    Z = rng.normal(size=(25, 2)) + 1j * rng.normal(size=(25, 2))
    small = [(ex.parse("z1", 2), 1, "a", None)]
    big = small + [(ex.parse("z2", 2), 1, "b", None),
                   (ex.parse("z1*z2", 2), 1, "c", None)]
    r_small = hull.discrete_hull(hull.build_problem(2, K, Z, small, seed=0))
    r_big = hull.discrete_hull(hull.build_problem(2, K, Z, big, seed=0))
    for mb, ms in zip(r_big.members, r_small.members):
        assert (not mb) or ms


# ---------------------------------------------------------------------------
# Separation experiment


def test_theorem2_worked_example():
    n, r = 2, 1.0
    p = np.zeros(n, complex)
    K = hull.sample_sphere(n, p, 1.25, 40, seed=1)
    Z = hull.sample_ball(n, p, r / np.sqrt(n) * 0.9, 25, seed=2)
    rep = hull.theorem2_experiment(n, p, r, K, Z)
    assert rep.violations == 0
    assert rep.min_margin > 0
    assert rep.z_count == 25 and rep.k_count == 40
    assert rep.link_slacks[2] > 0           # the strict link
    assert rep.monotonicity_err <= 1e-12


def test_theorem2_boundary_of_validity():
    # K exactly on the sphere of radius r, z just inside r/sqrt(n)
    n, r = 3, 0.8
    p = np.array([1.0 + 0j, -0.5j, 0.25 + 0.25j])
    K = hull.sample_sphere(n, p, r, 50, seed=5)
    Z = hull.sample_sphere(n, p, r / np.sqrt(n) * (1 - 1e-6), 20, seed=6)
    rep = hull.theorem2_experiment(n, p, r, K, Z)
    assert rep.violations == 0
    assert rep.min_margin > 0


def test_theorem2_rejects_k_inside():
    n, r = 2, 1.0
    p = np.zeros(n, complex)
    K = hull.sample_sphere(n, p, r, 10, seed=1)
    K[3] = p + np.array([0.5 * r, 0.0])
    Z = hull.sample_ball(n, p, r / np.sqrt(n) * 0.9, 5, seed=2)
    with pytest.raises(ValueError, match=r"indices \[3\]"):
        hull.theorem2_experiment(n, p, r, K, Z)


def test_theorem2_rejects_z_outside():
    n, r = 2, 1.0
    p = np.zeros(n, complex)
    K = hull.sample_sphere(n, p, r, 10, seed=1)
    Z = hull.sample_ball(n, p, r / np.sqrt(n) * 0.9, 5, seed=2)
    Z[1] = p + np.array([r, 0.0])
    with pytest.raises(ValueError, match=r"indices \[1\]"):
        hull.theorem2_experiment(n, p, r, K, Z)


def test_theorem2_rejects_empty_input():
    n, r = 2, 1.0
    p = np.zeros(n, complex)
    K = hull.sample_sphere(n, p, r, 10, seed=1)
    Z = hull.sample_ball(n, p, r / np.sqrt(n) * 0.9, 5, seed=2)
    with pytest.raises(ValueError, match="nonempty"):
        hull.theorem2_experiment(n, p, r, K[:0], Z)
    with pytest.raises(ValueError, match="nonempty"):
        hull.theorem2_experiment(n, p, r, K, Z[:0])
    with pytest.raises(ValueError, match="configs"):
        hull.run_theorem2_batch(configs=0)


@pytest.mark.parametrize("kwargs, match", [
    ({"ns": ()}, "ns"),
    ({"ns": (2, 0)}, "ns"),
    ({"r_range": (0.0, 0.0)}, "r_range"),
    ({"r_range": (1.0, 0.5)}, "r_range"),
    ({"r_range": (0.1, float("inf"))}, "r_range"),
], ids=["ns-empty", "ns-zero", "r-zero", "r-reversed", "r-infinite"])
def test_theorem2_batch_rejects_invalid_config(kwargs, match):
    with pytest.raises(ValueError, match=match):
        hull.run_theorem2_batch(configs=2, **kwargs)


def test_theorem2_batch_radius_below_the_floor_raises_before_drawing_k(monkeypatch):
    # at r = 1e-100, (p + x) - p rounds to 0 and no K draw is ever kept:
    # the candidates' ball r / sqrt(n) fails its floor before K is drawn
    def no_k(*args):
        raise AssertionError("K drawn")

    monkeypatch.setattr(hull, "_outside_balls", no_k)
    with pytest.raises(ValueError, match="floor"):
        hull.run_theorem2_batch(configs=1, ns=(2,), k_count=5, z_count=5,
                                r_range=(1e-100, 1e-100))


def test_sample_ball_rejects_radius_at_floor():
    with pytest.raises(ValueError, match="floor"):
        hull.sample_ball(2, np.zeros(2), 0.0, 5, seed=1)


def test_theorem2_batch_small_sweep():
    rep = hull.run_theorem2_batch(configs=20, seed=0)
    assert rep.configs == 20
    assert rep.violations == 0
    assert rep.min_margin > 0
    assert rep.min_link_slacks[2] > 0
    # scaling by 0.5 and 2 is exact in binary floating point, on every candidate
    assert rep.max_monotonicity_err == 0.0


def test_theorem2_batch_of_one_is_the_single_report(monkeypatch):
    calls = []
    chain = hull._chain

    def spy(*args):
        calls.append(args)
        return chain(*args)

    monkeypatch.setattr(hull, "_chain", spy)
    batch = hull.run_theorem2_batch(configs=1, seed=7)
    ((n, r, dk, dz),) = calls
    # K - 0 and Z - 0 are the displacements themselves
    rep = hull.theorem2_experiment(n, np.zeros(n, complex), r[0], dk[0], dz[0])
    assert rep.z_count == 50 and rep.k_count == 200
    assert batch.violations == rep.violations
    assert batch.min_margin == rep.min_margin
    assert batch.min_link_slacks == rep.link_slacks
    assert batch.max_monotonicity_err == rep.monotonicity_err


@pytest.mark.parametrize("n", [1, 2, 4, 9])
def test_theorem2_experiment_is_its_slice_of_the_stacked_chain(n):
    rng = np.random.default_rng(n)
    configs = []
    for i in range(5):
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = float(rng.uniform(0.1, 2.0))
        K = hull.sample_sphere(n, p, r * rng.uniform(1.0, 3.0), 30 + 7 * n, seed=i)
        Z = hull.sample_ball(n, p, r / np.sqrt(n) * 0.99, 11, seed=100 + i)
        configs.append((p, r, K, Z))
    stacked = hull._chain(n, np.array([c[1] for c in configs]),
                          np.stack([K - p for p, _, K, _ in configs]),
                          np.stack([Z - p for p, _, _, Z in configs]))
    assert stacked.link_slacks.shape == (5, 5)
    for i, (p, r, K, Z) in enumerate(configs):
        rep = hull.theorem2_experiment(n, p, r, K, Z)
        assert rep[:3] == stacked[:3]           # n, z_count, k_count
        assert type(rep.violations) is int and rep.violations == stacked.violations[i]
        assert rep.min_margin == stacked.min_margin[i]
        assert rep.link_slacks == tuple(stacked.link_slacks[i].tolist())
        assert rep.monotonicity_err == stacked.monotonicity_err[i]
    assert not stacked.violations.any()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_theorem2_experiment_matches_the_per_configuration_reference(n):
    # the matmul table sums in another order than the reference's einsum:
    # values agree to a few ulps of the closed forms, which are O(1/r) here
    rng = np.random.default_rng(40 + n)
    for i in range(6):
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        r = float(rng.uniform(0.1, 2.0))
        K = hull.sample_sphere(n, p, r * rng.uniform(1.0, 3.0), 40, seed=i)
        Z = hull.sample_ball(n, p, r / np.sqrt(n) * 0.999, 15, seed=50 + i)
        got = hull.theorem2_experiment(n, p, r, K, Z)
        want = theorem2_reference(n, p, r, K, Z)
        assert (got.violations, got.z_count, got.k_count) == (want.violations, 15, 40)
        tol = 64 * np.finfo(float).eps / r
        assert abs(got.min_margin - want.min_margin) <= tol
        assert np.max(np.abs(np.subtract(got.link_slacks, want.link_slacks))) <= tol
        assert got.monotonicity_err == want.monotonicity_err == 0.0


@pytest.mark.parametrize("seed", [0, 7, 105])
def test_theorem2_batch_does_not_depend_on_the_stack_size(monkeypatch, seed):
    # stacks of one configuration, of five (the last one partial) and of
    # all pass K's 60 points through the chain in chunks of 7, 9 or 21, the
    # last one ragged; the last setting takes one stack and one chunk
    kw = dict(configs=40, seed=seed, ns=(2, 3, 9), k_count=60, z_count=20)
    reps = []
    for pairs in (60 * 20, 5 * 60 * 20, 40 * 60 * 20, 2 ** 40):
        monkeypatch.setattr(hull, "_STACK_PAIRS", pairs)
        reps.append(hull.run_theorem2_batch(**kw))
    assert reps[0] == reps[1] == reps[2] == reps[3]
    assert reps[0].configs == 40 and reps[0].violations == 0

    # every configuration's row: K in chunks of 7 that tile it, the last one
    # of 4, against K whole
    args = hull._sample_configs(np.random.SeedSequence([seed, 5]).spawn(24), 3,
                                (0.1, 2.0), 60, 20)
    seen, weights = [], hull._weights

    class Chunks(np.ndarray):       # records the K side's chunks
        def __getitem__(self, key):
            seen.append(np.asarray(self)[key])
            return seen[-1]

    monkeypatch.setattr(hull, "_weights",
                        lambda d: weights(d).view(Chunks) if d.ndim == 3 else weights(d))
    monkeypatch.setattr(hull, "_STACK_PAIRS", 8 * 7 * 24 * 20)
    chunked = hull._chain(3, *args)
    assert [w.shape[1] for w in seen] == [7] * 8 + [4]
    assert np.array_equal(np.concatenate(seen, axis=1), weights(args[1]))
    monkeypatch.setattr(hull, "_STACK_PAIRS", 2 ** 40)
    for got, want in zip(chunked, hull._chain(3, *args)):
        assert np.array_equal(got, want)


def test_theorem2_planted_fault_counts_in_both_modes(monkeypatch):
    # a relative error of 1e-6 in f_lambda must break link 1 on every candidate
    exact = hull._weights
    monkeypatch.setattr(hull, "_weights", lambda d: exact(d) * (1 + 1e-6))
    n, r = 2, 1.0
    p = np.zeros(n, complex)
    K = hull.sample_sphere(n, p, 1.25, 40, seed=1)
    Z = hull.sample_ball(n, p, r / np.sqrt(n) * 0.9, 25, seed=2)
    rep = hull.theorem2_experiment(n, p, r, K, Z)
    assert rep.violations >= 25
    assert rep.link_slacks[0] < -1e-12
    assert hull.run_theorem2_batch(configs=3, seed=0).violations >= 150


@pytest.mark.parametrize("halfwidth_factor, r_range, short, redrawn", [
    pytest.param(2.5, (0.1, 2.0), False, False, id="2.5"),
    pytest.param(1.2, (0.1, 2.0), True, False, id="1.2"),
    pytest.param(1.0, (0.1, 2.0), True, True, id="1.0"),
    pytest.param(2.5, (3.003e-9, 3.006e-9), True, True, id="near-floor"),
    pytest.param(2.5, (1e99, hull._MAX_R), False, False, id="max-r")])
def test_stacked_thm2_sampler_matches_the_per_configuration_reference(
        monkeypatch, halfwidth_factor, r_range, short, redrawn):
    # near 1 the box around B(p, r) is mostly ball at n = 1, so K's first
    # prefix comes up short: at 1.2 the rest of its block suffices, at 1.0
    # it takes another block.  With r/3 next to the 1e-9 floor, n = 9's
    # candidates keep ~2% of their draws and take many blocks.  Every
    # generator must end where the reference's does, skipped rows included,
    # and the center, the radius and the box, affine maps of raw doubles
    # here, must equal uniform's at every scale
    shorts, redraws, stacks = [], [], []
    first_kept = hull._first_kept

    def spy(rngs, make, *args):
        made = []

        def counted_make(idx, *parts):
            made.extend(idx if len(idx) == 1 and len(rngs) > 1 else [])
            return make(idx, *parts)

        out = first_kept(rngs, counted_make, *args)
        shorts.extend(made)
        redraws.extend(i for i in made if made.count(i) > 1)
        stacks.append(rngs)
        return out

    monkeypatch.setattr(hull, "_first_kept", spy)
    for seed, n, k_count, z_count in ((0, 1, 40, 9), (1, 2, 30, 11),
                                      (2, 3, 25, 6), (3, 9, 12, 5)):
        children = np.random.SeedSequence([seed, 5]).spawn(6)
        r, dk, dz = hull._sample_configs(children, n, r_range, k_count,
                                         z_count, halfwidth_factor)
        assert dk.shape == (6, k_count, n) and dz.shape == (6, z_count, n)
        for i, child in enumerate(children):
            want = thm2_config_reference(child, n, r_range, k_count, z_count,
                                         halfwidth_factor)
            assert r[i] == want[0]
            assert np.array_equal(dk[i], want[1]) and np.array_equal(dz[i], want[2])
            assert stacks[-1][i].uniform(size=3).tobytes() == \
                want[3].uniform(size=3).tobytes()
    assert bool(shorts) == short and bool(redraws) == redrawn


def test_outside_mask_follows_the_complex_norm_at_ties():
    # rows at a radius r equal to their norm or one ulp either side of it,
    # where a sum of squares in another order misjudges some rows
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 9):
        d = rng.uniform(-2, 2, size=(400, 2 * n))
        norm = np.linalg.norm(hull._complex(d), axis=-1)
        for r in (norm, np.nextafter(norm, 0), np.nextafter(norm, np.inf)):
            assert np.array_equal(hull._outside(d, r), norm >= r)


@pytest.mark.parametrize("n", [1, 2])
def test_sample_ball_matches_the_reference_when_short(n):
    # floor 0.9 of radius 1 keeps ~19% (n = 1) or ~34% (n = 2) of the draws
    p = np.array([0.5 - 0.25j, 1j])[:n]
    got = hull.sample_ball(n, p, 1.0, 40, seed=3, floor=0.9)
    rng = np.random.default_rng(np.random.SeedSequence([3, 0x62616c6c]))
    want = sample_inner_ball_reference(rng, n, p, 1.0, 40, floor=0.9)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Samplers


def test_sample_sphere_radius_and_determinism():
    p = np.array([1.0 + 1.0j, 0.0, -2.0j])
    a = hull.sample_sphere(3, p, 0.7, 30, seed=8)
    b = hull.sample_sphere(3, p, 0.7, 30, seed=8)
    c = hull.sample_sphere(3, p, 0.7, 30, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    radii = np.linalg.norm(a - p[None, :], axis=1)
    assert np.max(np.abs(radii - 0.7)) <= 1e-12


def test_sample_ball_inside_and_deterministic():
    p = np.array([0.5j, 0.5])
    a = hull.sample_ball(2, p, 0.4, 50, seed=12)
    b = hull.sample_ball(2, p, 0.4, 50, seed=12)
    assert np.array_equal(a, b)
    radii = np.linalg.norm(a - p[None, :], axis=1)
    assert np.all(radii < 0.4)
    assert np.all(radii >= 1e-9)


def test_certification_points_avoid_region():
    p = np.array([0.3 + 0j, -0.1j])
    pts = hull.certification_points(2, seed=14, count=80, avoid=p,
                                    avoid_radius=0.5)
    dist = np.linalg.norm(pts - p[None, :], axis=1)
    assert np.all(dist >= 0.5)
    again = hull.certification_points(2, seed=14, count=80, avoid=p,
                                      avoid_radius=0.5)
    assert np.array_equal(pts, again)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31), n=st.integers(1, 4), count=st.integers(1, 400),
       centers=st.integers(0, 3), radius=st.floats(0.05, 4.0))
def test_certification_points_match_the_draw_at_a_time_reference(
        seed, n, count, centers, radius):
    # one (k, 2n) uniform draw reads the generator as k draws of 2n do, so
    # the block-drawn sample is the reference's bit for bit, stall included
    rng = np.random.default_rng(seed)
    avoid = (rng.uniform(-1, 1, size=(centers, n)) + 1j * rng.uniform(-1, 1, size=(centers, n))
             if centers else None)
    kwargs = dict(count=count, halfwidth=1.0, avoid=avoid, avoid_radius=radius)
    try:
        want = certification_points_reference(n, seed, **kwargs)
    except RuntimeError as e:
        with pytest.raises(RuntimeError, match=str(e)):
            hull.certification_points(n, seed, **kwargs)
        return
    got = hull.certification_points(n, seed, **kwargs)
    assert got.shape == want.shape == (count, n)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count, seed, radius, stalls", [
    (30, 3, 0.5, False), (30, 3, 1.75, True), (30, 3, 10.0, True),
    (1, 183, 1.75, False),
], ids=["keeps", "rare", "none", "last-draw"])
def test_certification_points_stall_like_the_reference(count, seed, radius, stalls):
    # around the origin of [-1, 1]^4, radius 1.75 keeps about 0.3% of draws:
    # some, but fewer than 30 in 3000 draws; with seed 183 the only kept
    # draw of the first 100 is the 100th, the last one a count of 1 allows
    kwargs = dict(count=count, halfwidth=1.0, avoid=np.zeros(2), avoid_radius=radius)
    if stalls:
        with pytest.raises(RuntimeError) as want:
            certification_points_reference(2, seed, **kwargs)
        with pytest.raises(RuntimeError) as got:
            hull.certification_points(2, seed, **kwargs)
        assert str(got.value) == str(want.value)
        return
    want = certification_points_reference(2, seed, **kwargs)
    assert hull.certification_points(2, seed, **kwargs).tobytes() == want.tobytes()
