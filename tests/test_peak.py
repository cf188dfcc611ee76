"""Slice selection, cutoff, and the local peak extension on model domains."""

import json

import numpy as np
import pytest

import qholo.expr as ex
import qholo.peak as pk
from helpers import cli_fixtures, jacobi_eigh, residual_points_reference
from qholo import levi
from qholo.cli import run as cli_run


# ---------------------------------------------------------------------------
# Cutoff


def test_cutoff_exact_endpoints():
    g = pk.CutoffG(0.5)
    assert g(-1.0) == 1.0
    assert g(0.0) == 1.0
    assert g(0.5) == 0.0
    assert g(2.0) == 0.0


def test_cutoff_monotone_and_bounded():
    g = pk.CutoffG(0.7)
    t = np.linspace(-0.5, 1.4, 10_000)
    v = g(t)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert np.all(np.diff(v) <= 0.0)


def test_cutoff_midpoint_symmetry():
    # s(r-t)/(s(r-t)+s(t)) swaps ends: g(t) + g(r-t) = 1 in the transition
    g = pk.CutoffG(1.0)
    t = np.linspace(0.05, 0.95, 19)
    assert np.max(np.abs(g(t) + g(1.0 - t) - 1.0)) <= 1e-15


def test_cutoff_jet_matches_differences_and_is_flat_outside():
    g = pk.CutoffG(0.6)
    t = np.array([-0.3, 0.0, 0.6, 0.9, 1e-300, 0.6 - 1e-17])
    v, d1, d2 = g.jet(t)
    assert np.array_equal(v, g(t))
    assert np.all(d1 == 0.0) and np.all(d2 == 0.0)
    t = np.linspace(0.03, 0.57, 55)
    h = 1e-5
    v, d1, d2 = g.jet(t)
    assert np.array_equal(v, g(t))
    fd1 = (g(t + h) - g(t - h)) / (2 * h)
    fd2 = (g(t + h) - 2 * g(t) + g(t - h)) / h ** 2
    assert np.max(np.abs(d1 - fd1)) <= 1e-6 * np.max(np.abs(d1))
    assert np.max(np.abs(d2 - fd2)) <= 1e-4 * np.max(np.abs(d2))


@pytest.mark.parametrize("r", [0.002, 0.001])
def test_cutoff_below_2_over_745_is_finite_where_both_exponentials_underflow(r):
    # at these radii exp(-1/(r-t)) and exp(-1/t) both underflow near t = r/2
    g = pk.CutoffG(r)
    assert g(r / 2) == 0.5
    t = np.linspace(-0.1 * r, 1.1 * r, 2001)
    v, d1, d2 = g.jet(t)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(np.diff(v) <= 0.0)
    # the transition has width about 1/L'(r/2) = r^2/8
    w = r * r / 8
    t = r / 2 + np.linspace(-40 * w, 40 * w, 401)
    h = 1e-3 * w
    v, d1, d2 = g.jet(t)
    fd1 = (g(t + h) - g(t - h)) / (2 * h)
    fd2 = (g.jet(t + h)[1] - g.jet(t - h)[1]) / (2 * h)
    assert np.max(np.abs(d1 - fd1)) <= 1e-5 * np.max(np.abs(d1))
    assert np.max(np.abs(d2 - fd2)) <= 1e-5 * np.max(np.abs(d2))


def test_cutoff_rejects_bad_radius():
    with pytest.raises(ValueError):
        pk.CutoffG(0.0)


# ---------------------------------------------------------------------------
# Model domains


def test_ball_rejects_bad_radius():
    with pytest.raises(ValueError):
        pk.ModelDomain.ball(2, radius=-1.0)


def test_ellipsoid_requires_strict_convexity():
    with pytest.raises(ValueError, match="strictly convex"):
        pk.ModelDomain.ellipsoid([1.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="equal positive length"):
        pk.ModelDomain.ellipsoid([1.0], [0.0, 0.0])


def test_ball_phi_values():
    dom = pk.ModelDomain.ball(2, radius=0.5, center=[1.0, 0.0])
    assert ex.eval_value(dom.phi, np.array([1.0, 0.0])) == -0.25
    assert abs(ex.eval_value(dom.phi, np.array([1.5, 0.0]))) <= 1e-15


def test_interior_sampling_stays_inside():
    dom = pk.ModelDomain.ellipsoid([1.0, 2.0], [0.3, -0.5])
    pts = dom.sample_interior(200, np.random.default_rng(4))
    vals = ex.eval_batch(dom.phi, pts).real
    assert pts.shape == (200, 2)
    assert np.all(vals < 0)
    again = dom.sample_interior(200, np.random.default_rng(4))
    assert np.array_equal(pts, again)


def test_interior_sampling_raises_only_for_failed_draws_before_the_last_needed():
    # the unit ball, with a term that is 0 where it evaluates and has a
    # near-zero divisor at draws with |z1 - 2|^2 above about 49; seed 3's
    # first block of 2000 draws has interior draws 781 and 1120, and failed
    # draws 824, 1088 and 1905
    phi = ex.parse("abs2(z1)+abs2(z2)-1+0*(1/exp(-14*abs2(z1-2)))", 2)
    dom = pk.ModelDomain.from_expr(2, phi, 4.0)
    x = np.random.default_rng(3).uniform(-4.0, 4.0, size=(2000, 4))
    got = dom.sample_interior(1, np.random.default_rng(3))
    assert got.tobytes() == (x[781:782, :2] + 1j * x[781:782, 2:]).tobytes()
    with pytest.raises(ex.EvalError, match="^custom interior draw 824: division") as err:
        dom.sample_interior(2, np.random.default_rng(3))
    assert err.value.row == 824


def test_interior_sampling_of_no_points_has_shape_0_by_n():
    pts = pk.ModelDomain.ball(3).sample_interior(0, np.random.default_rng(0))
    assert pts.shape == (0, 3) and pts.dtype == complex


# ---------------------------------------------------------------------------
# Slice selection


def test_select_slice_ball_q1_spans_everything():
    dom = pk.ModelDomain.ball(3)
    p = np.array([1.0, 0.0, 0.0], dtype=complex)
    info = pk.select_slice(dom, p, 1)
    assert info.L.shape == (3, 3)
    assert np.max(np.abs(info.nu - np.array([1, 0, 0]))) <= 1e-14
    assert info.gram_err <= 1e-12
    assert info.n_pos == 2


def test_select_slice_ball_q2():
    dom = pk.ModelDomain.ball(3)
    p = np.array([0.0, 0.0, 1.0], dtype=complex)
    info = pk.select_slice(dom, p, 2)
    assert info.L.shape == (3, 2)
    assert info.L[:, 0] == pytest.approx(info.nu)
    # eigenvalues of the restricted sphere Levi form are all 1
    assert info.eigenvalues == pytest.approx(np.ones(2))
    assert list(info.eigenvalues) == sorted(info.eigenvalues, reverse=True)


def test_select_slice_mixed_signature_boundary():
    # |z1|^2 + |z2|^2 - |z3|^2 - 1: restricted form diag(1, -1) at (1, 0, 0)
    phi = ex.parse("abs2(z1)+abs2(z2)-abs2(z3)-1", 3)
    dom = pk.ModelDomain.from_expr(3, phi, box_halfwidth=2.0)
    p = np.array([1.0, 0.0, 0.0], dtype=complex)
    info = pk.select_slice(dom, p, 2)
    assert info.n_pos == 1
    # the single positivity direction lies in the z2 axis
    assert abs(abs(info.tangent_vectors[1, 0]) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="insufficient positive"):
        pk.select_slice(dom, p, 1)


def test_select_slice_matches_jacobi_eigenvectors():
    # the ellipsoid3 fixture of acceptance criterion 7
    dom = pk.ModelDomain.ellipsoid([1.0, 1.5, 2.0], [0.2, -0.3, 0.5])
    p = dom.sample_boundary(1, seed=11)[0]
    info = pk.select_slice(dom, p, 1)
    _, frame, restricted = levi.restricted_levi_form(dom.phi, p)
    vals, vecs = jacobi_eigh(restricted)
    order = np.argsort(-vals, kind="stable")
    assert np.max(np.abs(info.eigenvalues - vals[order])) <= 1e-12
    lifted = pk._canonical_phases(frame @ vecs[:, order[:2]])
    assert np.max(np.abs(info.tangent_vectors - lifted)) <= 1e-12


def test_select_slice_rejects_bad_inputs():
    dom = pk.ModelDomain.ball(2)
    p = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="q must be"):
        pk.select_slice(dom, p, 2)
    with pytest.raises(ValueError, match="not on the boundary"):
        pk.select_slice(dom, np.array([0.5, 0.0], dtype=complex), 1)


# ---------------------------------------------------------------------------
# The holomorphic factor


def test_build_peak_h_is_one_at_p():
    p = np.array([0.3 + 0.4j, -0.2j], dtype=complex)
    nu = np.array([0.6, 0.8j], dtype=complex)
    h = pk.build_peak_h(p, nu, 1.5)
    assert ex.eval_value(h, p) == 1.0


def test_build_peak_h_ball_fixture():
    # p = (1, 0), nu = e1, c = 1: h(0, 0) = exp(-1)
    p = np.array([1.0, 0.0], dtype=complex)
    nu = np.array([1.0, 0.0], dtype=complex)
    h = pk.build_peak_h(p, nu, 1.0)
    v = ex.eval_value(h, np.zeros(2, dtype=complex))
    assert abs(v - np.exp(-1.0)) <= 1e-15


def test_build_peak_h_modulus_law():
    rng = np.random.default_rng(6)
    p = rng.normal(size=3) + 1j * rng.normal(size=3)
    nu = rng.normal(size=3) + 1j * rng.normal(size=3)
    nu /= np.linalg.norm(nu)
    h = pk.build_peak_h(p, nu, 0.8)
    for _ in range(25):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        want = np.exp(0.8 * np.real(np.sum(np.conj(nu) * (z - p))))
        assert abs(abs(ex.eval_value(h, z)) - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# Assembly and verification


def test_assemble_ball2_basic_properties():
    dom = pk.ModelDomain.ball(2)
    p = np.array([1.0, 0.0], dtype=complex)
    cons, f = pk.assemble_peak(dom, p, 1, seed=0)
    assert abs(f(p) - 1.0) == 0.0
    assert cons.r > 0 and cons.rho_W > 0
    # far outside the tube in the complement direction: exactly zero
    far = p + 2.0 * cons.r * cons.complement[:, 0]
    assert f(far) == 0.0
    # deep in the tube core the cutoff is exactly 1, so f = h there
    core = p - 0.05 * cons.nu
    assert f(core) == complex(np.exp(cons.c * np.sum(np.conj(cons.nu) * (core - p))))


def test_assemble_deterministic():
    dom = pk.ModelDomain.ball(2)
    p = np.array([0.0, 1.0], dtype=complex)
    c1, f1 = pk.assemble_peak(dom, p, 1, seed=3)
    c2, f2 = pk.assemble_peak(dom, p, 1, seed=3)
    assert c1.r == c2.r and c1.rho_W == c2.rho_W
    assert np.array_equal(f1.complement, f2.complement)


def test_assemble_batch_matches_scalar():
    dom = pk.ModelDomain.ball(3)
    p = np.array([1.0, 0.0, 0.0], dtype=complex)
    _, f = pk.assemble_peak(dom, p, 2, seed=1)
    pts = dom.sample_interior(40, np.random.default_rng(8))
    batch = f(pts)
    singles = np.array([f(z) for z in pts])
    assert np.array_equal(batch, singles)


def test_verify_ball2_q1_passes():
    dom = pk.ModelDomain.ball(2)
    p = np.array([1.0, 0.0], dtype=complex)
    _, f = pk.assemble_peak(dom, p, 1, seed=0)
    rep = pk.verify_peak(f, dom, p, 1, boundary_samples=80,
                         interior_samples=80, residual_points=60, seed=0)
    assert rep.failed == ()


def test_verify_ellipsoid_q1_passes():
    dom = pk.ModelDomain.ellipsoid([1.0, 1.5], [0.2, -0.3])
    bnd = dom.sample_boundary(1, seed=5)
    p = bnd[0]
    _, f = pk.assemble_peak(dom, p, 1, seed=2)
    rep = pk.verify_peak(f, dom, p, 1, boundary_samples=80,
                         interior_samples=80, residual_points=60, seed=2)
    assert not rep.failed


def test_assemble_rejects_uncertified_domain():
    phi = ex.parse("abs2(z1)+abs2(z2)-1", 2)
    dom = pk.ModelDomain.from_expr(2, phi, box_halfwidth=1.05)
    p = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="certified"):
        pk.assemble_peak(dom, p, 1)


def test_assemble_rejects_q_out_of_range():
    dom = pk.ModelDomain.ball(2)
    p = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="q must be"):
        pk.assemble_peak(dom, p, 2)


def test_report_flags_reflect_tolerances():
    dom = pk.ModelDomain.ball(2)
    p = np.array([1.0, 0.0], dtype=complex)
    _, f = pk.assemble_peak(dom, p, 1, seed=0)
    rep = pk.verify_peak(f, dom, p, 1, boundary_samples=40,
                         interior_samples=40, residual_points=30,
                         seed=0, margin_min=2.0)
    assert rep.failed == ("sup_outside",)


# ---------------------------------------------------------------------------
# Closed-form peak jets and the residual check


def _fixtures():
    """Criterion 7's two fixtures: (domain, boundary point, q)."""
    ell = pk.ModelDomain.ellipsoid([1.0, 1.5, 2.0], [0.2, -0.3, 0.5])
    return [(pk.ModelDomain.ball(3), np.array([1.0, 0.0, 0.0], dtype=complex), 2),
            (ell, ell.sample_boundary(1, seed=11)[0], 1)]


def _verify_rngs(seed):
    seq = np.random.SeedSequence([seed, 0x76657269])
    return [np.random.default_rng(s) for s in seq.spawn(2)]


@pytest.mark.parametrize("fixture", [0, 1], ids=["ball3-q2", "ellipsoid3-q1"])
def test_closed_form_jets_are_the_extension_in_the_cutoff_tube(fixture):
    # the points on which the PeakExtension row of test_oracles checks these
    # jets against finite differences
    dom, p, q = _fixtures()[fixture]
    _, f = pk.assemble_peak(dom, p, q, seed=0)
    pts = pk._residual_points(f, dom, p, 200, _verify_rngs(0)[1])
    b = f.b_norms(pts)
    assert np.sum((b > 0) & (b < f.r)) >= 100     # the cutoff varies at most
    blocks = f.jet2_batch(pts)
    assert isinstance(blocks, ex.Jet2) and blocks.n == dom.n
    assert np.allclose(blocks[0], f(pts), rtol=1e-13, atol=0.0)
    rep = pk.verify_peak(f, dom, p, q, residual_points=200, seed=0)
    assert not rep.failed and rep.max_residual <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("fixture", [0, 1], ids=["ball3-q2", "ellipsoid3-q1"])
def test_verify_peak_passes_at_random_boundary_points(fixture, seed):
    # finite-difference jets of step 1e-4 reported 1.2e-4 to 3.4e-4 on ball3
    # and 1.3e-5 at ellipsoid3 seed 2 here, against the default tolerance
    dom, _, q = _fixtures()[fixture]
    p = dom.sample_boundary(1, seed=seed)[0]
    _, f = pk.assemble_peak(dom, p, q, seed=0)
    rep = pk.verify_peak(f, dom, p, q, residual_points=200, seed=0)
    assert rep.residual_tol == 1e-5
    assert not rep.failed
    assert rep.max_residual <= 1e-12


@pytest.mark.parametrize("count", [1, 2, 7, 60, 200])
@pytest.mark.parametrize("fixture", [0, 1], ids=["ball3-q2", "ellipsoid3-q1"])
def test_residual_points_match_the_point_at_a_time_reference(fixture, count):
    dom, p, q = _fixtures()[fixture]
    for seed in (0, 3):
        _, f = pk.assemble_peak(dom, p, q, seed=seed)
        mine, ref = _verify_rngs(seed)[1], _verify_rngs(seed)[1]
        got = pk._residual_points(f, dom, p, count, mine)
        want = residual_points_reference(f, dom, p, count, ref)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert mine.bit_generator.state == ref.bit_generator.state


def test_verify_peak_without_residual_points():
    dom = pk.ModelDomain.ball(2)
    p = np.array([1.0, 0.0], dtype=complex)
    _, f = pk.assemble_peak(dom, p, 1, seed=0)
    rep = pk.verify_peak(f, dom, p, 1, boundary_samples=40,
                         interior_samples=40, residual_points=0, seed=0)
    assert rep.residual_points == 0 and rep.max_residual == 0.0


def test_the_short_ring_fixture_takes_the_ring_branch(tmp_path, monkeypatch):
    # the golden fixture peak_short_ring reaches _ring_points, run as the
    # golden digests are (--seed 42)
    calls, ring_points = [], pk._ring_points

    def spy(f, p, count, rng):
        calls.append(count)
        return ring_points(f, p, count, rng)

    monkeypatch.setattr(pk, "_ring_points", spy)
    (cfg,) = [c for name, _, c in cli_fixtures() if name == "peak_short_ring"]
    cfg_path, out = tmp_path / "c.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_run(["peak", "--config", str(cfg_path), "--out", str(out),
                    "--seed", "42"]) == 0
    rep = json.loads((out / "peak_report.json").read_text())
    assert calls == [25]
    assert rep["passed"] is True
    assert rep["checks"]["vanish"] == {"max": 0.0, "points": 25, "ok": True}
