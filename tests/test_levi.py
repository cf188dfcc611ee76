import numpy as np
import pytest

from helpers import random_hermitian, random_unitary, sample_boundary_reference
from qholo import expr as ex
from qholo import levi
from qholo.peak import ModelDomain


def test_levi_form_identity():
    h = levi.levi_form(ex.parse("abs2(z1)+abs2(z2)", 2),
                       np.array([0.3 + 0.4j, -1.0 + 0.2j]))
    assert np.array_equal(h.mat, np.eye(2))


def test_levi_form_pluriharmonic_is_zero():
    h = levi.levi_form(ex.parse("(z1^2+conj(z1)^2)/2", 1),
                       np.array([0.7 - 0.3j]))
    assert np.array_equal(h.mat, np.zeros((1, 1)))


def test_levi_form_indefinite():
    h = levi.levi_form(ex.parse("abs2(z1)+abs2(z2)-abs2(z3)", 3),
                       np.array([1.0 + 0j, 2.0 + 0j, -1.0 + 1j]))
    assert np.array_equal(h.mat, np.diag([1.0, 1.0, -1.0]))


def test_levi_form_rejects_non_real():
    with pytest.raises(ValueError, match="real-valued"):
        levi.levi_form(ex.parse("z1", 1), np.array([0.5 + 0.5j]))


def test_levi_matrix_symmetrizes_and_reports():
    h = levi.LeviMatrix([[1.0, 1.0], [0.0, 2.0]])
    assert np.allclose(h.mat, [[1.0, 0.5], [0.5, 2.0]])
    assert h.herm_dev > 0.1
    exact = levi.LeviMatrix(np.diag([1.0, -1.0]))
    assert exact.herm_dev == 0.0
    with pytest.raises(ValueError):
        levi.LeviMatrix(np.zeros((2, 3)))


def test_signature_fixtures():
    sig = levi.eig_signature(levi.LeviMatrix(np.diag([1.0, -2.0, 0.0])), 1e-8)
    assert sig.as_tuple() == (1, 1, 1)
    sig = levi.eig_signature(levi.LeviMatrix([[0.0, 1.0], [1.0, 0.0]]), 1e-8)
    assert sig.as_tuple() == (1, 1, 0)
    sig = levi.eig_signature(levi.LeviMatrix([[2.0, 1j], [-1j, 2.0]]), 1e-8)
    assert sig.as_tuple() == (2, 0, 0)


def test_jacobi_matches_characteristic_roots():
    # [[2, i], [-i, 2]]: (2-x)^2 - 1 = 0, eigenvalues 1 and 3
    vals, vecs = levi.jacobi_eigh(levi.LeviMatrix([[2.0, 1j], [-1j, 2.0]]))
    assert np.allclose(sorted(vals), [1.0, 3.0], atol=1e-12)
    h = np.array([[2.0, 1j], [-1j, 2.0]])
    for k in range(2):
        assert np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-12


def test_signature_oracle_fixtures():
    assert levi.signature_oracle(levi.LeviMatrix(np.eye(2)), 1e-8).as_tuple() \
        == (2, 0, 0)
    assert levi.signature_oracle(levi.LeviMatrix(np.diag([1.0, -1.0])),
                                 1e-8).as_tuple() == (1, 1, 0)


def test_signature_engines_agree():
    rng = np.random.default_rng(3)
    for _ in range(250):
        m = int(rng.integers(1, 9))
        h = levi.LeviMatrix(random_hermitian(rng, m))
        a = levi.eig_signature(h, 1e-8)
        b = levi.signature_oracle(h, 1e-8)
        assert a.as_tuple() == b.as_tuple()


def test_signature_unitary_invariance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        h = random_hermitian(rng, m)
        u = random_unitary(rng, m)
        sig = levi.eig_signature(levi.LeviMatrix(h), 1e-8)
        rot = levi.eig_signature(levi.LeviMatrix(u @ h @ u.conj().T), 1e-8)
        assert sig.as_tuple() == rot.as_tuple()


def test_jacobi_diagonalizes():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        h = random_hermitian(rng, m)
        vals, vecs = levi.jacobi_eigh(levi.LeviMatrix(h))
        scale = max(1.0, float(np.linalg.norm(h)))
        assert np.linalg.norm(h @ vecs - vecs * vals[None, :]) <= 1e-11 * scale
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(m)) <= 1e-12 * m


def test_tangent_restrict_sphere():
    out = levi.tangent_restrict(levi.LeviMatrix(np.eye(3)),
                                np.array([1.0 + 0j, 0, 0]))
    assert np.allclose(out.mat, np.eye(2), atol=1e-14)


def test_tangent_restrict_indefinite():
    out = levi.tangent_restrict(levi.LeviMatrix(np.diag([1.0, 1.0, -1.0])),
                                np.array([1.0 + 0j, 0, 0]))
    assert np.allclose(out.mat, np.diag([1.0, -1.0]), atol=1e-14)


def test_tangent_restrict_axis_aligned_deletes_row_column():
    rng = np.random.default_rng(23)
    h = random_hermitian(rng, 4)
    out = levi.tangent_restrict(levi.LeviMatrix(h), np.eye(4, dtype=complex)[0])
    assert np.allclose(out.mat, levi.LeviMatrix(h).mat[1:, 1:], atol=1e-14)


def test_tangent_restrict_rejects_degenerate_gradient():
    with pytest.raises(ValueError):
        levi.tangent_restrict(levi.LeviMatrix(np.eye(2)),
                              np.array([1e-12 + 0j, 0.0 + 0j]))


def test_tangent_restrict_hermitian_and_pivot_independent():
    rng = np.random.default_rng(29)
    for _ in range(80):
        m = int(rng.integers(2, 6))
        h = levi.LeviMatrix(random_hermitian(rng, m))
        g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        out0 = levi.tangent_restrict(h, g, pivot=0)
        out1 = levi.tangent_restrict(h, g, pivot=m - 1)
        assert np.linalg.norm(out0.mat - out0.mat.conj().T) <= 1e-13
        a = levi.eig_signature(out0, 1e-8)
        b = levi.eig_signature(out1, 1e-8)
        assert a.as_tuple() == b.as_tuple()


def test_classify_function_fixtures():
    pts = [np.array([0.1 + 0.2j, -0.3 + 0j, 0.5 - 0.5j]),
           np.array([1.0 + 0j, 1.0 + 0j, 1.0 + 0j])]
    cls = levi.classify_function(ex.parse("abs2(z1)+abs2(z2)+abs2(z3)", 3), pts)
    assert cls.overall_q == 1
    assert cls.per_point_q == (1, 1)

    cls = levi.classify_function(ex.parse("abs2(z1)+abs2(z2)-abs2(z3)", 3), pts)
    assert cls.overall_q == 2

    pts2 = [np.array([0.2 + 0j, 0.4 + 0j])]
    cls = levi.classify_function(ex.parse("-(abs2(z1)+abs2(z2))", 2), pts2)
    assert cls.overall_q == 3
    assert cls.overall_text == "not q-convex for any q <= 2"


def test_classify_boundary_sphere():
    phi = ex.parse("abs2(z1)+abs2(z2)+abs2(z3)-1", 3)
    c = levi.classify_boundary_point(phi, np.array([1.0 + 0j, 0, 0]))
    assert c.restricted.as_tuple() == (2, 0, 0)
    assert c.strict_q == 1
    assert c.weak_q == 1


def test_classify_boundary_indefinite():
    phi = ex.parse("abs2(z1)+abs2(z2)-abs2(z3)-1", 3)
    c = levi.classify_boundary_point(phi, np.array([1.0 + 0j, 0, 0]))
    assert c.restricted.as_tuple() == (1, 1, 0)
    assert c.strict_q == 2


def test_classify_boundary_cylinder():
    phi = ex.parse("abs2(z1)-1", 2)
    c = levi.classify_boundary_point(phi, np.array([1.0 + 0j, 0.0 + 0j]))
    assert c.restricted.as_tuple() == (0, 0, 1)
    assert c.strict_q is None
    assert c.weak_q == 1


def test_classify_boundary_rejects_off_boundary():
    phi = ex.parse("abs2(z1)-1", 1)
    with pytest.raises(ValueError, match="boundary"):
        levi.classify_boundary_point(phi, np.array([0.5 + 0j]))


def test_classify_boundary_rejects_degenerate_gradient():
    # Squaring the defining function kills the gradient on the zero set.
    phi = ex.parse("(abs2(z1)+abs2(z2)-1)^2", 2)
    with pytest.raises(ValueError, match="gradient"):
        levi.classify_boundary_point(phi, np.array([1.0 + 0j, 0.0 + 0j]))


def test_block_signature_fixture_matches_oracle():
    # Sum_{i<=k} |z_i|^2 - Sum_{i>k} |z_i|^2 - 1 with k = 2, n = 3: at points
    # with the gradient dominated by a positive-block coordinate, the
    # restricted signature from classification must match the real-embedding
    # oracle applied to the same restriction.
    phi = ex.parse("abs2(z1)+abs2(z2)-abs2(z3)-1", 3)
    rng = np.random.default_rng(31)
    found = 0
    while found < 12:
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w /= np.linalg.norm(w)
        z3 = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        p = np.array([*(w * np.sqrt(1 + abs(z3) ** 2)), z3])
        c = levi.classify_boundary_point(phi, p, eps_bdry=1e-8)
        h = levi.levi_form(phi, p)
        g = np.asarray(c.gradient)
        oracle = levi.signature_oracle(levi.tangent_restrict(h, g), 1e-8)
        assert c.restricted.as_tuple() == oracle.as_tuple()
        assert c.strict_q == 3 - oracle.n_pos
        found += 1


def test_sample_boundary_deterministic_and_on_surface():
    phi = ex.parse("abs2(z1)+abs2(z2)-1", 2)
    a = levi.sample_boundary(phi, 40, seed=5)
    b = levi.sample_boundary(phi, 40, seed=5)
    assert np.array_equal(a, b)
    vals = np.abs(ex.eval_batch(phi, a))
    assert float(np.max(vals)) <= 1e-10
    c = levi.sample_boundary(phi, 40, seed=6)
    assert not np.array_equal(a, c)


def _sphere(n):
    return ex.parse("+".join(f"abs2(z{k + 1})" for k in range(n)) + "-1", n)


_ELLIPSOID3 = ModelDomain.ellipsoid([1.0, 1.5, 2.0], [0.2, -0.3, 0.5])


@pytest.mark.parametrize("phi, kwargs", [
    (_sphere(2), {"count": 40, "seed": 5}),
    (_sphere(3), {"count": 40, "seed": 8}),
    (_sphere(4), {"count": 40, "seed": 9}),
    # few Newton steps: most draws fail, so several blocks are drawn
    (_sphere(2), {"count": 30, "seed": 4, "max_iter": 4}),
    # the boundary point of the acceptance peak fixture
    (_ELLIPSOID3.phi, {"count": 1, "seed": 11, "box": _ELLIPSOID3.box_halfwidth,
                       "center": _ELLIPSOID3.box_center}),
], ids=["sphere2", "sphere3", "sphere4", "sphere2-blocks", "ellipsoid3-seed11"])
def test_sample_boundary_matches_scalar_reference(phi, kwargs):
    got = levi.sample_boundary(phi, **kwargs)
    want = sample_boundary_reference(phi, **kwargs)
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= 1e-12


def test_sample_boundary_stalls_like_scalar_reference():
    kwargs = {"count": 5, "seed": 4, "max_iter": 3}
    with pytest.raises(RuntimeError) as got:
        levi.sample_boundary(_sphere(2), **kwargs)
    with pytest.raises(RuntimeError) as want:
        sample_boundary_reference(_sphere(2), **kwargs)
    assert str(got.value) == str(want.value)


# The unit sphere, with a term that is 0 where it evaluates and raises
# EvalError for draws with |z1 - 2| above about 4 (2% of the box).
_SPHERE2_RAISING = ex.parse("abs2(z1)+abs2(z2)-1+0*(1/exp(-14*abs2(z1-2)))", 2)


def test_sample_boundary_raises_only_for_draws_it_needs():
    # seed 9: the reference stops before its first raising draw, but a later
    # block, sized by the acceptance rate, holds one and is redone draw by
    # draw
    kwargs = {"count": 5, "seed": 9, "max_iter": 5}
    got = levi.sample_boundary(_SPHERE2_RAISING, **kwargs)
    want = sample_boundary_reference(_SPHERE2_RAISING, **kwargs)
    assert got.shape == want.shape == (5, 2)
    assert float(np.max(np.abs(got - want))) <= 1e-12
    # seed 0: the reference reaches a raising draw, and so does the sampler
    kwargs["seed"] = 0
    with pytest.raises(ex.EvalError):
        sample_boundary_reference(_SPHERE2_RAISING, **kwargs)
    with pytest.raises(ex.EvalError):
        levi.sample_boundary(_SPHERE2_RAISING, **kwargs)


def test_sample_boundary_redoes_a_raising_block_from_its_draws(monkeypatch):
    # the first block raises at its second Newton step; redone from the
    # draws' starting points, no draw gets more than max_iter steps
    batch = levi.eval_jet2_batch
    calls = []

    def raises_once(phi, pts):
        calls.append(len(pts))
        if len(calls) == 2:
            assert len(pts) > 1
            raise ex.EvalError("injected")
        return batch(phi, pts)

    monkeypatch.setattr(levi, "eval_jet2_batch", raises_once)
    kwargs = {"count": 30, "seed": 4, "max_iter": 4}
    got = levi.sample_boundary(_sphere(2), **kwargs)
    want = sample_boundary_reference(_sphere(2), **kwargs)
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) <= 1e-12


def test_default_ztol_scales():
    h = levi.LeviMatrix(np.eye(3))
    assert levi.default_ztol(h) == pytest.approx(1e-8 * np.sqrt(3))
    tiny = levi.LeviMatrix(np.zeros((2, 2)))
    assert levi.default_ztol(tiny) > 0
