import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    jacobi_eigh, levi_form, random_hermitian, random_unitary,
    sample_boundary_reference, tangent_restrict,
)
from qholo import expr as ex
from qholo import levi
from qholo.peak import ModelDomain


def test_levi_form_identity():
    h = levi_form(ex.parse("abs2(z1)+abs2(z2)", 2),
                       np.array([0.3 + 0.4j, -1.0 + 0.2j]))
    assert np.array_equal(h.mat, np.eye(2))


def test_levi_form_pluriharmonic_is_zero():
    h = levi_form(ex.parse("(z1^2+conj(z1)^2)/2", 1),
                       np.array([0.7 - 0.3j]))
    assert np.array_equal(h.mat, np.zeros((1, 1)))


def test_levi_form_indefinite():
    h = levi_form(ex.parse("abs2(z1)+abs2(z2)-abs2(z3)", 3),
                       np.array([1.0 + 0j, 2.0 + 0j, -1.0 + 1j]))
    assert np.array_equal(h.mat, np.diag([1.0, 1.0, -1.0]))


def test_levi_form_rejects_non_real():
    with pytest.raises(ValueError, match="real-valued"):
        levi_form(ex.parse("z1", 1), np.array([0.5 + 0.5j]))


def test_levi_matrix_symmetrizes_and_reports():
    h = levi.LeviMatrix([[1.0, 1.0], [0.0, 2.0]])
    assert np.allclose(h.mat, [[1.0, 0.5], [0.5, 2.0]])
    assert h.herm_dev > 0.1
    exact = levi.LeviMatrix(np.diag([1.0, -1.0]))
    assert exact.herm_dev == 0.0
    with pytest.raises(ValueError):
        levi.LeviMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e308],
                         ids=["nan", "inf", "overflow"])
def test_levi_matrix_rejects_non_finite(entry):
    with pytest.raises(ValueError, match="non-finite"):
        levi.LeviMatrix([[entry, 0.0], [0.0, 1.0]])


def test_signature_fixtures():
    sig = levi.eig_signature(levi.LeviMatrix(np.diag([1.0, -2.0, 0.0])), 1e-8)
    assert sig.as_tuple() == (1, 1, 1)
    sig = levi.eig_signature(levi.LeviMatrix([[0.0, 1.0], [1.0, 0.0]]), 1e-8)
    assert sig.as_tuple() == (1, 1, 0)
    sig = levi.eig_signature(levi.LeviMatrix([[2.0, 1j], [-1j, 2.0]]), 1e-8)
    assert sig.as_tuple() == (2, 0, 0)


def test_jacobi_matches_characteristic_roots():
    # [[2, i], [-i, 2]]: (2-x)^2 - 1 = 0, eigenvalues 1 and 3
    vals, vecs = jacobi_eigh(levi.LeviMatrix([[2.0, 1j], [-1j, 2.0]]))
    assert np.allclose(sorted(vals), [1.0, 3.0], atol=1e-12)
    h = np.array([[2.0, 1j], [-1j, 2.0]])
    for k in range(2):
        assert np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-12


def test_signature_oracle_fixtures():
    assert levi.signature_oracle(levi.LeviMatrix(np.eye(2)), 1e-8).as_tuple() \
        == (2, 0, 0)
    assert levi.signature_oracle(levi.LeviMatrix(np.diag([1.0, -1.0])),
                                 1e-8).as_tuple() == (1, 1, 0)


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
        vals, vecs = jacobi_eigh(levi.LeviMatrix(h))
        scale = max(1.0, float(np.linalg.norm(h)))
        assert np.linalg.norm(h @ vecs - vecs * vals[None, :]) <= 1e-11 * scale
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(m)) <= 1e-12 * m


def test_tangent_restrict_sphere():
    out = tangent_restrict(levi.LeviMatrix(np.eye(3)),
                                np.array([1.0 + 0j, 0, 0]))
    assert np.allclose(out.mat, np.eye(2), atol=1e-14)


def test_tangent_restrict_indefinite():
    out = tangent_restrict(levi.LeviMatrix(np.diag([1.0, 1.0, -1.0])),
                                np.array([1.0 + 0j, 0, 0]))
    assert np.allclose(out.mat, np.diag([1.0, -1.0]), atol=1e-14)


def test_tangent_restrict_axis_aligned_deletes_row_column():
    rng = np.random.default_rng(23)
    h = random_hermitian(rng, 4)
    out = tangent_restrict(levi.LeviMatrix(h), np.eye(4, dtype=complex)[0])
    assert np.allclose(out.mat, levi.LeviMatrix(h).mat[1:, 1:], atol=1e-14)


def test_tangent_restrict_rejects_degenerate_gradient():
    with pytest.raises(ValueError):
        tangent_restrict(levi.LeviMatrix(np.eye(2)),
                              np.array([1e-12 + 0j, 0.0 + 0j]))


def test_tangent_restrict_hermitian_and_pivot_independent():
    rng = np.random.default_rng(29)
    for _ in range(80):
        m = int(rng.integers(2, 6))
        h = levi.LeviMatrix(random_hermitian(rng, m))
        g = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        out0 = tangent_restrict(h, g, pivot=0)
        out1 = tangent_restrict(h, g, pivot=m - 1)
        assert np.linalg.norm(out0.mat - out0.mat.conj().T) <= 1e-13
        a = levi.eig_signature(out0, 1e-8)
        b = levi.eig_signature(out1, 1e-8)
        assert a.as_tuple() == b.as_tuple()


def test_classify_function_fixtures():
    pts = [np.array([0.1 + 0.2j, -0.3 + 0j, 0.5 - 0.5j]),
           np.array([1.0 + 0j, 1.0 + 0j, 1.0 + 0j])]
    cls = levi.classify_function(ex.parse("abs2(z1)+abs2(z2)+abs2(z3)", 3), pts)
    assert cls.overall_q == 1
    assert cls.per_point_q.tolist() == [1, 1]

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
    assert c.strict_q == c.n == 2           # no positive eigenvalue: "none"
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
        h = levi_form(phi, p)
        g = np.asarray(c.gradient)
        oracle = levi.signature_oracle(tangent_restrict(h, g), 1e-8)
        assert c.restricted.as_tuple() == oracle.as_tuple()
        assert c.strict_q == 3 - oracle.n_pos
        found += 1


# ---------------------------------------------------------------------------
# Stacked engines: a stack is its rows, each taken as a batch of one


def _rows(sig):
    """The (n_pos, n_neg, n_zero) tuple of each row of a stacked Signature."""
    return list(zip(*(field.tolist() for field in sig.as_tuple())))


def test_stacked_records_hold_arrays_and_single_ones_python_scalars():
    ball2 = ex.parse("abs2(z1)+abs2(z2)-1", 2)
    one = levi.classify_boundary_point(ball2, [1, 0])
    assert one.strict_q == 1
    assert all(type(v) is int for v in (one.strict_q, one.weak_q,
                                        *one.restricted.as_tuple()))
    assert type(one.restricted.ztol) is float
    assert one.point.shape == one.gradient.shape == (2,)
    pts = np.array([[1, 0], [0, 1j], [0.6, 0.8]], dtype=complex)
    stack = levi.classify_boundary_point(ball2, pts)
    assert stack.point.shape == stack.gradient.shape == (3, 2)
    for field in (stack.strict_q, stack.weak_q, *stack.restricted):
        assert isinstance(field, np.ndarray) and field.shape == (3,)
    assert stack.strict_q.tolist() == stack.weak_q.tolist() == [1, 1, 1]
    cls = levi.classify_function(ball2, pts)
    assert cls.per_point_q.tolist() == [1, 1, 1] and type(cls.overall_q) is int
    assert _rows(cls.signatures) == [(2, 0, 0)] * 3


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6), k=st.integers(1, 5),
       explicit=st.booleans(), rotate=st.booleans())
def test_stacked_signature_engines_agree_row_by_row(seed, m, k, explicit, rotate):
    # spectra mix exact zeros, eigenvalues 0.1% inside and outside +-ztol
    # (far above the eigensolvers' roundoff) and ordinary ones
    rng = np.random.default_rng(seed)
    mats, want = [], []
    for _ in range(m):
        kind = rng.integers(0, 4, size=k)       # 0: zero, 1/2: near ztol, 3: O(1)
        lam = np.where(kind == 3, rng.standard_normal(k), 0.0)
        tol = 1e-6 if explicit else 1e-8 * float(np.linalg.norm(lam))
        sign = rng.choice([-1.0, 1.0], size=k)
        lam = np.where(kind == 1, sign * tol * (1 - 1e-3), lam)
        lam = np.where(kind == 2, sign * tol * (1 + 1e-3), lam)
        u = random_unitary(rng, k) if rotate else np.eye(k)
        mats.append(u @ np.diag(lam) @ u.conj().T)
        want.append((int(np.sum(lam > tol)), int(np.sum(lam < -tol)),
                     int(np.sum(np.abs(lam) <= tol))))
    ztol = 1e-6 if explicit else None
    stack = levi.LeviMatrix(np.array(mats))
    primary = levi.eig_signature(stack, ztol)
    oracle = levi.signature_oracle(stack, ztol)
    assert _rows(primary) == _rows(oracle) == want
    for i, mat in enumerate(mats):
        one = levi.LeviMatrix(mat)
        for engine, stacked in ((levi.eig_signature, primary),
                                (levi.signature_oracle, oracle)):
            assert engine(one, ztol) == tuple(field[i] for field in stacked)
        assert one.herm_dev == stack.herm_dev[i]
        assert levi.default_ztol(one) == levi.default_ztol(stack)[i]


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 50), n=st.integers(2, 6),
       pivot=st.integers(0, 5))
def test_stacked_tangent_frames_are_the_one_gradient_frames_bit_for_bit(seed, m, n, pivot):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    g *= 10.0 ** rng.uniform(-4, 4, size=(m, 1))
    g[0, pivot % n] = 0.0                           # the zero-phase branch
    frames = levi.tangent_frame(g, pivot=pivot % n)
    assert frames.shape == (m, n, n - 1)
    for row, frame in zip(g, frames):
        assert levi.tangent_frame(row, pivot=pivot % n).tobytes() == frame.tobytes()
        # orthonormal columns that the gradient annihilates
        assert np.max(np.abs(frame.conj().T @ frame - np.eye(n - 1))) <= 1e-13
        assert np.max(np.abs(row @ frame)) <= 1e-13 * np.linalg.norm(row)


_INDEFINITE3 = ex.parse("abs2(z1)+abs2(z2)-abs2(z3)-1", 3)


@pytest.mark.parametrize("phi, seed", [
    (ex.parse("abs2(z1)+abs2(z2)+0.3*re(z1^2)+0.2*abs2(z1)^2-1", 2), 1),
    (_INDEFINITE3, 2),
    (ModelDomain.ellipsoid([1.0, 1.5, 2.0], [0.2, -0.3, 0.5]).phi, 3),
], ids=["convex2", "indefinite3", "ellipsoid3"])
def test_stacked_classification_equals_single_calls(phi, seed):
    pts = levi.sample_boundary(phi, 30, seed=seed)
    stacked = levi.classify_boundary_point(phi, pts)
    assert stacked.point.shape == stacked.gradient.shape == pts.shape
    assert stacked.strict_q.shape == stacked.weak_q.shape == (len(pts),)
    g, frame, restricted = levi.restricted_levi_form(phi, pts)
    for i, p in enumerate(pts):
        single = levi.classify_boundary_point(phi, p)
        assert single.n == stacked.n
        assert single.point.tobytes() == stacked.point[i].tobytes()
        assert single.gradient.tobytes() == stacked.gradient[i].tobytes()
        assert single.restricted == tuple(field[i] for field in stacked.restricted)
        assert single.strict_q == stacked.strict_q[i]
        assert single.weak_q == stacked.weak_q[i]
        one = levi.restricted_levi_form(phi, p)
        for a, b in zip((g[i], frame[i], restricted.mat[i]), (one[0], one[1], one[2].mat)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    f = ex.parse("abs2(z1)^2-abs2(z2)+abs2(z3)^2-0.5*abs2(z3)+0.3*re(z1^2*conj(z3))", 3)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(40, 3)) + 1j * rng.uniform(-1, 1, size=(40, 3))
    whole = levi.classify_function(f, pts)
    assert len(set(whole.per_point_q.tolist())) > 1
    for i, p in enumerate(pts):
        one = levi.classify_function(f, [p])
        assert np.array_equal(one.points, whole.points[i:i + 1])
        for a, b in zip(one.signatures, whole.signatures):
            assert np.array_equal(a, b[i:i + 1])
        assert np.array_equal(one.per_point_q, whole.per_point_q[i:i + 1])


# Zero set: the unit sphere and the origin, where the gradient vanishes.  The
# second term is imaginary off Im z1 = 0 and vanishes to second order at 0.
_MIXED = ex.parse("(abs2(z1)+abs2(z2))*(abs2(z1)+abs2(z2)-1)"
                  "+(z1-conj(z1))*abs2(z2)", 2)
_GOOD = [[1, 0], [0.6, 0.8], [0, 1]]
_OFF, _DEGENERATE, _NON_REAL = [0.5, 0], [0, 0], [0.6j, 0.8]


@pytest.mark.parametrize("rows, first, match", [
    (_GOOD[:2] + [_OFF, _NON_REAL, _DEGENERATE], 2, "not on the boundary"),
    (_GOOD[:1] + [_DEGENERATE, _NON_REAL, _OFF], 1, "degenerate gradient"),
    (_GOOD + [_NON_REAL, _DEGENERATE, _OFF], 3, "not real-valued"),
], ids=["off-boundary", "degenerate", "non-real"])
def test_stacked_classification_reports_the_first_failing_row(rows, first, match):
    pts = np.array(rows, dtype=complex)
    with pytest.raises(ValueError, match=match) as single:
        levi.classify_boundary_point(_MIXED, pts[first])
    for call in (levi.classify_boundary_point, levi.restricted_levi_form):
        with pytest.raises(ValueError) as got:
            call(_MIXED, pts)
        assert str(got.value) == str(single.value)
        assert got.value.row == first
    assert len(levi.classify_boundary_point(_MIXED, pts[:first]).strict_q) == first


def test_stacked_classification_orders_evaluation_errors_by_row():
    phi = ex.parse("abs2(z1)+abs2(z2)-1+0*(1/(z1-1))", 2)
    good, off, pole = [0, 1], [0.5, 0], [1, 0]     # 1/(z1-1) raises at the pole
    with pytest.raises(ex.EvalError) as single:
        levi.classify_boundary_point(phi, np.array(pole, dtype=complex))
    for rows, first, kind in (([good, pole, off], 1, ex.EvalError),
                              ([good, good, off, pole], 2, ValueError)):
        with pytest.raises(kind) as got:
            levi.classify_boundary_point(phi, np.array(rows, dtype=complex))
        assert got.value.row == first
        if kind is ex.EvalError:
            assert str(got.value) == str(single.value)


def test_stacked_evaluation_errors_are_found_across_jet_chunks():
    # the first pole lies past the first chunk of mixed jets (256 rows at
    # n = 4); the error is the one the full jets of that row raise
    n = 4
    phi = ex.parse("abs2(z1)+abs2(z2)+abs2(z3)+abs2(z4)-1+0*(1/(z1-1))", n)
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((700, n)) + 1j * rng.standard_normal((700, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[[600, 650]] = [1, 0, 0, 0]
    with pytest.raises(ex.EvalError) as single:
        ex.eval_jet2_batch(phi, pts[600:601])
    for call in (levi.restricted_levi_form, levi.classify_boundary_point):
        with pytest.raises(ex.EvalError) as got:
            call(phi, pts)
        assert str(got.value) == str(single.value) and got.value.row == 600
    assert len(levi.classify_boundary_point(phi, pts[:600]).strict_q) == 600


def test_failed_rows_raise_their_error_without_a_warning():
    # row 1's jet is inf - inf = NaN in the first stack; in the second its
    # jet is finite but the squares in its norms overflow
    cases = [("abs2(z1)+abs2(z2)-1+exp(1000*abs2(z2))-exp(1000*abs2(z2))", [0, 1],
              "non-finite jet"),
             ("abs2(z1)+abs2(z2)-1+exp(800*z2*conj(z1))-1", [0.6, 0.8],
              "overflows double precision")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, row, match in cases:
            phi = ex.parse(text, 2)
            for call in (levi.restricted_levi_form, levi.classify_boundary_point):
                with pytest.raises(ValueError, match=match) as single:
                    call(phi, np.array(row, dtype=complex))
                with pytest.raises(ValueError) as got:
                    call(phi, np.array([[1, 0], row], dtype=complex))
                assert str(got.value) == str(single.value) and got.value.row == 1


def test_classify_function_reports_the_first_non_real_row():
    # in the second stack row 1 is a pole, which the jet evaluation meets
    # before any other check; row 0 alone is not real-valued
    for text, pts, row in [
            ("abs2(z1)+(z1-conj(z1))*abs2(z2)", [[0.3, 0.1], [0.2j, 0.5], [0.1j, 2.0]], 1),
            ("abs2(z1)+i*re(z2)+1/z1", [[1, 0.5], [0, 0]], 0)]:
        f = ex.parse(text, 2)
        pts = np.array(pts, dtype=complex)
        with pytest.raises(ValueError, match="not real-valued") as single:
            levi.classify_function(f, pts[row:row + 1])
        with pytest.raises(ValueError) as got:
            levi.classify_function(f, pts)
        assert type(got.value) is ValueError
        assert str(got.value) == str(single.value) and got.value.row == row


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


# The unit sphere, with a term that is 0 where it evaluates and whose
# gradient overflows, raising EvalError, for draws with |z1 - 2| above
# about 4.2.
_SPHERE2_RAISING = ex.parse("abs2(z1)+abs2(z2)-1+0*(1/exp(-20*abs2(z1-2)))", 2)


def test_sample_boundary_raises_only_for_draws_it_needs():
    # seed 9: the reference stops before its first raising draw, but a later
    # block, sized by the acceptance rate, holds one past the draws it needs
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


def test_sample_boundary_raises_only_for_failed_draws_before_the_last_needed(monkeypatch):
    # seed 2, count 5: the second block's failed draws all come after its
    # fifth convergence, so the sampler does not raise; count 10 needs more
    # of that block and reaches a failed draw; seed 6 ends on a block with
    # a failed draw and no convergence.  The error's row is the draw index.
    project, blocks = levi._project, []

    def spy(*args):
        converged, failed, error = project(*args)
        blocks.append((np.flatnonzero(converged), np.flatnonzero(failed)))
        return converged, failed, error

    monkeypatch.setattr(levi, "_project", spy)
    kwargs = {"count": 5, "seed": 2, "max_iter": 5}
    got = levi.sample_boundary(_SPHERE2_RAISING, **kwargs)
    want = sample_boundary_reference(_SPHERE2_RAISING, **kwargs)
    assert float(np.max(np.abs(got - want))) <= 1e-12
    converged, failed = blocks[-1]
    assert failed.size and failed.min() > converged[4]
    for count, seed, row in ((10, 2, 37), (10, 6, 78)):
        kwargs = {"count": count, "seed": seed, "max_iter": 5}
        with pytest.raises(ex.EvalError) as want:
            sample_boundary_reference(_SPHERE2_RAISING, **kwargs)
        with pytest.raises(ex.EvalError) as got:
            levi.sample_boundary(_SPHERE2_RAISING, **kwargs)
        assert got.value.row == want.value.row == row
        assert str(got.value) == str(want.value)


_TRIPLE_EXP = ex.parse("exp(exp(exp(z1)))+abs2(z2)-1", 2)


def test_sample_boundary_fails_a_draw_whose_newton_step_overflows(monkeypatch):
    # a gradient beyond about 1e154 once overflowed the step to NaN, and the
    # next jet evaluation aborted the whole block.  Now the step fails its
    # draw, under the failed-draw rule: seed 7's last block has one failed
    # draw, after its second convergence; seed 0 with count 10 needs draws
    # past its failed draw 444.
    project, blocks = levi._project, []

    def spy(*args):
        converged, failed, error = project(*args)
        blocks.append((np.flatnonzero(converged), np.flatnonzero(failed), error))
        return converged, failed, error

    monkeypatch.setattr(levi, "_project", spy)
    kwargs = {"count": 2, "seed": 7, "max_iter": 5}
    got = levi.sample_boundary(_TRIPLE_EXP, **kwargs)
    want = sample_boundary_reference(_TRIPLE_EXP, **kwargs)
    assert float(np.max(np.abs(got - want))) <= 1e-12
    converged, failed, error = blocks[-1]
    assert failed.size and failed.min() > converged[1]
    assert str(error(0)) == "Newton step overflows"
    kwargs = {"count": 10, "seed": 0, "max_iter": 5}
    with pytest.raises(ex.EvalError) as want:
        sample_boundary_reference(_TRIPLE_EXP, **kwargs)
    with pytest.raises(ex.EvalError) as got:
        levi.sample_boundary(_TRIPLE_EXP, **kwargs)
    assert got.value.row == want.value.row == 444
    assert str(got.value) == str(want.value) == "boundary draw 444: Newton step overflows"


def test_default_ztol_scales():
    h = levi.LeviMatrix(np.eye(3))
    assert levi.default_ztol(h) == pytest.approx(1e-8 * np.sqrt(3))
    tiny = levi.LeviMatrix(np.zeros((2, 2)))
    assert levi.default_ztol(tiny) > 0
