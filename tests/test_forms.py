import numpy as np
import pytest

from helpers import certified_sample, random_pair
from qholo import expr as ex
from qholo.forms import (Form, dbar_form, ddbar_form, minor_oracle_residual,
                         q_holo_residual, q_holo_residuals, residual_from_jet,
                         wedge)


def _form(n, a, b, coeffs):
    return Form(n, a, b, coeffs)


def test_form_canonicalization():
    f = _form(2, 0, 1, {((), (1,)): 2.0, ((), (2,)): 0.0})
    assert ((), (2,)) not in f.coeffs
    assert f.coeffs[((), (1,))] == 2.0
    assert not f.is_zero()
    assert _form(2, 0, 1, {}).is_zero()


def test_form_validation():
    with pytest.raises(ValueError):
        _form(2, 0, 1, {((), (1, 1)): 1.0})     # duplicate index
    with pytest.raises(ValueError):
        _form(2, 0, 1, {((), (2, 1)): 1.0})     # unsorted
    with pytest.raises(ValueError):
        _form(2, 0, 1, {((), (3,)): 1.0})       # out of range
    with pytest.raises(ValueError):
        _form(2, 1, 0, {((), ()): 1.0})         # arity mismatch
    with pytest.raises(ValueError):
        _form(2, 3, 0, {((1, 2, 3), ()): 1.0})  # bidegree beyond n


def _dz(n, i):
    return _form(n, 1, 0, {((i,), ()): 1.0})


def _dzb(n, j):
    return _form(n, 0, 1, {((), (j,)): 1.0})


def test_wedge_repeated_letter_vanishes():
    n = 2
    inner = wedge(_dz(n, 1), _dzb(n, 1))
    assert wedge(_dzb(n, 1), inner).is_zero()


def test_wedge_sign_fixture():
    # dzb1 ^ (dz2 ^ dzb2) = -dz2 ^ dzb1 ^ dzb2: coefficient -1 on (I={2}, J={1,2})
    n = 2
    out = wedge(_dzb(n, 1), wedge(_dz(n, 2), _dzb(n, 2)))
    assert out.a == 1 and out.b == 2
    assert out.coeffs == {((2,), (1, 2)): -1.0}


def test_wedge_bilinearity_fixture():
    n = 1
    out = wedge(2.0 * _dz(n, 1), 3.0 * _dzb(n, 1))
    assert out.coeffs == {((1,), (1,)): 6.0}


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(_dz(2, 1), _dz(3, 1))


def _random_form(rng, n, a, b, density=0.6):
    from itertools import combinations
    coeffs = {}
    for I in combinations(range(1, n + 1), a):
        for J in combinations(range(1, n + 1), b):
            if rng.random() < density:
                coeffs[(I, J)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return _form(n, a, b, coeffs)


def test_wedge_graded_anticommutativity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a1, b1 = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
        a2, b2 = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
        u = _random_form(rng, n, a1, b1)
        v = _random_form(rng, n, a2, b2)
        uv = wedge(u, v)
        vu = wedge(v, u)
        sign = (-1) ** ((a1 + b1) * (a2 + b2))
        flipped = sign * vu
        assert uv.coeffs.keys() == flipped.coeffs.keys()
        for key, c in uv.coeffs.items():
            assert abs(c - flipped.coeffs[key]) <= 1e-12 * max(1.0, abs(c))


def test_wedge_associativity():
    rng = np.random.default_rng(9)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        degs = [(int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                for _ in range(3)]
        u, v, w = (_random_form(rng, n, a, b) for a, b in degs)
        left = wedge(wedge(u, v), w)
        right = wedge(u, wedge(v, w))
        assert left.coeffs.keys() == right.coeffs.keys()
        for key, c in left.coeffs.items():
            assert abs(c - right.coeffs[key]) <= 1e-12 * max(1.0, abs(c))


def test_dbar_fixtures():
    j = ex.eval_jet2(ex.parse("z1", 2), np.array([0.3 + 0.1j, -0.2 + 0j]))
    assert dbar_form(j).is_zero()
    j = ex.eval_jet2(ex.parse("conj(z1)", 2), np.array([0.3 + 0.1j, -0.2 + 0j]))
    assert dbar_form(j).coeffs == {((), (1,)): 1.0 + 0j}
    j = ex.eval_jet2(ex.parse("abs2(z1)+abs2(z2)", 2),
                     np.array([1.0 + 0j, 0.0 + 0j]))
    assert dbar_form(j).coeffs == {((), (1,)): 1.0 + 0j}


def test_ddbar_fixtures():
    z = np.array([0.4 - 0.7j, 1.1 + 0.2j])
    j = ex.eval_jet2(ex.parse("abs2(z1)+abs2(z2)", 2), z)
    assert ddbar_form(j).coeffs == {((1,), (1,)): 1.0 + 0j,
                                    ((2,), (2,)): 1.0 + 0j}
    j = ex.eval_jet2(ex.parse("conj(z1)", 2), z)
    assert ddbar_form(j).is_zero()
    j = ex.eval_jet2(ex.parse("z1*conj(z2)", 2), z)
    assert ddbar_form(j).coeffs == {((1,), (2,)): 1.0 + 0j}


def test_residual_holomorphic_is_zero_all_q():
    z = np.array([0.5 + 0.5j, -1.0 + 0.25j])
    e = ex.parse("z1", 2)
    for q in range(1, 5):
        assert q_holo_residual(e, z, q) == 0.0
        assert minor_oracle_residual(e, z, q) == 0.0


def test_residual_antiholomorphic_q2():
    z = np.array([0.5 + 0.5j, -1.0 + 0.25j])
    e = ex.parse("conj(z1)", 2)
    assert q_holo_residual(e, z, 2) == 0.0
    assert q_holo_residual(e, z, 1) == 1.0


def test_residual_abs_square_fixture():
    e = ex.parse("abs2(z1)+abs2(z2)", 2)
    z = np.array([1.0 + 0j, 0.0 + 0j])
    assert q_holo_residual(e, z, 2) == 1.0
    assert minor_oracle_residual(e, z, 2) == 1.0


def test_residual_singular_family_member():
    # f(z) = (conj(z1)+conj(z2)) / (|z1|^2+|z2|^2) is 2-holomorphic off 0
    text = "(conj(z1)+conj(z2))/(abs2(z1)+abs2(z2))"
    e = ex.parse(text, 2)
    z = np.array([1.0 + 0j, 1.0 + 0j])
    assert q_holo_residual(e, z, 2) <= 1e-9


def test_residual_above_dimension_is_zero():
    rng = np.random.default_rng(17)
    for _ in range(20):
        e, z = random_pair(rng, n_max=3, depth_max=4)
        n = e.n
        assert q_holo_residual(e, z, n + 1) == 0.0
        assert q_holo_residual(e, z, n + 3) == 0.0


def test_residual_rejects_bad_q():
    e = ex.parse("z1", 1)
    with pytest.raises(ValueError):
        q_holo_residual(e, np.array([1.0 + 0j]), 0)


def test_q1_equivalence_exact():
    rng = np.random.default_rng(29)
    for _ in range(100):
        e, z = random_pair(rng, n_max=4, depth_max=5)
        j = ex.eval_jet2(e, z)
        assert q_holo_residual(e, z, 1) == float(np.max(np.abs(j.g_zb)))


def test_batched_residuals_equal_pointwise():
    rng = np.random.default_rng(43)
    for _ in range(20):
        e, z = random_pair(rng, n_max=4, depth_max=5)
        q = int(rng.integers(1, e.n + 1))
        pts = z[None, :] + 1e-3 * rng.standard_normal((5, e.n))
        got = q_holo_residuals(e, pts, q)
        assert got.tolist() == [q_holo_residual(e, p, q) for p in pts]


def test_wedge_vs_minor_oracle():
    rng = np.random.default_rng(41)
    for _ in range(250):
        e, z = random_pair(rng, n_max=4, depth_max=5)
        q = int(rng.integers(1, e.n + 1))
        a = q_holo_residual(e, z, q)
        b = minor_oracle_residual(e, z, q)
        assert abs(a - b) <= 1e-10 * max(1.0, a, b)


def test_monotonicity_with_certified_samples():
    rng = np.random.default_rng(47)
    for _ in range(60):
        e, z, q = certified_sample(rng)
        j = ex.eval_jet2(e, z)
        cap = 10.0 * (1.0 + float(np.max(np.abs(j.h_zzb))))
        assert residual_from_jet(j, q + 1) <= 1e-10 * cap
