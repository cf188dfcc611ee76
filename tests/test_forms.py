from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Form, certified_sample, dbar_form, ddbar_form, random_pair,
                     residual_form_from_jet, wedge)
from qholo import expr as ex
from qholo import forms
from qholo.forms import (minor_oracle_residual, q_holo_residual,
                         q_holo_residuals, residual_from_jet)


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
        stacked = residual_from_jet(ex.eval_jet2_batch(e, pts), q)
        assert stacked.shape == got.shape and stacked.tobytes() == got.tobytes()


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


def _random_blocks(rng, m, n):
    """Random (g_zb, h_zzb) blocks with some exact zeros, as jets have."""
    g = rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))
    h = rng.uniform(-1, 1, (m, n, n)) + 1j * rng.uniform(-1, 1, (m, n, n))
    g[rng.random((m, n)) < 0.2] = 0.0
    h[rng.random((m, n, n)) < 0.2] = 0.0
    return g, h


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=6), dq=st.integers(0, 7))
def test_gather_coefficients_match_dict_reference(seed, n, dq):
    q = 1 + dq % (n + 2)          # every q in 1..n+2, so q > n is drawn too
    g, h = _random_blocks(np.random.default_rng(seed), 1, n)
    zero = np.zeros((n, n), dtype=complex)
    ref = residual_form_from_jet(
        ex.Jet2(0j, np.zeros(n, dtype=complex), g[0], zero, h[0], zero), q)
    if q > n:
        assert ref.is_zero()
        assert forms._residuals(g, h, q).tolist() == [0.0]
        return
    got = forms._wedge_power(g, h, q)[0]
    rows = list(combinations(range(1, n + 1), q - 1))
    cols = list(combinations(range(1, n + 1), q))
    assert got.shape == (len(rows), len(cols))
    scale = max([1.0] + [abs(c) for c in ref.coeffs.values()])
    for r, i_idx in enumerate(rows):
        for c, j_idx in enumerate(cols):
            want = ref.coeffs.get((i_idx, j_idx), 0j)
            assert abs(got[r, c] - want) <= 1e-13 * scale, (i_idx, j_idx)
    assert forms._residuals(g, h, q)[0] == np.max(np.abs(got))


def test_q1_residual_is_max_abs_g_zb_bitwise():
    g, h = _random_blocks(np.random.default_rng(61), 50, 4)
    assert np.array_equal(forms._residuals(g, h, 1), np.max(np.abs(g), axis=1))
    assert np.array_equal(forms._wedge_power(g, h, 1)[:, 0, :], g)


def _spy_chunks(monkeypatch):
    """Record the rows and the final form shape of each _wedge_power call."""
    seen = []
    inner = forms._wedge_power

    def spy(g_zb, h_zzb, q):
        form = inner(g_zb, h_zzb, q)
        seen.append((len(g_zb), form.shape[1] * form.shape[2]))
        return form

    monkeypatch.setattr(forms, "_wedge_power", spy)
    return seen


def test_batch_over_several_chunks_equals_its_rows(monkeypatch):
    n, q, m = 4, 3, 11
    g, h = _random_blocks(np.random.default_rng(67), m, n)
    monkeypatch.setattr(forms, "_BUDGET", 3 * 24)   # 3 rows of C(4,2)*C(4,3)
    seen = _spy_chunks(monkeypatch)
    batch = forms._residuals(g, h, q)
    assert [rows for rows, _ in seen] == [3, 3, 3, 2]
    single = [forms._residuals(g[k:k + 1], h[k:k + 1], q)[0] for k in range(m)]
    assert batch.tolist() == single
    assert np.all(batch > 0.0)


def test_chunks_stay_within_the_scratch_budget(monkeypatch):
    # n=10, q=5: the widest form, C(10,4) * C(10,5) = 52920 coefficients per
    # row, fits the budget once, so every chunk is a single row
    n, q, m = 10, 5, 3
    widest = 210 * 252
    assert forms._chunk_rows(n, q) * widest <= forms._BUDGET
    g, h = _random_blocks(np.random.default_rng(71), m, n)
    seen = _spy_chunks(monkeypatch)
    forms._residuals(g, h, q)
    assert seen == [(1, 252 * 210)] * m
    assert forms._chunk_rows(4, 4) * 24 <= forms._BUDGET < (
        forms._chunk_rows(4, 4) + 1) * 24


def test_residual_from_jet_matches_dict_reference_on_jets():
    rng = np.random.default_rng(73)
    for _ in range(100):
        e, z = random_pair(rng, n_max=5, depth_max=5)
        j = ex.eval_jet2(e, z)
        for q in range(1, e.n + 2):
            a = residual_from_jet(j, q)
            b = residual_form_from_jet(j, q).sup_coeff()
            assert abs(a - b) <= 1e-12 * max(1.0, a, b)
