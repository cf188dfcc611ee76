import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _well_conditioned, random_expr, random_pair
from qholo import expr as ex


def test_parse_desugars_abs_square():
    e = ex.parse("z1*conj(z1)+z2*conj(z2)", 2)
    expected = ex.Add(2,
                      ex.Mul(2, ex.Var(2, 1), ex.CVar(2, 1)),
                      ex.Mul(2, ex.Var(2, 2), ex.CVar(2, 2)))
    assert e == expected
    assert ex.parse("abs2(z1)+abs2(z2)", 2) == expected


def test_parse_syntax_error_position():
    with pytest.raises(ex.ParseError) as info:
        ex.parse("z1+*", 2)
    assert info.value.pos == 3


def test_parse_index_out_of_range():
    with pytest.raises(ex.ParseError, match="out of range"):
        ex.parse("conj(z3)", 2)


@pytest.mark.parametrize("bad", ["", "z1 z2", "z1^-2", "2^2.5", "exp", "(z1"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ex.ParseError):
        ex.parse(bad, 2)


def test_parse_imaginary_unit_and_folding():
    e = ex.parse("(2+3*i)*z1", 1)
    assert isinstance(e, ex.Mul)
    assert e.left == ex.Const(1, 2 + 3j)


def test_node_validation():
    with pytest.raises(ValueError):
        ex.Var(2, 3)
    with pytest.raises(ValueError):
        ex.Var(2, 0)
    with pytest.raises(ValueError):
        ex.Pow(1, ex.Var(1, 1), -1)
    with pytest.raises(ValueError):
        ex.Const(1, complex(math.inf, 0.0))
    with pytest.raises(ValueError):
        ex.Add(2, ex.Var(2, 1), ex.Var(3, 1))


def test_conjugate_fixtures():
    assert ex.conjugate(ex.parse("z1^2", 1)) == ex.parse("conj(z1)^2", 1)
    assert ex.conjugate(ex.Const(1, 2 + 3j)) == ex.Const(1, 2 - 3j)
    e = ex.parse("z1*conj(z1)", 1)
    z = np.array([0.7 - 0.2j])
    # |z|^2 is a real-valued fixed point of conjugation (up to rounding; the
    # mirrored product pairing may differ in the last ulp under FMA)
    assert abs(ex.eval_value(ex.conjugate(e), z) - ex.eval_value(e, z)) <= 1e-15


def test_conjugate_matches_pointwise_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(120):
        e, z = random_pair(rng, n_max=3, depth_max=5)
        a = ex.eval_value(ex.conjugate(e), z)
        b = np.conj(ex.eval_value(e, z))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_jet_square():
    j = ex.eval_jet2(ex.parse("z1^2", 1), np.array([2.0 + 0j]))
    assert j.value == 4
    assert j.g_z[0] == 4
    assert j.g_zb[0] == 0
    assert j.h_zz[0, 0] == 2
    assert j.h_zzb[0, 0] == 0
    assert j.h_zbzb[0, 0] == 0


def test_jet_abs_square():
    j = ex.eval_jet2(ex.parse("z1*conj(z1)", 1), np.array([2.0 + 0j]))
    assert j.value == 4
    assert j.g_z[0] == 2
    assert j.g_zb[0] == 2
    assert j.h_zzb[0, 0] == 1


def test_jet_exp_mixed():
    j = ex.eval_jet2(ex.parse("exp(z1)*conj(z2)", 2),
                     np.array([0.0 + 0j, 1.0 + 0j]))
    assert j.value == 1
    assert np.allclose(j.g_z, [1, 0])
    assert np.allclose(j.g_zb, [0, 1])
    assert j.h_zzb[0, 1] == 1


def test_finite_diff_fixtures():
    j = ex.finite_diff_jet(ex.parse("z1^2", 1), np.array([2.0 + 0j]), h=1e-4)
    assert abs(j.g_z[0] - 4) <= 1e-6
    j = ex.finite_diff_jet(ex.parse("z1*conj(z1)", 1),
                           np.array([1.0 + 1.0j]), h=1e-4)
    assert abs(j.h_zzb[0, 0] - 1) <= 1e-5
    j = ex.finite_diff_jet(ex.Const(1, 5.0 + 0j), np.array([0.3 + 0.1j]), h=1e-4)
    assert np.all(j.g_z == 0) and np.all(j.g_zb == 0)
    assert np.all(j.h_zz == 0) and np.all(j.h_zzb == 0) and np.all(j.h_zbzb == 0)


def _jet_scale(j):
    return max(abs(j.value), np.max(np.abs(j.g_z)), np.max(np.abs(j.g_zb)),
               np.max(np.abs(j.h_zz)), np.max(np.abs(j.h_zzb)),
               np.max(np.abs(j.h_zbzb)), 1.0)


def _jet_rel_err(exact, fd):
    # normalized by the jet's overall magnitude: the shared-stencil oracle's
    # error in any one block scales with the largest block present, so an
    # exactly-zero block cannot be resolved better than that
    scale = _jet_scale(exact)
    worst = abs(exact.value - fd.value)
    for name in ("g_z", "g_zb", "h_zz", "h_zzb", "h_zbzb"):
        worst = max(worst, np.max(np.abs(np.asarray(getattr(exact, name))
                                         - np.asarray(getattr(fd, name)))))
    return worst / scale


def test_jets_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(150):
        e, z = random_pair(rng)
        exact = ex.eval_jet2(e, z)
        fd = ex.finite_diff_jet(e, z, h=1e-4)
        assert _jet_rel_err(exact, fd) <= 1e-5


def test_conjugation_swaps_jet_blocks():
    rng = np.random.default_rng(23)
    for _ in range(60):
        e, z = random_pair(rng, n_max=3, depth_max=4)
        j = ex.eval_jet2(e, z)
        jc = ex.eval_jet2(ex.conjugate(e), z)
        assert abs(jc.value - np.conj(j.value)) <= 1e-12 * max(1.0, abs(j.value))
        scale = max(1.0, float(np.max(np.abs(j.g_z))),
                    float(np.max(np.abs(j.g_zb))))
        assert np.max(np.abs(jc.g_z - np.conj(j.g_zb))) <= 1e-12 * scale
        assert np.max(np.abs(jc.g_zb - np.conj(j.g_z))) <= 1e-12 * scale


def test_real_valued_jet_is_hermitian():
    rng = np.random.default_rng(31)
    for _ in range(60):
        e, z = random_pair(rng, n_max=3, depth_max=4)
        f = e + ex.conjugate(e)
        try:
            j = ex.eval_jet2(f, z)
        except ex.EvalError:
            continue
        if not np.all(np.isfinite(j.h_zzb)):
            continue
        assert j.is_real_valued()
        h = np.asarray(j.h_zzb)
        scale = max(1.0, float(np.max(np.abs(h))))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12 * scale
        assert np.max(np.abs(np.conj(j.g_z) - j.g_zb)) <= 1e-12


def test_jet_symmetric_blocks():
    rng = np.random.default_rng(37)
    for _ in range(40):
        e, z = random_pair(rng, n_max=4, depth_max=5)
        j = ex.eval_jet2(e, z)
        for h in (j.h_zz, j.h_zbzb):
            scale = max(1.0, float(np.max(np.abs(h))))
            assert np.max(np.abs(h - h.T)) <= 1e-12 * scale


def _check_round_trip(e, n, rng):
    """Printing preserves semantics for any tree, and parse/print is a
    structural fixed point on the parser's image (hand-built constant
    subtrees may fold on the first reparse)."""
    e2 = ex.parse(ex.to_text(e), n)
    assert ex.parse(ex.to_text(e2), n) == e2
    z = rng.uniform(-1, 1, size=n) + 1j * rng.uniform(-1, 1, size=n)
    try:
        v = ex.eval_value(e, z)
    except ex.EvalError:
        return
    v2 = ex.eval_value(e2, z)
    assert abs(v - v2) <= 1e-9 * max(1.0, abs(v))


def test_printer_round_trip_samples():
    rng = np.random.default_rng(43)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        e = random_expr(rng, n, int(rng.integers(0, 6)))
        _check_round_trip(e, n, rng)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       depth=st.integers(min_value=0, max_value=6))
def test_printer_round_trip_property(seed, depth):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    e = random_expr(rng, n, depth)
    _check_round_trip(e, n, rng)


def test_eval_batch_matches_scalar():
    rng = np.random.default_rng(53)
    for _ in range(25):
        e, z = random_pair(rng, n_max=3, depth_max=5)
        pts = z[None, :] + 0.01 * (rng.standard_normal((8, len(z)))
                                   + 1j * rng.standard_normal((8, len(z))))
        batch = ex.eval_batch(e, pts)
        for k, p in enumerate(pts):
            try:
                v = ex.eval_value(e, p)
            except ex.EvalError:
                continue
            assert abs(batch[k] - v) <= 1e-12 * max(1.0, abs(v))


_BLOCKS = ("g_z", "g_zb", "h_zz", "h_zzb", "h_zbzb")


def _same_bits(a, b):
    a, b = (np.ascontiguousarray(np.asarray(x, dtype=complex)) for x in (a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_rows_are_scalar_jets(e, pts, batch):
    for k, p in enumerate(pts):
        j = ex.eval_jet2(e, p)
        assert _same_bits(batch[0][k], j.value)
        for block, name in zip(batch[1:], _BLOCKS):
            assert _same_bits(block[k], getattr(j, name)), name


def test_jet2_batch_rows_match_scalar_and_oracle():
    rng = np.random.default_rng(61)
    for _ in range(60):
        e, z = random_pair(rng)
        n = e.n
        near = 1e-3 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))
        pts = np.concatenate([z[None, :], z[None, :] + near])
        batch = ex.eval_jet2_batch(e, pts)
        assert [b.shape for b in batch] == [(7,), (7, n), (7, n), (7, n, n),
                                            (7, n, n), (7, n, n)]
        _assert_rows_are_scalar_jets(e, pts, batch)
        for k, p in enumerate(pts):
            if _well_conditioned(e, p, rng):
                row = ex.Jet2(complex(batch[0][k]), *(b[k] for b in batch[1:]))
                assert _jet_rel_err(row, ex.finite_diff_jet(e, p, h=1e-4)) <= 1e-5


def test_jet2_batch_across_chunks_equals_rows():
    n = 4
    e = ex.parse("exp(z1*conj(z2))/(2+abs2(z3))+z4^3*conj(z1)-re(z2*z4)", n)
    rows = ex._BUDGET // n ** 2
    m = 2 * rows + 17                   # two full chunks and a partial one
    rng = np.random.default_rng(67)
    pts = rng.uniform(-1, 1, size=(m, n)) + 1j * rng.uniform(-1, 1, size=(m, n))
    _assert_rows_are_scalar_jets(e, pts, ex.eval_jet2_batch(e, pts))


def test_jet2_batch_with_a_pole_raises():
    e = ex.parse("1/z1+z2", 2)
    pts = np.array([[1.0, 0.0], [0.5j, 1.0], [0.0, 2.0]], dtype=complex)
    assert ex.eval_jet2_batch(e, pts[:2])[0].shape == (2,)
    with pytest.raises(ex.EvalError):
        ex.eval_jet2_batch(e, pts)
    with pytest.raises(ex.EvalError):
        ex.eval_batch(e, pts)


def test_deep_tree_evaluates_without_recursion():
    terms = 5000
    e = ex.parse("+".join(["z1"] * terms), 2)
    z = np.array([1.0 + 2.0j, -0.5j])
    assert ex.eval_batch(e, z[None, :])[0] == terms * z[0]
    j = ex.eval_jet2(e, z)
    assert j.value == terms * z[0]
    assert np.array_equal(j.g_z, [terms, 0])
    for name in ("g_zb", "h_zz", "h_zzb", "h_zbzb"):
        assert not np.any(getattr(j, name))


def test_each_expression_compiles_once(monkeypatch):
    compiled = []
    compile_ = ex._compile
    monkeypatch.setattr(ex, "_compile", lambda e: compiled.append(e) or compile_(e))
    monkeypatch.setattr(ex, "_TAPES", {})
    e = ex.parse("z1*conj(z2)+exp(z2)", 2)
    z = np.array([0.5 + 0.25j, -1.0j])
    for _ in range(3):
        ex.eval_value(e, z)
        ex.eval_jet2(e, z)
    ex.eval_batch(e, z[None, :])
    assert compiled == [e]
    # a full cache drops its oldest tape; the expressions still evaluate
    others = [ex.parse(f"z1+{k}", 2) for k in range(ex._TAPES_MAX)]
    for k, f in enumerate(others):
        assert ex.eval_value(f, z) == z[0] + k
    assert len(ex._TAPES) == ex._TAPES_MAX
    assert ex.eval_value(e, z) == ex.eval_batch(e, z[None, :])[0]
    assert compiled.count(e) == 2


def test_division_by_near_zero_raises():
    e = ex.parse("1/z1", 1)
    with pytest.raises(ex.EvalError):
        ex.eval_value(e, np.array([0.0 + 0j]))
    with pytest.raises(ex.EvalError):
        ex.eval_jet2(e, np.array([0.0 + 0j]))


def test_overflow_raises():
    e = ex.parse("exp(exp(exp(z1)))", 1)
    with pytest.raises(ex.EvalError):
        ex.eval_jet2(e, np.array([100.0 + 0j]))


def test_dimension_mismatch_raises():
    e = ex.parse("z1+z2", 2)
    with pytest.raises(ValueError):
        ex.eval_value(e, np.array([1.0 + 0j]))


def test_nonfinite_point_rejected():
    e = ex.parse("z1", 1)
    with pytest.raises(ValueError):
        ex.eval_jet2(e, np.array([complex(math.nan, 0)]))
    with pytest.raises(ValueError):
        ex.eval_jet2_batch(e, np.array([[0.5], [complex(math.nan, 0)]]))


def test_jet_arrays_read_only():
    j = ex.eval_jet2(ex.parse("z1*conj(z1)", 1), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        j.h_zzb[0, 0] = 5.0
    batch = ex.eval_jet2_batch(ex.parse("z1*conj(z1)", 1), np.array([[1.0 + 0j]]))
    for block in batch:
        with pytest.raises(ValueError):
            block[0] = 5.0
