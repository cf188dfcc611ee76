import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_expr, random_pair
from qholo import expr as ex, forms


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


@pytest.mark.parametrize("text", [
    "(" * 3000 + "z1" + ")" * 3000,
    "exp(" * 400 + "z1" + ")" * 400,
    "-" * 3000 + "z1",
], ids=["parentheses", "calls", "unary-minus"])
def test_parse_rejects_overdeep_nesting(text):
    with pytest.raises(ex.ParseError, match="nesting deeper"):
        ex.parse(text, 1)


def test_parse_accepts_nesting_up_to_the_cap():
    k = ex.MAX_NESTING
    e = ex.parse("(" * (k - 1) + "z1" + ")" * (k - 1), 1)
    assert e == ex.Var(1, 1)
    with pytest.raises(ex.ParseError):
        ex.parse("(" * k + "z1" + ")" * k, 1)


def test_parse_caps_the_expanded_node_count(monkeypatch):
    e = ex.parse("re(" * 8 + "z1" + ")" * 8, 1)
    assert ex._tree_size(e, ex.MAX_NODES) < ex.MAX_NODES
    assert abs(ex.eval_value(e, [0.3 + 0.4j]) - 0.3) <= 1e-15
    # the work of a parse is counted as node visits: every tree walk looks a
    # node's children up in _CHILDREN.  The cap fires before the tree is
    # walked past MAX_NODES, however deep the nesting.
    visits = [0]

    class Counting(dict):
        def __getitem__(self, key):
            visits[0] += 1
            return dict.__getitem__(self, key)

    monkeypatch.setattr(ex, "_CHILDREN", Counting(ex._CHILDREN))
    for f in ("re(", "im(", "abs2("):
        visits[0] = 0
        with pytest.raises(ex.ParseError, match="expands past"):
            ex.parse(f * 30 + "z1" + ")" * 30, 1)
        assert visits[0] <= 2 * ex.MAX_NODES, f


def test_deep_trees_print_and_conjugate_without_recursion():
    text = "+".join(["z1"] * 5000)
    assert ex.to_text(ex.parse(text, 1)) == text
    e = ex.parse("conj(" + "+".join(["z1"] * 3000) + ")", 1)
    assert ex.to_text(e) == "+".join(["conj(z1)"] * 3000)
    assert ex.eval_value(e, [1.0 + 2.0j]) == 3000 - 6000j
    assert ex.to_text(ex.conjugate(e)) == "+".join(["z1"] * 3000)


def test_nested_conj_cancels_while_parsing(monkeypatch):
    # each conj( used to copy its whole argument: k copies at depth k.  The
    # work is counted as nodes built, which every Expr constructor reports
    # through Expr.__init__.
    built = [0]
    init = ex.Expr.__init__

    def counting(node, n):
        built[0] += 1
        init(node, n)

    monkeypatch.setattr(ex.Expr, "__init__", counting)
    s = "+".join(["z1", "2*conj(z2)"] * 2000)
    z = [0.3 - 1.1j, 2.0 + 0.5j]
    built[0] = 0
    ex.parse(s, 2)
    once = built[0]
    for k, plain in ((60, s), (59, f"conj({s})")):
        built[0] = 0
        e = ex.parse("conj(" * k + s + ")" * k, 2)
        # s and at most one conjugate of it, however deep the nesting
        assert built[0] <= 2 * once, k
        want = ex.parse(plain, 2)
        assert e == want
        assert ex.eval_value(e, z) == ex.eval_value(want, z)
    # a conjugate of a conjugate through a shared memo is its source
    memo = {}
    e = ex.parse("exp(z1)*conj(z2)+3", 2)
    assert ex.conjugate(ex.conjugate(e, memo), memo) is e


def test_deep_tree_equality_and_hash_without_recursion():
    text = "+".join(["z1"] * 4000)
    a, b = ex.parse(text, 1), ex.parse(text, 1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != ex.parse(text + "+z1", 1)
    assert a != ex.parse(text[:-2] + "conj(z1)", 1)
    assert ex.parse("z1^2", 1) != ex.parse("z1^3", 1)
    assert ex.Var(2, 1) != ex.CVar(2, 1) and ex.Var(2, 1) != ex.Var(2, 2)
    assert ex.Const(1, 2.0) != 2.0


def test_parse_imaginary_unit_and_folding():
    e = ex.parse("(2+3*i)*z1", 1)
    assert isinstance(e, ex.Mul)
    assert e.left == ex.Const(1, 2 + 3j)


def test_constant_folding_rounds_as_the_tape_does():
    # a*b - b*a with b = conj(a): numpy's complex product leaves ~1e-16 where
    # Python's is exactly 0, so a fold in Python arithmetic reprinted this
    # divisor as 0 and the reparsed tree raised EvalError where the tree
    # itself evaluates
    a, b = ex.Const(2, 1.417 - 1.742j), ex.Const(2, 1.417 + 1.742j)
    den = ex.Div(2, ex.Sub(2, ex.Mul(2, a, b), ex.Mul(2, b, a)),
                 ex.Mul(2, ex.Const(2, 2.0), ex.Const(2, 1j)))
    e = ex.Div(2, ex.CVar(2, 2), ex.Div(2, ex.Mul(
        2, ex.Exp(2, ex.Mul(2, ex.Const(2, 0.3), ex.CVar(2, 2))),
        ex.Const(2, -0.096)), den))
    z = np.array([0.25 - 0.5j, -0.75 + 0.125j])
    folded = ex.parse(ex.to_text(den), 2)
    assert type(folded) is ex.Const
    assert folded.value == ex.eval_value(den, z) != 0
    e2 = ex.parse(ex.to_text(e), 2)
    assert ex.parse(ex.to_text(e2), 2) == e2
    assert ex.eval_value(e2, z) == ex.eval_value(e, z)


def test_a_folded_quotient_is_the_tapes_value():
    # (1+2i)/(3-i) rounds to 0.1+0.7000000000000001i, (1+2i)*(1/(3-i)) to
    # 0.1+0.7i: the fold is the quotient a point evaluation computes
    div = ex.Div(1, ex.Const(1, 1 + 2j), ex.Const(1, 3 - 1j))
    folded = ex.parse("(1+2*i)/(3-i)", 1)
    assert type(folded) is ex.Const
    assert _same_bits(folded.value, ex.eval_value(div, [0.0]))


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


def test_finite_diff_jet_calls_a_callable_once_on_every_stencil_point():
    shapes = []

    def square(pts):
        shapes.append(pts.shape)
        return pts[:, 0] ** 2

    j = ex.finite_diff_jet(square, np.array([2.0 + 0j]), h=1e-4)
    assert shapes == [(9, 1)]       # the center, 2 * 2 axis steps, 4 diagonal steps
    assert abs(j.g_z[0] - 4) <= 1e-6
    with pytest.raises(ValueError, match="batch"):
        ex.finite_diff_jet(lambda pts: 4.0, np.array([2.0 + 0j]))


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


@settings(max_examples=150)
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
    assert isinstance(batch, ex.Jet2) and batch.n == e.n
    for k, p in enumerate(pts):
        j = ex.eval_jet2(e, p)
        assert _same_bits(batch[0][k], j.value)
        for block, name in zip(batch[1:], _BLOCKS):
            assert _same_bits(block[k], getattr(j, name)), name


def test_jet2_batch_rows_match_the_scalar_jets():
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


def test_jet2_batch_across_chunks_equals_rows():
    n = 4
    e = ex.parse("exp(z1*conj(z2))/(2+abs2(z3))+z4^3*conj(z1)-re(z2*z4)", n)
    rows = ex._BUDGET // n ** 2
    m = 2 * rows + 17                   # two full chunks and a partial one
    rng = np.random.default_rng(67)
    pts = rng.uniform(-1, 1, size=(m, n)) + 1j * rng.uniform(-1, 1, size=(m, n))
    _assert_rows_are_scalar_jets(e, pts, ex.eval_jet2_batch(e, pts))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 600))
def test_jet1_batch_is_the_first_blocks_of_jet2_bit_for_bit(seed, m):
    # the Newton step of levi.sample_boundary reads only these blocks, so
    # its points stay those of the 2-jet engine; m crosses chunk boundaries
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    e = random_expr(rng, n, int(rng.integers(1, 6)))
    pts = rng.uniform(-1.5, 1.5, size=(m, n)) + 1j * rng.uniform(-1.5, 1.5, size=(m, n))
    try:
        want = ex.eval_jet2_batch(e, pts)[:3]
    except ex.EvalError:
        return      # the second derivatives alone may overflow
    got = ex.eval_jet1_batch(e, pts)
    assert len(got) == 3
    for a, b in zip(got, want):
        assert _same_bits(a, b)
        assert not a.flags.writeable


@settings(max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 60), text=st.none())
@example(seed=0, m=60, text="z1/z2")
def test_every_order_gives_the_values_bit_for_bit(seed, m, text):
    # one rule per operation: a jet's value is eval_batch's value, also at a
    # division; small chunks put chunk edges inside the batch
    rng = np.random.default_rng(seed)
    n = 2 if text else int(rng.integers(1, 5))
    e = (ex.parse(text, n) if text
         else random_expr(rng, n, int(rng.integers(1, 6)), allow_div=True))
    pts = rng.uniform(-1.5, 1.5, size=(m, n)) + 1j * rng.uniform(-1.5, 1.5, size=(m, n))
    with pytest.MonkeyPatch.context() as mp:
        for name, rows in (("_VALUE_ROWS", 7), ("_BUDGET", 16), ("_HESSIAN_ENTRIES", 64)):
            mp.setattr(ex, name, rows)
        failing = [bad for _, bad, _ in (
            ex._values(e, pts), ex._jet_blocks(e, pts, order=1),
            ex._jet_blocks(e, pts), ex._jet_blocks(e, pts, mixed=True))]
        ok = pts[~np.logical_or.reduce([np.zeros(m, bool) if b is None else b
                                        for b in failing])]
        want = ex.eval_batch(e, ok)
        assert _same_bits(ex.eval_jet1_batch(e, ok)[0], want)
        assert _same_bits(ex.eval_jet2_batch(e, ok).value, want)
        assert _same_bits(ex.eval_mixed_jet_batch(e, ok)[0], want)


def test_jet2_batch_with_a_pole_raises():
    e = ex.parse("1/z1+z2", 2)
    pts = np.array([[1.0, 0.0], [0.5j, 1.0], [0.0, 2.0]], dtype=complex)
    assert ex.eval_jet2_batch(e, pts[:2])[0].shape == (2,)
    with pytest.raises(ex.EvalError):
        ex.eval_jet2_batch(e, pts)
    with pytest.raises(ex.EvalError):
        ex.eval_batch(e, pts)


def test_batch_error_is_the_first_failing_rows():
    # row 0 fails at 1/z2 only, row 1 at 1/z1 only: the error is row 0's,
    # though 1/z1 comes first in tape order
    e = ex.parse("1/z1+1/z2", 2)
    pts = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    for fn in (ex.eval_batch, ex.eval_jet1_batch, ex.eval_jet2_batch,
               ex.eval_mixed_jet_batch):
        with pytest.raises(ex.EvalError) as got:
            fn(e, pts)
        assert str(got.value) == "division by near-zero in '1/z2'"
        assert got.value.row == 0
    for fn in (ex.eval_value, ex.eval_jet2):
        with pytest.raises(ex.EvalError) as got:
            fn(e, pts[1])
        assert str(got.value) == "division by near-zero in '1/z1'"
        assert got.value.row == 0


def test_failing_rows_leave_the_others_bit_for_bit():
    # rows fail at a divisor, by overflow, or both; every other row keeps
    # what it evaluates to alone, and failing rows raise no numpy warning
    e = ex.parse("exp(z2)/z1+z1*conj(z2)", 2)
    pts = np.array([[1.0, 0.5j], [0.0, 1.0], [0.3, 800.0], [0.0, 900.0],
                    [-0.2j, 0.1]], dtype=complex)
    evaluations = [(ex._values, ex.eval_batch),
                   (partial(ex._jet_blocks, order=1), ex.eval_jet1_batch),
                   (ex._jet_blocks, ex.eval_jet2_batch),
                   (partial(ex._jet_blocks, mixed=True), ex.eval_mixed_jet_batch)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for masked, public in evaluations:
            got, bad, error = masked(e, pts)
            assert bad.tolist() == [False, True, True, True, False]
            assert error().row == 1
            got = got if isinstance(got, tuple) else (got,)
            for i in (0, 4):
                want = public(e, pts[i:i + 1])
                want = want if isinstance(want, tuple) else (want,)
                for a, b in zip(got, want, strict=True):
                    assert _same_bits(a[i], b[0])


def test_values_in_chunks_equal_one_unchunked_run(monkeypatch):
    # chunks of 7 rows; a near-zero divisor only in the third chunk gives
    # the unchunked run's error text and global row
    e = ex.parse("exp(z1*conj(z2))/(z1-0.5)+z2^3*conj(z1)-re(z2/z1)", 2)
    rng = np.random.default_rng(73)
    m = 3 * 7 + 4
    pts = rng.uniform(-1, 1, size=(m, 2)) + 1j * rng.uniform(-1, 1, size=(m, 2))
    monkeypatch.setattr(ex, "_VALUE_ROWS", 7)
    for bad_row in (None, 17):
        if bad_row is not None:
            pts[bad_row, 0] = 0.5
        with np.errstate(all="ignore"):
            (want,), first_div = ex._run(ex._tape(e), pts, 0)
        got, bad, error = ex._values(e, pts)
        assert got.tobytes() == want.tobytes()
        if bad_row is None:
            assert bad is None and first_div is None
            assert ex.eval_batch(e, pts).tobytes() == want.tobytes()
            continue
        assert np.flatnonzero(bad).tolist() == [bad_row]
        with pytest.raises(ex.EvalError) as chunked:
            ex.eval_batch(e, pts)
        monkeypatch.setattr(ex, "_VALUE_ROWS", m)
        with pytest.raises(ex.EvalError) as whole:
            ex.eval_batch(e, pts)
        assert str(chunked.value) == str(whole.value) == (
            "division by near-zero in 'exp(z1*conj(z2))/(z1-0.5)'")
        assert chunked.value.row == whole.value.row == bad_row


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


# ---------------------------------------------------------------------------
# Zero blocks: the interpreter skips structurally zero derivative blocks (the
# jet row of test_oracles checks such jets against finite differences).


def test_constant_jets_are_read_only_zero_blocks():
    n, m = 3, 5
    e = ex.Const(n, 2 + 3j) * ex.Const(n, -1.0)
    pts = np.ones((m, n), dtype=complex)
    v, *blocks = ex.eval_jet2_batch(e, pts)
    assert np.array_equal(v, np.full(m, -2 - 3j))
    assert [b.shape for b in blocks] == [(m, n)] * 2 + [(m, n, n)] * 3
    for b in blocks:
        assert b.dtype == complex and not b.any() and not b.flags.writeable
    # the chunked path fills preallocated buffers from the same zero blocks
    big = np.ones((3 * (ex._BUDGET // n ** 2) + 1, n), dtype=complex)
    assert not any(b.any() for b in ex.eval_jet2_batch(e, big)[1:])


def test_affine_expressions_build_no_outer_products(monkeypatch):
    calls = []
    real_outer = ex._outer

    def counting_outer(a, b, hb):
        calls.append(a.shape)
        return real_outer(a, b, hb)

    monkeypatch.setattr(ex, "_outer", counting_outer)
    n = 3
    pts = np.full((7, n), 0.3 - 0.2j)
    z1, c = ex.Var(n, 1), ex.Const(n, 0.5 - 2j)
    for e in (ex.Const(n, 2 + 3j) * c - ex.Const(n, 1.0),
              c * z1 - ex.Const(n, 1 + 1j) * ex.CVar(n, 2) + 3.0 - (-ex.Var(n, 2)),
              ex.Exp(n, c) * ex.Var(n, 2) + ex.Exp(n, ex.Const(n, 1.0))):
        v, gz, gzb, *h = ex.eval_jet2_batch(e, pts)
        assert not any(b.any() for b in h)
    assert calls == []
    ex.eval_jet2_batch(ex.Var(n, 1) * ex.CVar(n, 2), pts)
    assert calls == [(7, 2 * n), (7, 2 * n)]


# ---------------------------------------------------------------------------
# Mixed jets: only h_zzb is carried through the tape, in chunks of four times
# the rows of full jets, and every block equals the full jet's bit for bit.

_MIXED_OF_FULL = (0, 1, 2, 4)   # value, g_z, g_zb, h_zzb


def _jets_or_error_text(fn, e, pts):
    try:
        return fn(e, pts)
    except ex.EvalError as err:
        return str(err)


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 600))
def test_mixed_jets_are_blocks_of_the_full_jets(seed, m):
    # at n >= 3, m crosses the chunk boundaries of both rules
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    e = random_expr(rng, n, int(rng.integers(0, 7)))
    pts = rng.uniform(-1.5, 1.5, size=(m, n)) + 1j * rng.uniform(-1.5, 1.5, size=(m, n))
    got = _jets_or_error_text(ex.eval_mixed_jet_batch, e, pts)
    full = _jets_or_error_text(ex.eval_jet2_batch, e, pts)
    if isinstance(got, str):
        # the mixed blocks are a subset of the blocks full jets check
        assert got == full
        return
    assert [b.shape for b in got] == [(m,), (m, n), (m, n), (m, n, n)]
    if isinstance(full, str):
        return      # only h_zz or h_zbzb overflows
    for a, k in zip(got, _MIXED_OF_FULL):
        assert np.array_equal(a, full[k])
        assert not a.flags.writeable


@pytest.mark.parametrize("m", [1, 7, 3 * (ex._HESSIAN_ENTRIES // 9) + 1])
def test_structurally_flat_mixed_jets_are_read_only_zero_blocks(m):
    n = 3
    z1, c = ex.Var(n, 1), ex.Const(n, 0.5 - 2j)
    affine = c * z1 - ex.CVar(n, 2) + 3.0
    cases = [ex.Const(n, 2 + 3j) * c, affine, (z1 * ex.CVar(n, 1)) ** 0,
             affine ** 1, affine / ex.Const(n, 3.0)]
    pts = np.full((m, n), 0.3 - 0.2j)
    for e in cases:
        v, gz, gzb, h = ex.eval_mixed_jet_batch(e, pts)
        assert h.shape == (m, n, n) and h.dtype == complex
        assert not h.any() and not h.flags.writeable
        assert np.array_equal(v, ex.eval_batch(e, pts))


def test_mixed_jets_raise_the_full_jets_errors():
    e = ex.parse("1/z1+z2", 2)
    pts = np.array([[1.0, 0.0], [0.5j, 1.0], [0.0, 2.0]], dtype=complex)
    want = _jets_or_error_text(ex.eval_jet2_batch, e, pts)
    assert want.startswith("division by near-zero")
    assert _jets_or_error_text(ex.eval_mixed_jet_batch, e, pts) == want
    for bad in (pts[:, :1], np.array([[0.5, complex(math.nan, 0)]])):
        with pytest.raises(ValueError) as full:
            ex.eval_jet2_batch(e, bad)
        with pytest.raises(ValueError) as mixed:
            ex.eval_mixed_jet_batch(e, bad)
        assert str(mixed.value) == str(full.value)


def test_mixed_jets_ignore_an_overflow_of_h_zz_alone():
    # exp(1e150 z1) at z1 = 1e-148: value and g_z are finite, h_zz = 1e300
    # times the value overflows, and h_zzb is exactly zero
    e = ex.Exp(1, ex.Mul(1, ex.Const(1, 1e150), ex.Var(1, 1)))
    pts = np.array([[1e-148]], dtype=complex)
    with pytest.raises(ex.EvalError, match="non-finite jet"):
        ex.eval_jet2_batch(e, pts)
    v, gz, gzb, h = ex.eval_mixed_jet_batch(e, pts)
    assert np.isfinite(v).all() and np.isfinite(gz).all()
    assert not gzb.any() and not h.any()
    assert forms.q_holo_residuals(e, pts, 1).tolist() == [0.0]
    assert forms.q_holo_residual(e, pts[0], 1) == 0.0
