"""The declared config shapes: every key reached, mutation fuzz (values and
expression strings), README caps."""

import contextlib
import functools
import io
import json
import math
import operator
import os
import re
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from qholo import cli
from qholo import expr as ex

from helpers import random_expr

# Small valid configs, as {file name: JSON document}; "c.json" is the config
# and the CSV files are written as they are.
_Z2 = ["0+0i", "0+0i"]
_SAMPLES = {"boundary": 20, "interior": 20, "tube": 60}
_K_CSV = "re1,im1,re2,im2\n1.5,0.0,0.0,0.0\n0.0,0.0,-1.5,0.5\n"
_Z_CSV = "re1,im1,re2,im2\n0.25,0.0,0.0,0.0\n0.0,0.1,0.1,0.0\n"
CASES = [
    ("levi", {"c.json": {"matrix": [["1+0i", "0.5i"], ["-0.5i", "-1"]], "ztol": 1e-9,
                         "expect": {"signature": [1, 1, 0]}}}),
    ("levi", {"c.json": {"n": 2, "function": "abs2(z1)+abs2(z2)", "ztol": 1e-9,
                         "points": {"random": {"count": 4, "seed": 1, "halfwidth": 1.0,
                                               "avoid_radius": 0.1, "center": _Z2}},
                         "expect": {"q": 1, "q_max": 1}}}),
    ("levi", {"c.json": {"n": 2, "function": "abs2(z1)-abs2(z2)",
                         "points": [["0.5", "0"], ["0", "0.5i"]]}}),
    ("levi", {"c.json": {"n": 2, "function": "abs2(z1)", "points": {"file": "k.csv"}},
              "k.csv": _K_CSV}),
    ("classify", {"c.json": {"n": 2, "name": "sphere", "defining": "abs2(z1)+abs2(z2)-1",
                             "boundary_samples": 4, "seed": 1, "box": 2.0, "ztol": 1e-9,
                             "expect": {"strict_q": 1, "strict_q_max": 1}}}),
    ("qholo", {"c.json": {"n": 2, "q": 1, "seed": 0, "function": "z1*z2",
                          "points": [["0.1", "0.2i"]], "threshold": 1e-8}}),
    ("qholo", {"c.json": {"n": 2, "q": 2, "seed": 5,
                          "function": {"builtin": "basener", "p": _Z2, "lambda_count": 1,
                                       "seed": 3},
                          "points": {"random": {"count": 3, "seed": 1, "halfwidth": 1.0,
                                                "avoid_radius": 0.2, "center": _Z2}}}}),
    ("qholo", {"c.json": {"n": 2, "q": 2, "points": {"file": "k.csv"},
                          "function": {"builtin": "basener", "lambda": ["1", "1i"]}},
               "k.csv": _K_CSV}),
    ("hull", {"c.json": {"n": 2, "seed": 0,
                         "family": ["fam.json", {"builtin": "basener", "p": _Z2,
                                                 "lambda": ["1", "-1"]}],
                         "K": {"sphere": {"p": _Z2, "r": 1.0, "count": 8, "seed": 1}},
                         "candidates": {"grid": {"center": _Z2, "halfwidth": 0.4,
                                                 "per_axis": 3,
                                                 "fixed_axes": {"im1": 0.0, "re2": 0.1}}},
                         "fam": 1e-8},
              "fam.json": {"n": 2, "expr": "z1*z2", "q": 2, "name": "f", "avoid": _Z2}}),
    ("hull", {"c.json": {"n": 2, "family": [{"builtin": "basener", "lambda_count": 2,
                                             "seed": 4}],
                         "K": {"file": "k.csv"},
                         "candidates": {"grid": {"halfwidth": 0.5, "per_axis": 2}}},
              "k.csv": _K_CSV}),
    ("thm2", {"c.json": {"single": {"n": 2, "p": _Z2, "r": 1.0,
                                    "K": {"sphere": {"r": 1.5, "count": 5}},
                                    "z": {"count": 4, "seed": 3}}}}),
    ("thm2", {"c.json": {"single": {"n": 2, "p": _Z2, "r": 1.0, "K": {"file": "k.csv"},
                                    "z": {"file": "z.csv"}}},
              "k.csv": _K_CSV, "z.csv": _Z_CSV}),
    ("thm2", {"c.json": {"seed": 1, "batch": {"configs": 2, "seed": 4, "ns": [2],
                                              "k_count": 5, "z_count": 5,
                                              "r_range": [0.5, 1.0]}}}),
    ("peak", {"c.json": {"domain": {"model": "ball", "n": 2, "center": _Z2, "radius": 1.0},
                         "p": ["1", "0"], "q": 1, "c": 1.0, "rho_V": 0.5, "r": "auto",
                         "samples": _SAMPLES, "seed": 0, "residual_tol": 1e-5,
                         "margin_min": 1e-3, "peak_tol": 1e-12}}),
    ("peak", {"c.json": {"domain": {"model": "ellipsoid", "a": [1.0, 1.5], "b": [0.2, -0.3]},
                         "p": [repr(1 / math.sqrt(1.2)), "0"], "q": 1, "r": 0.25,
                         "samples": _SAMPLES}}),
    ("peak", {"c.json": {"domain": "dom.json", "p": ["1", "0"], "q": 1, "samples": _SAMPLES},
              "dom.json": {"n": 2, "defining": "abs2(z1)+abs2(z2)-1", "box": 1.5,
                           "name": "disc", "convex_certified": True}}),
]

# Finite values inside every reader's range whose runs once printed numpy
# warnings: a center near the float limit, a tube radius of 2^40.
EXTREMES = [
    ("thm2", {"c.json": {"single": {"n": 2, "p": ["1e308", "0"], "r": 1.0,
                                    "K": {"sphere": {"r": 1.5, "count": 5}},
                                    "z": {"count": 4, "seed": 3}}}}),
    ("peak", {"c.json": {"domain": {"model": "ball", "n": 2}, "p": ["1", "0"], "q": 1,
                         "r": 2 ** 40, "samples": _SAMPLES}}),
]

# Each value replaces a leaf or a whole object or list; integer keys also get
# a non-integral float.
BAD = [None, True, False, 0, -1, 0.5, 2 ** 40, 1e308, float("nan"), float("inf"),
       float("-inf"), "", "x", [], [1], {}, {"x": 1}]


def _walk(reader, key=None):
    """(key, reader) of every reader a shape holds, key the nearest object key."""
    yield key, reader
    for k, part in getattr(reader, "parts", ()):
        yield from _walk(part, key if k is None else k)


def _shape_keys(command, test):
    return {k for k, r in _walk(cli._SHAPES[command]) if k and test(r)}


def _nodes(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for k, v in children:
        yield from _nodes(v, path + (k,))


def _config_keys(docs):
    return {p[-1] for doc in docs.values() if not isinstance(doc, str)
            for p in _nodes(doc) if p and isinstance(p[-1], str)}


def test_cases_reach_every_declared_key():
    for command in cli._SHAPES:
        present = set().union(*(_config_keys(d) for c, d in CASES if c == command))
        assert _shape_keys(command, lambda r: True) <= present, command


def test_every_case_is_valid(tmp_path):
    for i, (command, docs) in enumerate(CASES):
        code, _, _, caught = _run(command, docs, str(tmp_path / str(i)))
        assert code in (0, 1) and not caught, (command, docs, caught)


def _run(command, docs, work):
    """(exit code, stderr, out dir, texts of the warnings raised)."""
    os.makedirs(work, exist_ok=True)
    for name, doc in docs.items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    err, out = io.StringIO(), os.path.join(work, "out")
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run([command, "--config", os.path.join(work, "c.json"), "--out", out])
    return code, err.getvalue(), out, [str(w.message) for w in caught]


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value
    return doc


@st.composite
def _mutations(draw):
    command, docs = draw(st.sampled_from(CASES))
    name = draw(st.sampled_from(sorted(n for n, d in docs.items()
                                       if not isinstance(d, str))))
    path = draw(st.sampled_from(list(_nodes(docs[name]))))
    key = next((p for p in reversed(path) if isinstance(p, str)), None)
    whole = key in _shape_keys(command, lambda r: getattr(r, "integer", False))
    value = draw(st.sampled_from(BAD + [2.5] * whole))
    return command, dict(docs, **{name: _replaced(docs[name], path, value)})


def test_extreme_inputs_give_a_finite_report_or_exit_2(tmp_path):
    for i, (command, docs) in enumerate(EXTREMES):
        code, err, out, caught = _run(command, docs, str(tmp_path / str(i)))
        assert code in (0, 2) and not caught, (command, code, caught)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            (report,) = os.listdir(out)
            with open(os.path.join(out, report)) as fh:
                assert not re.search(r'"-?(inf|nan)"', fh.read())


@settings(max_examples=500, suppress_health_check=[HealthCheck.too_slow])
@given(_mutations())
@example(EXTREMES[0])
@example(EXTREMES[1])
def test_mutated_configs_keep_the_exit_contract(mutation):
    _assert_exit_contract(*mutation)


def _assert_exit_contract(command, docs):
    """Exit 0, 1 or 2 without a warning; exit 2 prints one error line and
    leaves the out directory empty; exit 0 writes a JSON report without a
    NaN (a check on a NaN quantity fails)."""
    with tempfile.TemporaryDirectory() as work:
        code, err, out, caught = _run(command, docs, work)
        event(f"{command} exit {code}")
        assert code in (0, 1, 2)
        assert not caught, caught
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert not os.path.exists(out) or not os.listdir(out)
        if code == 0:
            for name in [n for n in os.listdir(out) if n.endswith(".json")]:
                with open(os.path.join(out, name)) as fh:
                    assert '"nan"' not in fh.read(), name


# Every expression string of the cases, as (command, docs, file name, path).
_EXPR_SITES = [(command, docs, name, path) for command, docs in CASES
               for name, doc in docs.items() if not isinstance(doc, str)
               for path in _nodes(doc) if path and path[-1] in ("function", "defining", "expr")
               and isinstance(functools.reduce(operator.getitem, path, doc), str)]
# Wrappers around a random expression that overflow somewhere in the box:
# nested and scaled exponentials and long literals, written out positionally
# because the parser takes no exponent notation such as 1e300.
_HUGE, _TINY = "1" + "0" * 300, "0." + "0" * 300 + "1"
_OVERFLOWING = ["exp(exp({}))", "exp(exp(exp(z1)))+{}", "exp(800*re({}))",
                "({})*" + _HUGE, "({})^3-" + _HUGE, "({})/" + _TINY, "exp(460)+{}"]


@st.composite
def _expression_mutations(draw):
    command, docs, name, path = draw(st.sampled_from(_EXPR_SITES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = ex.to_text(random_expr(rng, 2, draw(st.integers(0, 3))))
    for wrapper in draw(st.lists(st.sampled_from(_OVERFLOWING), max_size=2)):
        text = wrapper.format(text)
    return command, dict(docs, **{name: _replaced(docs[name], path, text)})


def test_expression_sites_cover_every_expression_key():
    assert {path[-1] for _, _, _, path in _EXPR_SITES} == {"function", "defining", "expr"}


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
@given(_expression_mutations())
def test_mutated_expressions_keep_the_exit_contract(mutation):
    _assert_exit_contract(*mutation)


def test_readme_names_exactly_the_capped_keys():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        readme = fh.read()
    caps = re.search(r"^  - Upper limits: (.*?)(?=^  - |^- |\Z)", readme, re.M | re.S)
    named = set(re.findall(r"`([A-Za-z_]\w*)`", caps.group(1)))
    capped = set().union(*(_shape_keys(c, lambda r: getattr(r, "capped", False))
                           for c in cli._SHAPES))
    assert named == capped
