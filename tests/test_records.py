"""The package's records and expression nodes: no dataclasses at import,
immutable fields, value equality, constructor checks, and no JSON for a
record; the package's exports and the README's library tour."""

import ast
import copy
import inspect
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import qholo
from qholo import expr as ex, fileio, forms, hull, levi, peak


def test_importing_the_cli_leaves_dataclasses_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(qholo.__file__)))
    code = "import sys, qholo.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _thm2_report():
    return hull.Thm2Report(n=2, z_count=3, k_count=4, violations=0, min_margin=0.5,
                           link_slacks=(0.1, 0.2), monotonicity_err=0.0)


def _batch_report():
    return hull.BatchReport(configs=2, violations=0, min_margin=0.5,
                            min_link_slacks=(0.1, 0.2), max_monotonicity_err=0.0)


def _jet():
    return ex.eval_jet2(ex.parse("z1*conj(z2)+exp(z1)", 2), [0.5, 1j])


_RECORDS = {
    "signature": lambda: levi.Signature(2, 1, 0, 1e-8),
    "thm2-report": _thm2_report,
    "batch-report": _batch_report,
}
_OBJECTS = {
    **_RECORDS,
    "node": lambda: ex.parse("z1*conj(z2)+3", 2),
    "var": lambda: ex.Var(2, 1),
    "jet2": _jet,
    "lambda": lambda: hull.Lambda([1.0, 1j]),
    "levi-matrix": lambda: levi.LeviMatrix(np.eye(2)),
    "cutoff": lambda: peak.CutoffG(0.5),
    "domain": lambda: peak.ModelDomain.ball(2),
}
_A_FIELD = {"signature": "n_pos", "thm2-report": "n", "batch-report": "configs",
                "node": "left", "var": "index", "jet2": "value", "lambda": "entries",
                "levi-matrix": "mat", "cutoff": "r", "domain": "phi"}


@pytest.mark.parametrize("kind", _OBJECTS)
def test_fields_cannot_be_assigned_or_deleted(kind):
    obj, name = _OBJECTS[kind](), _A_FIELD[kind]
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, 7)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert getattr(obj, name) is before


@pytest.mark.parametrize("make", _RECORDS.values(), ids=_RECORDS.keys())
def test_records_with_equal_fields_compare_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != a._replace(**{a._fields[0]: 99})


def test_slot_classes_compare_by_field_values():
    assert hull.Lambda([1.0, 1j]) == hull.Lambda([1.0, 1j])
    assert hash(hull.Lambda([1.0, 1j])) == hash(hull.Lambda([1.0, 1j]))
    assert hull.Lambda([1.0, 1j]) != hull.Lambda([1.0, -1j])
    assert peak.CutoffG(0.5) == peak.CutoffG(0.5) != peak.CutoffG(0.25)
    assert peak.CutoffG(0.5) != hull.Lambda([1.0])


@pytest.mark.parametrize("make", _OBJECTS.values(), ids=_OBJECTS.keys())
def test_copy_and_pickle_keep_the_fields(make):
    obj = make()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and repr(twin) == repr(obj)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ex.Var(0, 1), ValueError, "dimension must be a positive integer"),
    (lambda: ex.Const(1, float("inf")), ValueError, "constant must be finite, got"),
    (lambda: ex.Var(2, 3), ValueError, r"variable index 3 out of range 1\.\.2"),
    (lambda: ex.Add(2, ex.Var(2, 1), ex.Var(1, 1)), ValueError,
     "dimension mismatch: 2 vs 1"),
    (lambda: ex.Neg(2, 3), TypeError, "expected Expr, got int"),
    (lambda: ex.Pow(1, ex.Var(1, 1), 1.5), ValueError, "exponent must be an integer"),
    (lambda: ex.Pow(1, ex.Var(1, 1), -1), ValueError,
     "negative integer exponent not allowed; use division"),
    (lambda: hull.Lambda([1.0, 0.5]), ValueError, "is not unit modulus"),
    (lambda: hull.HullProblem(1, np.empty((0, 1)), np.ones((1, 1)), (1,)),
     ValueError, "K must be nonempty"),
    (lambda: hull.HullProblem(1, np.ones((1, 1)), np.ones((1, 1)), ()),
     ValueError, "family must be nonempty"),
    (lambda: peak.CutoffG(0.0), ValueError, "transition radius must be positive"),
    (lambda: levi.LeviMatrix(np.zeros((2, 3))), ValueError, "expected a square matrix"),
])
def test_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_package_exports_the_module_lists():
    mods = (ex, forms, levi, hull, peak)
    assert qholo.__all__ == [name for m in mods for name in m.__all__] + ["__version__"]
    for m in mods:
        for name in m.__all__:
            obj = getattr(m, name)
            assert getattr(qholo, name) is obj
            # perfbench's tracer wraps a function in its defining module only
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == m.__name__, name


def test_readme_tour_gives_the_results_in_its_comments():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        block = re.search(r"## Library tour.*?```python\n(.*?)```", fh.read(), re.S)[1]
    lines, ns, results = block.splitlines(), {}, {}
    for node in ast.parse(block).body:      # each bare expression's comment is its value
        if isinstance(node, ast.Expr):
            got = eval(compile(ast.Expression(node.value), "README", "eval"), ns)
            results[lines[node.lineno - 1].rpartition("#")[2].strip()] = got
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), ns)
    assert list(results) == ["0.0", "1", "True", "10/3"]
    for text, got in results.items():
        want = eval(text)
        assert type(got) is type(want) and got == pytest.approx(want, rel=1e-15)


def test_field_order_and_defaults():
    assert levi.Signature._fields == ("n_pos", "n_neg", "n_zero", "ztol")
    assert hull.FamilyMember(ex.Var(1, 1), 1, 0.0).name == ""
    assert peak.ModelDomain._fields == (
        "n", "phi", "name", "box_halfwidth", "box_center", "convex_certified")
    assert ex.Pow._fields == ("n", "base", "exponent")
    assert ex.Add._fields == ("n", "left", "right")
    assert peak.PeakConstruction._fields == (
        "rho_W", "r", "r_halvings", "w_steps", "tube_min_phi", "cap_max_dist")
    # perfbench's tracer replaces the samplers in the class __dict__
    for name in ("sample_interior", "sample_boundary"):
        assert inspect.isfunction(vars(peak.ModelDomain)[name])


@pytest.mark.parametrize("make", _RECORDS.values(), ids=_RECORDS.keys())
def test_dump_json_refuses_a_record(tmp_path, make):
    # a record is a tuple, which the encoder would otherwise write as a list
    for obj in (make(), {"record": make()}, [make(), make()]):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            fileio.dump_json(tmp_path / "r.json", obj)
