"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench -q"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import qholo  # noqa: E402
from qholo import expr, forms, hull, levi, peak  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _same_jet(a, b):
    return a.value == b.value and all(
        np.array_equal(getattr(a, k), getattr(b, k))
        for k in ("g_z", "g_zb", "h_zz", "h_zzb", "h_zbzb"))


def test_wrappers_cover_every_binding_and_return_identical_results():
    f = expr.parse("z1*conj(z2)+exp(z1)*abs2(z2)", 2)
    z = np.array([0.3 + 0.1j, -0.2j])
    dom = peak.ModelDomain.ball(2)
    phi = expr.parse("abs2(z1)+abs2(z2)-1", 2)

    def calls():
        return (qholo.eval_jet2(f, z), forms.q_holo_residual(f, z, 2),
                levi.classify_boundary_point(phi, np.array([1.0, 0.0])).strict_q,
                dom.sample_interior(20, np.random.default_rng(3)),
                dom.sample_boundary(5, 4))

    plain = calls()
    tracer = spans.Tracer()
    tracer.install(qholo)
    try:
        for owner, attr in ((qholo, "eval_jet2"), (expr, "eval_jet2"),
                            (forms, "eval_jet2"), (levi, "eval_jet2"),
                            (hull, "q_holo_residual"), (peak, "residual_from_jet"),
                            (peak.ModelDomain, "sample_interior"),
                            (peak.ModelDomain, "sample_boundary"),
                            (qholo.cli, "run")):
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
        traced = calls()
    finally:
        tracer.uninstall()
    assert not hasattr(forms.eval_jet2, "__wrapped__")
    assert forms.eval_jet2 is expr.eval_jet2 is qholo.eval_jet2
    assert not hasattr(peak.ModelDomain.sample_boundary, "__wrapped__")

    assert _same_jet(plain[0], traced[0])
    assert plain[1:3] == traced[1:3]
    assert np.array_equal(plain[3], traced[3]) and np.array_equal(plain[4], traced[4])
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert "forms.q_holo_residual" in names
    assert "peak.ModelDomain.sample_boundary" in names
    # the boundary sampler's jets nest under levi.sample_boundary
    metrics, _ = spans.layer_metrics({"names": tracer.names, "spans": tracer.spans})
    assert metrics["levi.sample_boundary.points"] == 5
    assert metrics["levi.sample_boundary.jets_per_point"] >= 1


def test_self_times_partition_the_top_level_spans():
    dump = {"names": ["cli.run", "expr.eval_jet2", "fileio.dump_json"],
            "spans": [[0, 0, 100, -1, 0], [1, 10, 40, 0, 0],
                      [1, 50, 60, 0, 0], [2, 70, 90, 0, 7]]}
    m, total = spans.layer_metrics(dump)
    assert m["expr.eval_jet2.calls"] == 2
    assert m["expr.eval_jet2.self_s"] == pytest.approx(40e-9)
    assert m["cli.run.self_s"] == pytest.approx(40e-9)
    assert m["fileio.write.bytes"] == 7
    assert total == pytest.approx(100e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced(workload, tmp_path, monkeypatch):
    """One untraced and one traced iteration: same bytes, and the self
    times add up to the traced wall time within the tracing overhead."""
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    detail, result = run.run_workload(workload, 7, 0.0, True)
    assert detail["iterations"] == 2
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert detail["counts_repeat"]
    overhead = result["metrics"]["trace.overhead_s"]["value"]
    samples = detail["samples"]
    assert abs(samples["traced_wall_s"][0] - samples["self_sum_s"][0]) <= abs(overhead)


def test_wrong_expectation_raises_fail_frac(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    build = workloads.build

    def wrong(*args):
        steps = build(*args)
        steps[1]["expect"]["overall_q"] = 2    # the levi step's function has q = 1
        return steps

    monkeypatch.setattr(workloads, "build", wrong)
    detail, result = run.run_workload("jets-lowdim", 3, 0.0, False)
    assert detail["end_to_end"]["fail_frac"]["value"] > 0
    assert result["failed"] == 1 and not result["correct"]
    assert "levi overall_q 1 != 2" in detail["failures"][0]


def test_hull_oracle_agrees_with_library():
    s = workloads._Seeds(5, "test")
    n = 2
    p = s.complex(0.5, n)
    lams = [s.unit_phases(n) for _ in range(3)]
    K = p[None, :] + s.complex(1.0, 30).reshape(15, n)
    Z = workloads.grid_points(workloads.grid_axes(n, p, 1.3, 6, {}))
    prob = hull.HullProblem(n=n, K=K, Z=Z, family=tuple(
        hull.FamilyMember(hull.basener_expr(hull.Lambda(lam), p, n), n, 0.0)
        for lam in lams))
    got = sum(hull.discrete_hull(prob).members)
    want, close = workloads.hull_expectation(lams, p, K, Z, np.zeros(len(Z), bool))
    assert close == 0 and got == want


def test_summary_reports_percentile_with_ten_beyond():
    assert "p90" not in run.summary(list(range(10)))
    s = run.summary(list(range(1, 101)))
    assert s["median"] == 50.5 and s["n"] == 100 and s["p90"] == 90
