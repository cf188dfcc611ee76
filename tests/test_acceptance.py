"""Acceptance sweep: the nine release criteria, one printed line each.

Run with -s to see the per-criterion PASS/FAIL lines.  Each criterion is a
single test so a red line points directly at the broken guarantee."""

import json
import time

import numpy as np

import qholo.expr as ex
import qholo.hull as hull
import qholo.levi as levi
import qholo.peak as pk
from qholo.cli import run as cli_run
from qholo.forms import minor_oracle_residual, q_holo_residual, q_holo_residuals

from helpers import (certified_sample, cli_fixtures, jet_rel_err, random_hermitian,
                     random_pair, random_unitary)


def _report(num, label, ok, detail=""):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_jets_match_finite_differences():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        e, z = random_pair(rng, n_max=4, depth_max=6)
        exact = ex.eval_jet2(e, z)
        fd = ex.finite_diff_jet(e, z, h=1e-4)
        worst = max(worst, jet_rel_err(exact, fd))
    elapsed = time.monotonic() - t0
    _report(1, "jet engine vs finite differences",
            worst <= 1e-5 and elapsed < 10.0,
            f"1000 pairs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_wedge_engine_vs_minor_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        e, z = random_pair(rng, n_max=4, depth_max=6)
        q = int(rng.integers(1, e.n + 1))
        a = q_holo_residual(e, z, q)
        b = minor_oracle_residual(e, z, q)
        worst = max(worst, abs(a - b) / max(1.0, a, b))
    # exact fixtures: holomorphic coordinate and the squared norm at (1, 0)
    z1 = ex.parse("z1", 2)
    pt = np.array([0.7 - 0.2j, 0.1 + 0.4j])
    fixtures_ok = all(q_holo_residual(z1, pt, q) == 0.0 for q in (1, 2))
    sq = ex.parse("abs2(z1)+abs2(z2)", 2)
    e1 = np.array([1.0 + 0j, 0.0 + 0j])
    fixtures_ok &= q_holo_residual(sq, e1, 2) == 1.0
    fixtures_ok &= minor_oracle_residual(sq, e1, 2) == 1.0
    _report(2, "wedge engine vs minor oracle",
            worst <= 1e-10 and fixtures_ok,
            f"1000 triples, worst rel err {worst:.2e}, fixtures {'ok' if fixtures_ok else 'BAD'}")


def test_criterion_3_residual_monotonicity():
    rng = np.random.default_rng(103)
    violations = 0
    worst = 0.0
    for _ in range(500):
        e, z, q = certified_sample(rng, residual_tol=1e-10)
        up = q_holo_residual(e, z, q + 1)
        worst = max(worst, up)
        if up > 1e-9:
            violations += 1
    _report(3, "q-holomorphic stays (q+1)-holomorphic",
            violations == 0,
            f"500 certified samples, worst (q+1)-residual {worst:.2e}")


def test_criterion_4_weighted_reciprocal_family():
    rng = np.random.default_rng(104)
    worst_res = 0.0
    worst_scale = 0.0
    for n in (2, 3):
        p = np.zeros(n, dtype=complex)
        lams = hull.random_lambdas(n, 100, rng)
        pts = hull.certification_points(n, seed=104 + n, count=100,
                                        avoid=p, avoid_radius=0.3)
        for lam in lams:
            e = hull.basener_expr(lam, p, n)
            worst_res = max(worst_res, float(np.max(q_holo_residuals(e, pts, n))))
        # scaling law |f(t x)| t = |f(x)| on a subsample
        for lam in lams[:20]:
            for z in pts[:20]:
                base = abs(hull.basener_value(lam, z))
                for t in (0.5, 2.0):
                    err = abs(abs(hull.basener_value(lam, t * z)) * t - base)
                    worst_scale = max(worst_scale, err / max(1.0, base))
    _report(4, "weighted reciprocal family is n-holomorphic",
            worst_res <= 1e-9 and worst_scale <= 1e-12,
            f"n=2,3 x 100 lambdas x 100 points, worst residual {worst_res:.2e}, "
            f"scaling err {worst_scale:.2e}")


def test_criterion_5_separation_sweep():
    t0 = time.monotonic()
    rep = hull.run_theorem2_batch(configs=1000, seed=105)
    elapsed = time.monotonic() - t0
    # worked value: lambda aligned with (0.3, 0.3) from the origin gives 10/3
    lam = hull.construct_lambda([0.3, 0.3], [0.0, 0.0])
    v = abs(hull.basener_value(lam, [0.3, 0.3]))
    worked_ok = abs(v - 10.0 / 3.0) <= 1e-12 * (10.0 / 3.0)
    _report(5, "hull separation sweep",
            rep.violations == 0 and worked_ok and elapsed < 60.0,
            f"1000 configs, 0 violations expected got {rep.violations}, "
            f"min margin {rep.min_margin:.3f}, worked value {v:.12f}, {elapsed:.1f}s")


def test_criterion_6_signature_engine():
    rng = np.random.default_rng(106)
    engines_ok = True
    invariance_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        h = random_hermitian(rng, m)
        s = levi.eig_signature(h).as_tuple()
        if s != levi.signature_oracle(h).as_tuple():
            engines_ok = False
        u = random_unitary(rng, m)
        if levi.eig_signature(u @ h @ u.conj().T).as_tuple() != s:
            invariance_ok = False
    spheres_ok = True
    for n in range(2, 6):
        terms = "+".join(f"abs2(z{k})" for k in range(1, n + 1))
        phi = ex.parse(f"{terms}-1", n)
        for p in levi.sample_boundary(phi, 100, seed=106 + n):
            c = levi.classify_boundary_point(phi, p)
            if c.strict_q != 1:
                spheres_ok = False
    phi = ex.parse("abs2(z1)+abs2(z2)-abs2(z3)-1", 3)
    c = levi.classify_boundary_point(phi, np.array([1.0, 0.0, 0.0], complex))
    fixture_ok = c.strict_q == 2
    _report(6, "signature engine",
            engines_ok and invariance_ok and spheres_ok and fixture_ok,
            f"1000 matrices m<=8 {'ok' if engines_ok else 'BAD'}, "
            f"unitary invariance {'ok' if invariance_ok else 'BAD'}, "
            f"spheres n=2..5 {'ok' if spheres_ok else 'BAD'}, "
            f"mixed fixture strict q={c.strict_q}")


def test_criterion_7_peak_pipeline():
    results = []
    fixtures = [
        ("ball3 q=2", pk.ModelDomain.ball(3),
         np.array([1.0, 0.0, 0.0], dtype=complex), 2),
        ("ellipsoid3 q=1",
         pk.ModelDomain.ellipsoid([1.0, 1.5, 2.0], [0.2, -0.3, 0.5]),
         None, 1),
    ]
    for label, dom, p, q in fixtures:
        if p is None:
            p = dom.sample_boundary(1, seed=11)[0]
        t0 = time.monotonic()
        _, f = pk.assemble_peak(dom, p, q, seed=0)
        rep = pk.verify_peak(f, dom, p, q, residual_points=200, seed=0)
        elapsed = time.monotonic() - t0
        results.append((label, rep, elapsed))
    ok = all(rep.passed and t < 120.0 for _, rep, t in results)
    detail = "; ".join(
        f"{label}: peak err {rep.peak_value_err:.1e}, margin {rep.sup_margin:.3f}, "
        f"residual {rep.max_residual:.2e}, vanish {rep.vanish_max}, {t:.1f}s"
        for label, rep, t in results)
    _report(7, "peak extension pipeline", ok, detail)


def test_criterion_8_hull_laws():
    rng = np.random.default_rng(108)
    violations = 0
    for trial in range(20):
        n = int(rng.integers(2, 4))
        K1 = rng.normal(size=(15, n)) + 1j * rng.normal(size=(15, n))
        K2 = np.concatenate(
            [K1, rng.normal(size=(8, n)) + 1j * rng.normal(size=(8, n))])
        extra = rng.normal(size=(10, n)) + 1j * rng.normal(size=(10, n))
        Z = np.concatenate([K1[:5], extra])
        exprs = [ex.parse("z1", n), ex.parse("z1*z2", n),
                 ex.parse("exp(0.3*z2)", n)]
        small = [(exprs[0], 1, "a", None)]
        full = small + [(e, 1, str(i), None) for i, e in enumerate(exprs[1:])]
        r_k1 = hull.discrete_hull(hull.build_problem(n, K1, Z, full, seed=trial))
        r_k2 = hull.discrete_hull(hull.build_problem(n, K2, Z, full, seed=trial))
        r_small = hull.discrete_hull(hull.build_problem(n, K1, Z, small, seed=trial))
        # K points among the candidates are always members
        if not all(r_k1.members[:5]):
            violations += 1
        # growing K grows the hull; growing the family shrinks it
        if any(m1 and not m2 for m1, m2 in zip(r_k1.members, r_k2.members)):
            violations += 1
        if any(mf and not ms for mf, ms in zip(r_k1.members, r_small.members)):
            violations += 1
    _report(8, "hull laws", violations == 0,
            f"20 randomized instances, {violations} violations")


def test_criterion_9_cli_determinism(tmp_path):
    mismatches = []
    fixtures = cli_fixtures()
    for name, sub, cfg in fixtures:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for rep in (1, 2):
            out = tmp_path / f"{name}_run{rep}"
            code = cli_run([sub, "--config", str(cfg_path), "--out", str(out),
                            "--seed", "42"])
            if code not in (0, 1):
                mismatches.append(f"{name}: exit {code}")
            outs.append(out)
        files1 = sorted(f.name for f in outs[0].iterdir())
        files2 = sorted(f.name for f in outs[1].iterdir())
        if files1 != files2 or not files1:
            mismatches.append(f"{name}: artifact sets differ")
            continue
        for fname in files1:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}: bytes differ")
    _report(9, "CLI determinism",
            not mismatches,
            f"{len(fixtures)} fixtures x 2 runs"
            + (f"; {mismatches}" if mismatches else ", all byte-identical"))
