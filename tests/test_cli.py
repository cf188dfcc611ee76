"""End-to-end CLI runs: exit codes, artifacts, and byte determinism."""

import json
import tracemalloc
import warnings

import pytest

import numpy as np

from qholo import cli, expr, fileio, forms, hull, levi
from qholo.cli import MAX_SAMPLES, run

from helpers import format_complex_reference, grid_candidates_reference


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_json(out_dir, name):
    with open(out_dir / name) as fh:
        return json.load(fh)


def _assert_config_error(tmp_path, capsys, command, cfg):
    """Exit 2 with a one-line message, and nothing written."""
    path = _write(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())
    return err


# ---------------------------------------------------------------------------
# levi


def test_levi_matrix_mode(tmp_path):
    cfg = _write(tmp_path, "m.json", {
        "matrix": [["1+0i", "0+0i"], ["0+0i", "-1+0i"]],
        "expect": {"signature": [1, 1, 0]},
    })
    out = tmp_path / "out"
    assert run(["levi", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "levi_report.json")
    assert rep["signature"] == {"pos": 1, "neg": 1, "zero": 0}
    assert rep["failures"] == []


def test_levi_matrix_expectation_failure_still_writes(tmp_path):
    cfg = _write(tmp_path, "m.json", {
        "matrix": [["1+0i"]],
        "expect": {"signature": [0, 1, 0]},
    })
    out = tmp_path / "out"
    assert run(["levi", "--config", cfg, "--out", str(out)]) == 1
    assert (out / "levi_report.json").exists()


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), 1e308],
                         ids=["nan", "inf", "overflow"])
def test_levi_non_finite_matrix_is_config_error(tmp_path, capsys, entry):
    _assert_config_error(tmp_path, capsys, "levi",
                         {"matrix": [[entry, 0.0], [0.0, 1.0]]})


def test_levi_function_mode(tmp_path):
    cfg = _write(tmp_path, "f.json", {
        "n": 2,
        "function": "abs2(z1)+abs2(z2)",
        "points": {"random": {"count": 10, "seed": 1}},
        "expect": {"q_max": 1},
    })
    out = tmp_path / "out"
    assert run(["levi", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "levi_report.json")
    assert rep["overall_q"] == 1


def _legacy_json(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _signature_dicts(sig):
    """The per-row signature objects of a stacked Signature."""
    return [{"pos": a, "neg": b, "zero": c} for a, b, c in zip(
        sig.n_pos.tolist(), sig.n_neg.tolist(), sig.n_zero.tolist())]


def _q_text(q, n):
    return "none" if q == n else q


def test_per_point_reports_equal_the_record_by_record_build(tmp_path):
    # the column-wise reports against the per-point dicts they replaced
    text, n = "abs2(z1)*re(z2)+abs2(z2)-0.5*abs2(z1)", 2
    rows = [[format_complex_reference(complex(a, b)) for a, b in pair]
            for pair in np.random.default_rng(5).uniform(-1, 1, (12, 2, 2))]
    rows[0] = ["-0.0-0.0i", "0.5-0.0i"]
    out = tmp_path / "levi"
    assert run(["levi", "--config", _write(tmp_path, "l.json", {
        "n": n, "function": text, "points": rows}), "--out", str(out)]) == 0
    f = expr.parse(text, n)
    cls = levi.classify_function(f, [fileio.parse_point(r, n) for r in rows])
    assert cls.points.shape == (len(rows), n) and not cls.points.flags.writeable
    assert len(set(cls.per_point_q.tolist())) > 1
    want = {"mode": "function", "n": n, "function": expr.to_text(f),
            "points": [{"point": [format_complex_reference(c) for c in p],
                        "signature": sig, "q": q}
                       for p, sig, q in zip(cls.points, _signature_dicts(cls.signatures),
                                            cls.per_point_q.tolist())],
            "overall_q": cls.overall_q, "overall": cls.overall_text,
            "failures": []}
    assert (out / "levi_report.json").read_text() == _legacy_json(want)

    text = "1-abs2(z1)-abs2(z2)"
    out = tmp_path / "classify"
    assert run(["classify", "--config", _write(tmp_path, "c.json", {
        "n": n, "defining": text, "boundary_samples": 6, "seed": 4}),
        "--out", str(out)]) == 0
    phi = expr.parse(text, n)
    cls = levi.classify_boundary_point(phi, levi.sample_boundary(phi, 6, 4))
    assert (cls.strict_q == n).all()        # no strict q at any point
    want = {"mode": "boundary", "name": "domain", "n": n,
            "defining": expr.to_text(phi), "seed": 4, "failures": [],
            "points": [{"point": [format_complex_reference(z) for z in p],
                        "gradient": [format_complex_reference(z) for z in g],
                        "signature": sig, "strict_q": _q_text(sq, n),
                        "weak_q": _q_text(wq, n)}
                       for p, g, sig, sq, wq in zip(
                           cls.point, cls.gradient, _signature_dicts(cls.restricted),
                           cls.strict_q.tolist(), cls.weak_q.tolist())]}
    assert (out / "classify_report.json").read_text() == _legacy_json(want)


def test_levi_function_not_real_valued_is_config_error(tmp_path):
    cfg = _write(tmp_path, "f.json", {"n": 1, "function": "z1",
                                      "points": [["0.5+0.5i"]]})
    out = tmp_path / "out"
    assert run(["levi", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "levi_report.json").exists()


# ---------------------------------------------------------------------------
# classify


def test_classify_sphere(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "n": 2,
        "name": "sphere2",
        "defining": "abs2(z1)+abs2(z2)-1",
        "boundary_samples": 8,
        "seed": 7,
        "expect": {"strict_q": 1},
    })
    out = tmp_path / "out"
    assert run(["classify", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "classify_report.json")
    assert rep["n"] == 2
    assert len(rep["points"]) == 8
    assert all(pt["strict_q"] == 1 for pt in rep["points"])


@pytest.mark.parametrize("count", [-3, 0], ids=["negative", "zero"])
def test_classify_nonpositive_samples_is_config_error(tmp_path, capsys, count):
    _assert_config_error(tmp_path, capsys, "classify", {
        "n": 2, "defining": "abs2(z1)+abs2(z2)-1", "boundary_samples": count})


_CAPPED = [2 ** 40, 1e308, MAX_SAMPLES + 1]
_CAPPED_IDS = ["2^40", "1e308", "cap+1"]


@pytest.mark.parametrize("count", _CAPPED, ids=_CAPPED_IDS)
def test_classify_samples_above_the_cap_are_config_error(tmp_path, capsys, count):
    _assert_config_error(tmp_path, capsys, "classify", {
        "n": 2, "defining": "abs2(z1)+abs2(z2)-1", "boundary_samples": count})


def _random_points_cfg(command, random):
    """A levi or qholo config over random points (q is qholo's key alone)."""
    cfg = {"n": 2, "function": "abs2(z1)+abs2(z2)", "points": {"random": random}}
    return dict(cfg, q=1) if command == "qholo" else cfg


@pytest.mark.parametrize("count", _CAPPED, ids=_CAPPED_IDS)
@pytest.mark.parametrize("command", ["levi", "qholo"])
def test_random_count_above_the_cap_is_config_error(tmp_path, capsys, command, count):
    _assert_config_error(tmp_path, capsys, command,
                         _random_points_cfg(command, {"count": count, "seed": 1}))


_SPHERE2 = {"n": 2, "defining": "abs2(z1)+abs2(z2)-1", "boundary_samples": 4}


@pytest.mark.parametrize("key,value", [
    ("box", "x"), ("box", float("nan")), ("box", 1e308), ("box", float("inf")),
    ("box", 0), ("box", True), ("seed", "x"), ("seed", -1), ("seed", 1.5),
    ("seed", [1]), ("seed", float("nan")),
])
def test_classify_bad_box_or_seed_is_config_error(tmp_path, capsys, key, value):
    _assert_config_error(tmp_path, capsys, "classify", {**_SPHERE2, key: value})


@pytest.mark.parametrize("key,value", [
    ("seed", [1]), ("seed", "x"), ("seed", -2), ("seed", float("inf")),
    ("halfwidth", "x"), ("halfwidth", float("inf")), ("halfwidth", float("nan")),
    ("halfwidth", 0), ("halfwidth", -1.0), ("avoid_radius", "x"),
    ("avoid_radius", -0.5),
])
@pytest.mark.parametrize("command", ["levi", "qholo"])
def test_bad_random_points_spec_is_config_error(tmp_path, capsys, command, key, value):
    err = _assert_config_error(tmp_path, capsys, command, _random_points_cfg(
        command, {"count": 4, "seed": 1, key: value}))
    assert f"points.random.{key}" in err


def test_random_points_that_all_fall_in_the_avoided_ball_are_config_error(
        tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, "qholo", {
        "n": 2, "q": 2, "function": {"builtin": "basener", "p": ["0", "0"]},
        "points": {"random": {"count": 4, "seed": 1, "avoid_radius": 1e6}}})


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, below):
    path = _write(tmp_path, "c.json", _SPHERE2)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "out" if below else taken
    assert run(["classify", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert taken.read_text() == "kept"


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    path = _write(tmp_path, "c.json", _SPHERE2)
    out = tmp_path / "out"
    assert run(["classify", "--config", path, "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("defining, seed", [
    ("abs2(z1)+abs2(z2)-1+exp(800*re(z2*conj(z1)))-1", 1),
    ("exp(exp(exp(z1)))+abs2(z2)-1", 4),
    ("exp(460)+re(z1)+abs2(z2)", 1),
], ids=["exp-800", "triple-exp", "step-length"])
def test_classify_overflowing_draw_exits_2_naming_it(tmp_path, capsys, defining, seed):
    # a finite gradient beyond about 1e154 overflowed the Newton step to NaN:
    # numpy warnings, then an abort whose message named no draw; a step of
    # length about 1e200 overflowed its norm: a warning, then a stall
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _assert_config_error(tmp_path, capsys, "classify", {
            "n": 2, "defining": defining, "boundary_samples": 20, "box": 2,
            "seed": seed})
    assert err.startswith("error: boundary draw ")


def test_classify_stall_prints_the_sampler_message_once(tmp_path, capsys):
    # no boundary at all: every draw fails to converge, and the stall names
    # itself without a second "sampling failed" prefix
    err = _assert_config_error(tmp_path, capsys, "classify", {
        "n": 2, "defining": "abs2(z1)+abs2(z2)+1", "boundary_samples": 5, "seed": 1})
    assert err == "error: boundary sampling stalled: 0/5 points after 300 draws\n"


def test_classify_failure_names_the_first_failing_point(tmp_path, capsys, monkeypatch):
    # the origin (degenerate gradient) precedes an off-boundary point
    pts = np.array([[1, 0], [0, 1], [0, 0], [0.5, 0]], dtype=complex)
    phi = expr.parse("(abs2(z1)+abs2(z2))*(abs2(z1)+abs2(z2)-1)", 2)
    with pytest.raises(ValueError) as single:
        levi.classify_boundary_point(phi, pts[2])
    monkeypatch.setattr(levi, "sample_boundary", lambda *args, **kwargs: pts)
    _assert_config_error(tmp_path, capsys, "classify", {
        "n": 2, "defining": expr.to_text(phi), "boundary_samples": 4})
    path = _write(tmp_path, "c.json", {
        "n": 2, "defining": expr.to_text(phi), "boundary_samples": 4})
    assert run(["classify", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: classification failed at {pts[2]}: {single.value}\n")


# ---------------------------------------------------------------------------
# qholo


def test_qholo_pass(tmp_path):
    cfg = _write(tmp_path, "q.json", {
        "n": 2, "q": 1, "function": "z1*z2",
        "points": {"random": {"count": 20, "seed": 3}},
    })
    out = tmp_path / "out"
    assert run(["qholo", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "qholo_report.json")
    assert rep["max_residual"] <= 1e-8
    assert rep["passed"] is True


def test_qholo_threshold_failure_writes_report(tmp_path):
    cfg = _write(tmp_path, "q.json", {
        "n": 2, "q": 1, "function": "abs2(z1)",
        "points": {"random": {"count": 20, "seed": 3}},
    })
    out = tmp_path / "out"
    assert run(["qholo", "--config", cfg, "--out", str(out)]) == 1
    rep = _read_json(out, "qholo_report.json")
    assert rep["passed"] is False
    assert rep["max_residual"] > 1e-8


def test_qholo_tol_override_changes_verdict(tmp_path):
    cfg = _write(tmp_path, "q.json", {
        "n": 2, "q": 1, "function": "abs2(z1)",
        "points": {"random": {"count": 20, "seed": 3}},
    })
    out = tmp_path / "out"
    code = run(["qholo", "--config", cfg, "--out", str(out),
                "--tol", "threshold=1e6"])
    assert code == 0


def test_qholo_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    fileio.write_points_csv(pts, [[1 + 1j, 2j], [0.5, 0.25j]])
    cfg = _write(tmp_path, "q.json", {
        "n": 2, "q": 1, "function": "z1+z2",
        "points": {"file": "pts.csv"},
    })
    out = tmp_path / "out"
    assert run(["qholo", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "qholo_report.json")
    assert rep["points"] == 2


@pytest.mark.parametrize("value", ["inf", "nan", "a"])
@pytest.mark.parametrize("command", ["hull", "qholo"])
def test_points_file_with_a_non_finite_coordinate_exits_2(tmp_path, capsys, command,
                                                          value):
    # hull's K file once reached rng.uniform, whose message named no point;
    # a field that is no number once named neither the file nor the line
    (tmp_path / "pts.csv").write_text(f"re1,im1,re2,im2\n0.5,0,0,0\n{value},0,0,0\n")
    cfg = (dict(_hull_cfg(), K={"file": "pts.csv"}) if command == "hull" else
           {"n": 2, "q": 1, "function": "z1+z2", "points": {"file": "pts.csv"}})
    err = _assert_config_error(tmp_path, capsys, command, cfg)
    assert err == ("error: pts.csv: data line 2 has a non-finite coordinate\n"
                   if value != "a" else f"error: {tmp_path / 'pts.csv'}:3: "
                   f"could not convert string to float: 'a'\n")


# ---------------------------------------------------------------------------
# hull


def _hull_cfg(k_count=32, seed=0, family_seed=2):
    fam = {"builtin": "basener", "p": ["0+0i", "0+0i"], "lambda_count": 4}
    if family_seed is not None:
        fam["seed"] = family_seed
    return {
        "n": 2,
        "seed": seed,
        "family": [fam],
        "K": {"sphere": {"p": ["0+0i", "0+0i"], "r": 1.0,
                          "count": k_count, "seed": 1}},
        "candidates": {"grid": {"center": ["0+0i", "0+0i"],
                                 "halfwidth": 0.4, "per_axis": 5,
                                 "fixed_axes": {"im1": 0.0, "re2": 0.1,
                                                "im2": 0.0}}},
    }


def test_hull_run_and_artifacts(tmp_path):
    cfg = _write(tmp_path, "h.json", _hull_cfg())
    out = tmp_path / "out"
    assert run(["hull", "--config", cfg, "--out", str(out)]) == 0
    summary = _read_json(out, "hull_summary.json")
    assert summary["candidates"] == 5
    assert summary["k_in_z_all_member"] is True
    assert summary["family"][0]["residual_bound"] <= 1e-8
    assert summary["members"] + summary["excluded"] == 5
    pts = fileio.read_points_csv(out / "hull_points.csv")
    assert pts.shape == (5, 2)


def test_hull_byte_identical_rerun(tmp_path):
    cfg = _write(tmp_path, "h.json", _hull_cfg())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["hull", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["hull", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("hull_summary.json", "hull_points.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_hull_seed_override_changes_family(tmp_path):
    # without a family-level seed the run seed drives the lambda draw
    cfg = _write(tmp_path, "h.json", _hull_cfg(family_seed=None))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["hull", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["hull", "--config", cfg, "--out", str(out2),
                "--seed", "99"]) == 0
    s1 = _read_json(out1, "hull_summary.json")
    s2 = _read_json(out2, "hull_summary.json")
    assert s1["family"][0]["name"] == s2["family"][0]["name"]
    assert s1["family"][0]["k_max"] != s2["family"][0]["k_max"]


def test_hull_numbers_basener_members_across_family_entries(tmp_path):
    # two entries of two weights each: basener[0..3], one name per member
    fam = [{"builtin": "basener", "p": ["0+0i", "0+0i"], "lambda_count": 2,
            "seed": seed} for seed in (2, 3)]
    cfg = _write(tmp_path, "h.json", dict(_hull_cfg(), family=fam))
    out = tmp_path / "out"
    assert run(["hull", "--config", cfg, "--out", str(out)]) == 0
    names = [m["name"] for m in _read_json(out, "hull_summary.json")["family"]]
    assert names == ["basener[0]", "basener[1]", "basener[2]", "basener[3]"]


@pytest.mark.parametrize("where,key,value", [
    ("grid", "halfwidth", "x"), ("grid", "halfwidth", 0),
    ("grid", "halfwidth", float("nan")), ("sphere", "seed", "x"),
    ("family", "seed", [1]), ("top", "seed", -3),
])
def test_hull_bad_halfwidth_or_seed_is_config_error(tmp_path, capsys, where, key,
                                                    value):
    cfg = _hull_cfg()
    spec = {"grid": cfg["candidates"]["grid"], "sphere": cfg["K"]["sphere"],
            "family": cfg["family"][0], "top": cfg}[where]
    spec[key] = value
    _assert_config_error(tmp_path, capsys, "hull", cfg)


def test_hull_grid_whose_size_wraps_int64_is_config_error(tmp_path, capsys):
    # 65536^4 points: an int64 product wrapped to 0 and passed the cap, and
    # building the grid raised a ValueError that escaped cli.run
    cfg = _hull_cfg()
    cfg["candidates"]["grid"].update(per_axis=65536, fixed_axes={})
    _assert_config_error(tmp_path, capsys, "hull", cfg)


def _hull_k_on_grid(tmp_path):
    """A hull config whose K file holds sphere points plus two grid
    candidates, one written with -0.0 coordinates; returns (cfg, rows)."""
    cfg = _hull_cfg()
    out = tmp_path / "grid"
    assert run(["hull", "--config", _write(tmp_path, "g.json", cfg),
                "--out", str(out)]) == 0
    lines = (out / "hull_points.csv").read_text().splitlines()
    rows = [0, 3]
    sphere = hull.sample_sphere(2, [0, 0], 1.0, 16, seed=1)
    k_lines = ["re1,im1,re2,im2"]
    k_lines += [",".join(repr(float(v)) for c in z for v in (c.real, c.imag))
                for z in sphere]
    k_lines.append(",".join(lines[1 + rows[0]].split(",")[:4]))
    neg = lines[1 + rows[1]].split(",")[:4]
    assert neg[1] == neg[3] == "0.0"
    k_lines.append(",".join([neg[0], "-0.0", neg[2], "-0.0"]))
    (tmp_path / "K.csv").write_text("\n".join(k_lines) + "\n")
    cfg["K"] = {"file": "K.csv"}
    return _write(tmp_path, "h.json", cfg), rows


def test_hull_k_in_z_flags_members(tmp_path):
    cfg, _ = _hull_k_on_grid(tmp_path)
    out = tmp_path / "out"
    assert run(["hull", "--config", cfg, "--out", str(out)]) == 0
    summary = _read_json(out, "hull_summary.json")
    assert summary["k_points"] == 18
    assert summary["k_in_z_all_member"] is True


def test_hull_k_in_z_catches_dropped_member(tmp_path, monkeypatch):
    # the -0.0 row must match its +0.0 candidate, or the drop goes unseen
    cfg, rows = _hull_k_on_grid(tmp_path)
    sweep = hull.discrete_hull

    def dropping(prob):
        res = sweep(prob)
        members = res.members.copy()
        assert members[rows[1]]
        members[rows[1]] = False
        return res._replace(members=members)

    monkeypatch.setattr(hull, "discrete_hull", dropping)
    out = tmp_path / "out"
    assert run(["hull", "--config", cfg, "--out", str(out)]) == 1
    assert _read_json(out, "hull_summary.json")["k_in_z_all_member"] is False


# ---------------------------------------------------------------------------
# thm2


def _thm2_single_cfg(z_count=20):
    return {"single": {
        "n": 2, "p": ["0+0i", "0+0i"], "r": 1.0,
        "K": {"sphere": {"p": ["0+0i", "0+0i"], "r": 1.0,
                          "count": 50, "seed": 2}},
        "z": {"count": z_count, "seed": 3},
    }}


def test_thm2_single(tmp_path):
    cfg = _write(tmp_path, "t.json", _thm2_single_cfg())
    out = tmp_path / "out"
    assert run(["thm2", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "thm2_report.json")
    assert rep["violations"] == 0
    assert rep["min_margin"] > 0


def test_thm2_batch(tmp_path):
    cfg = _write(tmp_path, "t.json", {"batch": {"configs": 10, "seed": 4}})
    out = tmp_path / "out"
    assert run(["thm2", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "thm2_report.json")
    assert rep["configs"] == 10
    assert rep["violations"] == 0


def test_thm2_precondition_is_config_error(tmp_path):
    # K sampled strictly inside B(p, r) violates the precondition
    cfg = _write(tmp_path, "t.json", {
        "single": {
            "n": 2, "p": ["0+0i", "0+0i"], "r": 2.0,
            "K": {"sphere": {"p": ["0+0i", "0+0i"], "r": 1.0,
                              "count": 10, "seed": 2}},
            "z": {"count": 5, "seed": 3},
        },
    })
    out = tmp_path / "out"
    assert run(["thm2", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "thm2_report.json").exists()


@pytest.mark.parametrize("cfg", [
    {"batch": {"configs": 0, "seed": 4}},
    _thm2_single_cfg(z_count=0),
], ids=["batch", "single"])
def test_thm2_empty_input_is_config_error(tmp_path, cfg):
    path = _write(tmp_path, "t.json", cfg)
    out = tmp_path / "out"
    assert run(["thm2", "--config", path, "--out", str(out)]) == 2
    assert not (out / "thm2_report.json").exists()


@pytest.mark.parametrize("cfg", [
    {"batch": {"ns": []}},
    {"batch": {"configs": 2, "ns": [0]}},
    {"batch": {"configs": 2, "r_range": [0.0, 0.0]}},
    {"single": {**_thm2_single_cfg()["single"], "r": 0.0}},
    *({"batch": {"configs": 2, "r_range": r_range}} for r_range in (
        "x", 1.0, [1.0], [2.0, 1.0], [0.1, 1.0, 2.0], [0.1, "x"], [0.1, None])),
    {"batch": {"configs": 1, "ns": [2], "k_count": 5, "z_count": 5,
               "r_range": [1e-100, 1e-100]}},
], ids=["batch-no-ns", "batch-n0", "batch-r0", "single-r0", "r_range-string",
        "r_range-number", "r_range-one", "r_range-reversed", "r_range-three",
        "r_range-string-entry", "r_range-null-entry", "r_range-below-floor"])
def test_thm2_invalid_config_is_config_error(tmp_path, capsys, cfg):
    # unvalidated, these crash or sample forever
    _assert_config_error(tmp_path, capsys, "thm2", cfg)


@pytest.mark.parametrize("cfg", [
    {"batch": {"configs": 3, "seed": 4}},
    _thm2_single_cfg(),
], ids=["batch", "single"])
def test_thm2_planted_fault_exits_1(tmp_path, monkeypatch, cfg):
    exact = hull._weights
    monkeypatch.setattr(hull, "_weights", lambda d, *mags: exact(d, *mags) * (1 + 1e-6))
    path = _write(tmp_path, "t.json", cfg)
    out = tmp_path / "out"
    assert run(["thm2", "--config", path, "--out", str(out)]) == 1
    assert _read_json(out, "thm2_report.json")["violations"] > 0


# ---------------------------------------------------------------------------
# peak


def test_peak_ball(tmp_path):
    cfg = _write(tmp_path, "p.json", {
        "domain": {"model": "ball", "n": 2},
        "p": ["1+0i", "0+0i"],
        "q": 1,
        "samples": {"boundary": 60, "interior": 60, "tube": 200},
        "seed": 0,
    })
    out = tmp_path / "out"
    assert run(["peak", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "peak_report.json")
    assert rep["assembled"] is True
    assert rep["passed"] is True
    for name in ("peak_value", "sup_outside", "residual", "vanish"):
        assert rep["checks"][name]["ok"] is True


def test_peak_bad_q_is_config_error(tmp_path):
    cfg = _write(tmp_path, "p.json", {
        "domain": {"model": "ball", "n": 2},
        "p": ["1+0i", "0+0i"],
        "q": 2,
    })
    out = tmp_path / "out"
    assert run(["peak", "--config", cfg, "--out", str(out)]) == 2


@pytest.mark.parametrize("cfg", [
    {"domain": {"model": "ball", "n": 3}, "p": ["1", "0", "0"], "q": 2,
     "samples": {"interior": -5}},
    {"domain": {"model": "ball", "n": 3}, "p": ["1", "0", "0"], "q": 2,
     "samples": {"boundary": 0}},
], ids=["interior-negative", "boundary-zero"])
def test_peak_nonpositive_samples_is_config_error(tmp_path, capsys, cfg):
    _assert_config_error(tmp_path, capsys, "peak", cfg)


# ---------------------------------------------------------------------------
# driver-level errors


@pytest.mark.parametrize("command,cfg", [
    ("levi", {"n": 0, "function": "z1", "points": [["0"]]}),
    ("levi", {"n": 1.5, "function": "z1", "points": [["0"]]}),
    ("classify", {"n": 0, "defining": "z1", "boundary_samples": 3}),
    ("qholo", {"n": 0, "q": 1, "function": "z1", "points": [["0"]]}),
    ("qholo", {"n": "2", "q": 1, "function": "z1", "points": [["0", "0"]]}),
    ("qholo", {"n": 0, "q": 1, "function": {"builtin": "basener"},
               "points": {"random": {"count": 3}}}),
    ("hull", {"n": 0, "family": [{"builtin": "basener"}],
              "K": {"sphere": {"r": 1.0}},
              "candidates": {"grid": {"halfwidth": 1.0, "per_axis": 2}}}),
    ("thm2", {"single": {"n": 0, "p": [], "r": 1.0,
                         "K": {"sphere": {"r": 2.0}}, "z": {"count": 5}}}),
    ("peak", {"domain": {"model": "ball", "n": 0}, "p": [], "q": 1}),
    ("peak", {"domain": {"n": 0, "defining": "z1", "box": 1.0}, "p": [],
              "q": 1}),
], ids=["levi", "levi-fraction", "classify", "qholo", "qholo-string",
        "qholo-basener", "hull", "thm2", "peak-ball", "peak-custom"])
def test_bad_dimension_is_config_error(tmp_path, capsys, command, cfg):
    _assert_config_error(tmp_path, capsys, command, cfg)


def test_overdeep_expression_is_config_error(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, "qholo", {
        "n": 1, "q": 1, "function": "(" * 3000 + "z1" + ")" * 3000,
        "points": [["0.1"]]})


@pytest.mark.parametrize("function", ["z1*" + "9" * 400,
                                      f"z1*({'9' * 200}*{'9' * 200})"],
                         ids=["literal", "fold"])
def test_overflowing_constant_is_config_error(tmp_path, capsys, function):
    _assert_config_error(tmp_path, capsys, "qholo", {
        "n": 1, "q": 1, "function": function, "points": [["0.1"]]})


def test_nested_copies_past_the_node_cap_are_config_error(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, "qholo", {
        "n": 1, "q": 1, "function": "re(" * 30 + "z1" + ")" * 30,
        "points": [["0.1"]]})


def test_qholo_long_sum_exits_0(tmp_path):
    text = "+".join(["z1"] * 5000)
    cfg = _write(tmp_path, "q.json", {
        "n": 1, "q": 1, "function": text, "points": [["0.1"], ["0.2+0.3i"]]})
    out = tmp_path / "out"
    assert run(["qholo", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "qholo_report.json")
    assert rep["function"] == text
    assert rep["passed"] is True


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "q": }')
    out = tmp_path / "out"
    assert run(["qholo", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err
    assert "line 1 column" in err
    assert not (out / "qholo_report.json").exists()


def test_missing_config_file(tmp_path, capsys):
    assert run(["qholo", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = _write(tmp_path, "q.json", {"n": 2, "q": 1, "function": "z1"})
    assert run(["qholo", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "points" in capsys.readouterr().err


def test_unknown_tol_name(tmp_path, capsys):
    cfg = _write(tmp_path, "q.json", {
        "n": 2, "q": 1, "function": "z1",
        "points": {"random": {"count": 5, "seed": 0}},
    })
    code = run(["qholo", "--config", cfg, "--out", str(tmp_path / "o"),
                "--tol", "bogus=1.0"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_tol_syntax(tmp_path, capsys):
    cfg = _write(tmp_path, "q.json", {
        "n": 2, "q": 1, "function": "z1",
        "points": {"random": {"count": 5, "seed": 0}},
    })
    assert run(["qholo", "--config", cfg, "--out", str(tmp_path / "o"),
                "--tol", "threshold"]) == 2


_BALL2_PEAK = {"domain": {"model": "ball", "n": 2}, "p": ["1", "0"], "q": 1,
               "samples": {"boundary": 40, "interior": 40, "tube": 100}}


@pytest.mark.parametrize("command,cfg", [
    ("peak", dict(_BALL2_PEAK, residual_tol="x")),
    ("peak", dict(_BALL2_PEAK, margin_min=float("inf"))),
    ("peak", dict(_BALL2_PEAK, peak_tol=float("nan"))),
    ("peak", dict(_BALL2_PEAK, residual_tol=True)),
    ("classify", {"n": 2, "defining": "abs2(z1)+abs2(z2)-1",
                  "boundary_samples": 4, "ztol": "x"}),
    ("classify", {"n": 2, "defining": "abs2(z1)+abs2(z2)-1",
                  "boundary_samples": 4, "ztol": -1.0}),
    ("levi", {"n": 2, "function": "abs2(z1)+abs2(z2)",
              "points": [["0.5", "0"]], "ztol": "x"}),
    ("levi", {"n": 2, "function": "abs2(z1)+abs2(z2)",
              "points": [["0.5", "0"]], "ztol": float("nan")}),
    ("levi", {"matrix": [["1", "0"], ["0", "-1"]], "ztol": "x"}),
    ("levi", {"matrix": [["1", "0"], ["0", "-1"]], "ztol": -1.0}),
    ("qholo", {"n": 2, "q": 1, "function": "z1", "points": [["0", "0"]],
               "threshold": [1e-8]}),
], ids=["peak-string", "peak-inf", "peak-nan", "peak-bool", "classify-string",
        "classify-negative", "levi-function-string", "levi-function-nan",
        "levi-matrix-string", "levi-matrix-negative", "qholo-list"])
def test_bad_tolerance_is_config_error(tmp_path, capsys, command, cfg):
    _assert_config_error(tmp_path, capsys, command, cfg)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tol_override_is_config_error(tmp_path, capsys, value):
    cfg = _write(tmp_path, "q.json", {
        "n": 2, "q": 1, "function": "z1", "points": [["0", "0"]]})
    out = tmp_path / "o"
    assert run(["qholo", "--config", cfg, "--out", str(out),
                "--tol", f"threshold={value}"]) == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_ztol_from_the_config_is_used(tmp_path):
    # a ztol above every eigenvalue of the matrix counts them all as zero
    cfg = _write(tmp_path, "m.json", {"n": 2, "function": "abs2(z1)+abs2(z2)",
                                      "points": [["0.5", "0"]], "ztol": 2})
    out = tmp_path / "out"
    assert run(["levi", "--config", cfg, "--out", str(out)]) == 0
    sig = _read_json(out, "levi_report.json")["points"][0]["signature"]
    assert sig == {"pos": 0, "neg": 0, "zero": 2}


def test_threads_flag_accepted(tmp_path):
    cfg = _write(tmp_path, "q.json", {
        "n": 2, "q": 1, "function": "z1",
        "points": {"random": {"count": 5, "seed": 0}},
    })
    out = tmp_path / "out"
    assert run(["qholo", "--config", cfg, "--out", str(out),
                "--threads", "4"]) == 0
    assert run(["qholo", "--config", cfg, "--out", str(out),
                "--threads", "0"]) == 2


@pytest.mark.parametrize("name", [float("nan"), 3, ["a"], None],
                         ids=["nan", "number", "list", "null"])
@pytest.mark.parametrize("site", ["classify", "hull-family", "peak-domain"])
def test_non_string_name_is_config_error(tmp_path, capsys, site, name):
    if site == "classify":
        _assert_config_error(tmp_path, capsys, "classify", {
            "n": 2, "defining": "abs2(z1)+abs2(z2)-1", "boundary_samples": 4,
            "name": name})
    elif site == "hull-family":
        _write(tmp_path, "fam.json", {"n": 2, "expr": "z1*z2", "q": 2, "name": name})
        _assert_config_error(tmp_path, capsys, "hull",
                             dict(_hull_cfg(), family=["fam.json"]))
    else:
        _assert_config_error(tmp_path, capsys, "peak", dict(_BALL2_PEAK, domain={
            "n": 2, "defining": "abs2(z1)+abs2(z2)-1", "box": 1.5,
            "convex_certified": True, "name": name}))


@pytest.mark.parametrize("value", [2.9, True, "2", float("nan")],
                         ids=["fraction", "bool", "string", "nan"])
@pytest.mark.parametrize("site", ["qholo-q", "peak-q", "family-file-q",
                                  "family-file-n", "lambda_count"])
def test_non_integer_q_n_or_lambda_count_is_config_error(tmp_path, capsys, site, value):
    # read through int(), each of these ran as a truncated integer
    if site == "qholo-q":
        _assert_config_error(tmp_path, capsys, "qholo", {
            "n": 2, "q": value, "function": "z1*z2", "points": [["0", "0"]]})
    elif site == "peak-q":
        _assert_config_error(tmp_path, capsys, "peak", dict(_BALL2_PEAK, q=value))
    elif site.startswith("family-file"):
        fam = {"n": 2, "expr": "z1*z2", "q": 2, site[-1]: value}
        _write(tmp_path, "fam.json", fam)
        _assert_config_error(tmp_path, capsys, "hull",
                             dict(_hull_cfg(), family=["fam.json"]))
    else:
        cfg = _hull_cfg()
        cfg["family"][0]["lambda_count"] = value
        _assert_config_error(tmp_path, capsys, "hull", cfg)


_LEVI_FUNCTION = {"n": 2, "function": "abs2(z1)+abs2(z2)",
                  "points": {"random": {"count": 10, "seed": 1}}}
_CLASSIFY = {"n": 2, "defining": "abs2(z1)+abs2(z2)-1", "boundary_samples": 4}
_THM2_BATCH = {"configs": 2, "ns": [2], "k_count": 5, "z_count": 5}


def _whole_key_config(site, value):
    """(command, config) with value at one config key read as an integer."""
    if site == "signature":
        return "levi", {"matrix": [["1+0i"]], "expect": {"signature": [value, 0, 0]}}
    if site in ("q", "q_max"):
        return "levi", dict(_LEVI_FUNCTION, expect={site: value})
    if site in ("strict_q", "strict_q_max"):
        return "classify", dict(_CLASSIFY, expect={site: value})
    if site in ("per_axis", "sphere-count"):
        cfg = _hull_cfg()
        if site == "per_axis":
            cfg["candidates"]["grid"]["per_axis"] = value
        else:
            cfg["K"]["sphere"]["count"] = value
        return "hull", cfg
    if site == "z-count":
        cfg = _thm2_single_cfg()
        cfg["single"]["z"]["count"] = value
        return "thm2", cfg
    return "thm2", {"batch": dict(_THM2_BATCH, **{site: [value] if site == "ns" else value})}


_COUNT_SITES = ["per_axis", "sphere-count", "z-count", "configs", "k_count", "z_count"]


@pytest.mark.parametrize("value", [2.9, True, "2", float("nan")],
                         ids=["fraction", "bool", "string", "nan"])
@pytest.mark.parametrize("site", ["signature", "q", "q_max", "strict_q",
                                  "strict_q_max", "ns", *_COUNT_SITES])
def test_non_integer_expectation_or_count_is_config_error(tmp_path, capsys, site, value):
    # read through int(), each of these ran as a truncated integer
    _assert_config_error(tmp_path, capsys, *_whole_key_config(site, value))


@pytest.mark.parametrize("site", _COUNT_SITES)
def test_count_past_its_cap_is_config_error(tmp_path, capsys, site):
    _assert_config_error(tmp_path, capsys, *_whole_key_config(site, 2 ** 40))


def test_hull_with_huge_coordinates_raises_no_warning(tmp_path):
    # a grid centred at 1e308: the K-in-Z check rounds its coordinates, and
    # no numpy overflow warning may reach stderr
    cfg = _hull_cfg()
    cfg["candidates"]["grid"]["center"] = ["1e308+0i", "1e308+0i"]
    path = _write(tmp_path, "h.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hull", "--config", path, "--out", str(tmp_path / "out")]) == 0
    summary = _read_json(tmp_path / "out", "hull_summary.json")
    assert summary["candidates"] == 5 and summary["k_in_z_all_member"] is True


def test_hull_with_a_huge_k_sphere_prints_one_error_line(tmp_path, capsys):
    # r = 1e300 passes its reader but overflows the family's values on K:
    # exit 2, and no overflow warning from the certification points'
    # distance check comes before the error line
    cfg = _hull_cfg()
    cfg["K"]["sphere"]["r"] = 1e300
    path = _write(tmp_path, "h.json", cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hull", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(out.iterdir())


def test_hull_with_k_near_the_float_limit_is_config_error(tmp_path, capsys):
    # K around 1e308 makes the certification box's range overflow, and
    # numpy's OverflowError escaped cli.run
    cfg = _hull_cfg()
    cfg["K"]["sphere"]["p"] = ["1e308+0i", "0+0i"]
    _assert_config_error(tmp_path, capsys, "hull", cfg)


@pytest.mark.parametrize("n, center, fixed", [
    (2, [0.25 - 0.5j, -1.0], {}),
    (2, [0.25 - 0.5j, -1.0], {"im1": 0.0, "re2": 0.1, "im2": 0.0}),
    (2, [0.0, 0.5j], {"re1": -0.0, "im2": -0.0}),
    (3, [1.0, -2.0j, 0.5 + 0.5j], {"re2": -0.0, "im3": 3.5}),
], ids=["free", "fixed", "negative-zero", "n3"])
def test_grid_candidates_equal_the_meshgrid_construction(n, center, fixed):
    # -0.0 on a fixed real axis gives meshgrid's re + 1j * im zero signs,
    # which depend on the sign of the imaginary part
    spec = {"grid": {"center": [fileio.format_complex(c) for c in center],
                     "halfwidth": 0.75, "per_axis": 6, "fixed_axes": fixed}}
    got, axes, idx = cli._CANDIDATES(spec, "candidates", {"n": n})
    want = grid_candidates_reference(np.array(center, dtype=complex), 0.75, 6, fixed)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the index rebuilds every coordinate column from its axis (== sees
    # through zero signs), the writer's and the K-in-Z check's input
    assert idx.dtype == np.uint8 and idx.shape == (2 * n, len(got))
    for col, axis, at in zip(got.view(float).T, axes, idx):
        assert np.array_equal(col, axis[at])


def test_grid_whose_axes_overflow_is_config_error(tmp_path, capsys):
    # center + halfwidth past the float limit made inf and nan candidates,
    # with numpy warnings on stderr
    cfg = _hull_cfg()
    cfg["candidates"]["grid"].update(center=["1.7976931348623157e308+0i", "0+0i"],
                                     halfwidth=1e300, fixed_axes={})
    assert "grid axes overflow" in _assert_config_error(tmp_path, capsys, "hull", cfg)


def _k_in_z_reference(K, Z, members):
    """Every candidate row whose rounded coordinates are a K point's is a
    member: the check over all rows, with no prefilter."""
    k_rows = set(map(tuple, cli._key(K.view(float).reshape(len(K), -1)).tolist()))
    z_rows = cli._key(Z.view(float).reshape(len(Z), -1)).tolist()
    return all(m for m, row in zip(members.tolist(), z_rows) if tuple(row) in k_rows)


@pytest.mark.parametrize("shift, expected", [
    (0.0, False), (1e-12, None), (-1e-12, None), (4e-13, None), (1e-11, True)])
def test_grid_keyed_k_in_z_check_equals_the_row_check(tmp_path, monkeypatch, shift, expected):
    # K holds grid points and sphere points; two of the grid points are
    # shifted by about 1e-12 in one coordinate, a near miss or a match after
    # rounding to 12 decimals.  Forcing their grid rows out of the hull
    # makes the check read whether they match
    grid = {"center": ["0.1+0.2i", "-0.3+0i"], "halfwidth": 0.4, "per_axis": 5,
            "fixed_axes": {"im2": -0.0}}
    Z, _, _ = cli._CANDIDATES({"grid": grid}, "candidates", {"n": 2})
    planted = Z[[0, 7, 31, 74]].copy()
    planted[1:3, 0] += shift
    fileio.write_points_csv(str(tmp_path / "k.csv"), np.concatenate(
        [planted, hull.sample_sphere(2, np.zeros(2), 1.0, 20, seed=3)]))
    K = fileio.read_points_csv(str(tmp_path / "k.csv"))
    discrete_hull, seen = hull.discrete_hull, []

    def spy(prob):
        res = discrete_hull(prob)
        members = res.members.copy()
        members[[7, 31]] = False
        seen.append(members)
        return res._replace(members=members)

    monkeypatch.setattr(hull, "discrete_hull", spy)
    path = _write(tmp_path, "h.json", dict(_hull_cfg(), K={"file": "k.csv"},
                                           candidates={"grid": grid}))
    code = run(["hull", "--config", path, "--out", str(tmp_path / "out")])
    want = _k_in_z_reference(K, Z, seen[0])
    assert _read_json(tmp_path / "out", "hull_summary.json")["k_in_z_all_member"] is want
    assert code == (0 if want else 1)
    assert expected is None or want is expected


def test_k_in_z_check_keeps_huge_coordinates_apart(tmp_path):
    # the K point 1e300 is not the candidate 2e300 (no member), though
    # scaling both by 1e12 to round them overflows to inf
    fileio.write_points_csv(str(tmp_path / "k.csv"), np.array([[1e300, 0]], dtype=complex))
    _write(tmp_path, "fam.json", {"n": 2, "expr": "z1", "q": 1})
    path = _write(tmp_path, "h.json", {
        "n": 2, "family": ["fam.json"], "K": {"file": "k.csv"},
        "candidates": {"grid": {"center": ["2e300+0i", "0+0i"], "halfwidth": 0.5,
                                 "per_axis": 1}}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hull", "--config", path, "--out", str(tmp_path / "out")]) == 0
    summary = _read_json(tmp_path / "out", "hull_summary.json")
    assert summary["members"] == 0 and summary["k_in_z_all_member"] is True


def test_string_names_reach_the_reports(tmp_path):
    _write(tmp_path, "fam.json", {"n": 2, "expr": "z1*z2", "q": 2, "name": "f"})
    cfg = _write(tmp_path, "h.json", dict(_hull_cfg(), family=["fam.json"]))
    assert run(["hull", "--config", cfg, "--out", str(tmp_path / "h")]) == 0
    assert _read_json(tmp_path / "h", "hull_summary.json")["family"][0]["name"] == "f"
    cfg = _write(tmp_path, "c.json", {"n": 2, "defining": "abs2(z1)+abs2(z2)-1",
                                      "boundary_samples": 4, "name": "sphere"})
    assert run(["classify", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert _read_json(tmp_path / "c", "classify_report.json")["name"] == "sphere"
    cfg = _write(tmp_path, "p.json", dict(_BALL2_PEAK, domain={
        "n": 2, "defining": "abs2(z1)+abs2(z2)-1", "box": 1.5,
        "convex_certified": True, "name": "disc"}))
    assert run(["peak", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    assert _read_json(tmp_path / "p", "peak_report.json")["domain"]["name"] == "disc"


def test_tol_override_does_not_leak_into_the_next_run(tmp_path):
    # the parser is built once per process; the --tol list must start empty
    # on every run
    cfg = _write(tmp_path, "p.json", _BALL2_PEAK)
    out = tmp_path / "out"
    tols = []
    for extra in (["--tol", "residual_tol=1e-3"], []):
        assert run(["peak", "--config", cfg, "--out", str(out), *extra]) == 0
        tols.append(_read_json(out, "peak_report.json")["checks"]["residual"]["tol"])
    assert tols == [1e-3, 1e-5]


# ---------------------------------------------------------------------------
# numbers read through typed readers


def _number_key_config(site, value):
    """(command, config) with value at one config key read as a positive number."""
    if site == "sphere-r":
        cfg = _hull_cfg()
        cfg["K"]["sphere"]["r"] = value
        return "hull", cfg
    if site in ("single-r", "single-sphere-r"):
        cfg = _thm2_single_cfg()
        (cfg["single"] if site == "single-r" else cfg["single"]["K"]["sphere"])["r"] = value
        return "thm2", cfg
    if site == "r_range":
        return "thm2", {"batch": dict(_THM2_BATCH, r_range=[value, 2.0])}
    if site == "radius":
        return "peak", dict(_BALL2_PEAK, domain={"model": "ball", "n": 2, "radius": value})
    if site == "box":
        return "peak", dict(_BALL2_PEAK, domain={
            "n": 2, "defining": "abs2(z1)+abs2(z2)-1", "box": value,
            "convex_certified": True})
    return "peak", dict(_BALL2_PEAK, **{site: value})


_BAD_POSITIVE = ["x", -1.0, 0, True, [], float("nan"), float("inf"), 1e308]
_BAD_POSITIVE_IDS = ["string", "negative", "zero", "bool", "list", "nan", "inf", "1e308"]


@pytest.mark.parametrize("value", _BAD_POSITIVE, ids=_BAD_POSITIVE_IDS)
@pytest.mark.parametrize("site", ["sphere-r", "single-r", "single-sphere-r", "r_range",
                                  "radius", "box", "c", "rho_V", "r"])
def test_bad_positive_number_is_config_error(tmp_path, capsys, site, value):
    # read through float(), "x" escaped cli.run as a traceback and -1.0 ran
    _assert_config_error(tmp_path, capsys, *_number_key_config(site, value))


@pytest.mark.parametrize("fixed", [{"re2": "x"}, {"re2": True}, {"re2": []},
                                   {"re2": None}, {"re2": float("nan")},
                                   {"re2": float("inf")}, ["re2"], "re2"])
def test_bad_fixed_axes_are_config_error(tmp_path, capsys, fixed):
    cfg = _hull_cfg()
    cfg["candidates"]["grid"]["fixed_axes"] = fixed
    _assert_config_error(tmp_path, capsys, "hull", cfg)


def test_number_readers_keep_valid_values(tmp_path):
    cfg = _hull_cfg()
    cfg["candidates"]["grid"]["fixed_axes"]["re2"] = -1
    cfg["K"]["sphere"]["r"] = 2
    assert run(["hull", "--config", _write(tmp_path, "h.json", cfg),
                "--out", str(tmp_path / "h")]) == 0
    cfg = {"batch": dict(_THM2_BATCH, r_range=[1, 1])}
    assert run(["thm2", "--config", _write(tmp_path, "t.json", cfg),
                "--out", str(tmp_path / "t")]) == 0
    cfg = dict(_BALL2_PEAK, c=2, rho_V=1, r=0.25,
               domain={"model": "ball", "n": 2, "radius": 1})
    assert run(["peak", "--config", _write(tmp_path, "p.json", cfg),
                "--out", str(tmp_path / "p")]) in (0, 1)
    rep = _read_json(tmp_path / "p", "peak_report.json")
    assert (rep["c"], rep["rho_V"]) == (2.0, 1.0)


@pytest.mark.parametrize("count", [MAX_SAMPLES + 1, 2 ** 40], ids=["cap+1", "2^40"])
@pytest.mark.parametrize("key", ["boundary", "interior", "tube"])
def test_peak_samples_past_the_cap_are_config_error(tmp_path, capsys, key, count):
    # uncapped, 2^40 ended in MemoryError
    _assert_config_error(tmp_path, capsys, "peak", dict(_BALL2_PEAK, samples={key: count}))


@pytest.mark.parametrize("domain", [
    {"model": "ellipsoid", "a": [[1.0], 2.0]},
    {"model": "ellipsoid", "a": [1.0, 2.0], "b": [0.0, [0.5]]},
    {"model": "ellipsoid", "a": 1.0},
    {"model": "ellipsoid", "a": [1.0, "x"]},
    {"model": "ellipsoid", "a": [1.0, 2.0], "b": [float("nan"), 0.0]},
], ids=["a-list-entry", "b-list-entry", "a-number", "a-string-entry", "b-nan"])
def test_bad_ellipsoid_coefficients_are_config_error(tmp_path, capsys, domain):
    # float() of a list entry, or len() of a number, escaped cli.run as a
    # TypeError
    _assert_config_error(tmp_path, capsys, "peak", dict(_BALL2_PEAK, domain=domain))


@pytest.mark.parametrize("cfg", [
    dict(_BALL2_PEAK, c=1e300),
    dict(_BALL2_PEAK, domain={"model": "ball", "n": 2, "radius": 1e200}),
    dict(_BALL2_PEAK, domain={"n": 2, "defining": "abs2(z1)+abs2(z2)-1",
                              "box": 1e-300, "convex_certified": True}),
], ids=["c-overflows", "radius-squared-overflows", "box-too-small"])
def test_peak_numbers_the_steps_cannot_use_are_config_error(tmp_path, capsys, cfg):
    # within their readers' ranges, these escaped cli.run: an EvalError from
    # the verification, an OverflowError and a stalled boundary sampler
    _assert_config_error(tmp_path, capsys, "peak", cfg)


# ---------------------------------------------------------------------------
# config shapes: structure, file references and caps


@pytest.mark.parametrize("command,cfg,named", [
    ("qholo", {"n": 2, "q": 1, "function": "z1*z2", "points": {"random": 5}},
     "points.random"),
    ("peak", dict(_BALL2_PEAK, samples=5), "samples"),
    ("thm2", {"batch": [1]}, "batch"),
    ("qholo", {"n": 2, "q": 1, "function": "z1*z2", "points": [1]}, "points[0]"),
    ("hull", dict(_hull_cfg(), family=[{"builtin": "basener",
                                        "p": [float("nan"), "0"]}]), "family[0].p"),
    ("levi", {"n": 2, "function": "abs2(z1)", "points": [["0", "0"]], "ztoll": 1},
     "ztoll"),
    ("qholo", {"n": 2, "q": 1, "function": "z1",
               "points": {"random": {"count": 4, "cuont": 5}}}, "cuont"),
    ("qholo", {"n": 2, "q": 1, "function": "z1*z2", "points": [[True, False]]},
     "points[0][0]: not a complex number: True"),
    ("peak", dict(_BALL2_PEAK, p=[True, 0]), "p[0]: not a complex number: True"),
], ids=["points-random-scalar", "peak-samples-scalar", "thm2-batch-list",
        "points-list-of-scalars", "family-p-nan", "unknown-key", "unknown-nested-key",
        "point-bools", "peak-p-bool"])
def test_structural_errors_are_config_errors(tmp_path, capsys, command, cfg, named):
    # each escaped cli.run (AttributeError, TypeError, the library's
    # ValueError), or, for the unknown keys, was ignored; a boolean
    # coordinate, a Python int, ran as 1 or 0
    assert named in _assert_config_error(tmp_path, capsys, command, cfg)


def _unreadable(tmp_path, kind):
    """A file reference that names no readable JSON file."""
    if kind == "directory":
        (tmp_path / "d").mkdir()
        return "d"
    if kind == "empty-name":
        return ""
    (tmp_path / "bad.json").write_bytes({
        "utf16-bom": b"\xff\xfe{\x00}\x00", "deep": b"[" * 100_000,
        "long-int": b"1" * 5000}[kind])
    return "bad.json"


@pytest.mark.parametrize("kind", ["directory", "utf16-bom", "empty-name", "deep",
                                  "long-int"])
@pytest.mark.parametrize("site", ["config", "family", "domain"])
def test_unreadable_files_are_config_errors(tmp_path, capsys, site, kind):
    # an IsADirectoryError, UnicodeDecodeError, RecursionError or ValueError
    # from the JSON reader escaped cli.run
    ref = _unreadable(tmp_path, kind)
    if site == "family":
        _assert_config_error(tmp_path, capsys, "hull", dict(_hull_cfg(), family=[ref]))
    elif site == "domain":
        _assert_config_error(tmp_path, capsys, "peak", dict(_BALL2_PEAK, domain=ref))
    else:
        out = tmp_path / "out"
        config = str(tmp_path / ref) if ref else ref
        assert run(["qholo", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def test_grid_past_the_cap_is_rejected_before_it_is_built(tmp_path, capsys):
    # the 2n linspace axes of MAX_GRID points each took 97 MB before the
    # grid total was checked
    cfg = _hull_cfg()
    cfg["candidates"]["grid"].update(per_axis=cli.MAX_GRID, fixed_axes={})
    path = _write(tmp_path, "h.json", cfg)
    tracemalloc.start()
    try:
        code = run(["hull", "--config", path, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "fix more axes" in capsys.readouterr().err
    assert peak < 1 << 20


_N_SITES = {
    "levi": ("levi", lambda n: {"n": n, "function": "abs2(z1)", "points": [["0"] * n]}),
    "classify": ("classify", lambda n: dict(_CLASSIFY, n=n)),
    "qholo": ("qholo", lambda n: {"n": n, "q": 1, "function": "z1",
                                  "points": [["0"] * n]}),
    "hull": ("hull", lambda n: dict(_hull_cfg(), n=n, family=[{"builtin": "basener"}])),
    "thm2-single": ("thm2", lambda n: {"single": dict(
        _thm2_single_cfg()["single"], n=n, p=["0"] * n, K={"sphere": {"r": 2.0}})}),
    "thm2-ns": ("thm2", lambda n: {"batch": dict(_THM2_BATCH, ns=[2, n])}),
    "peak-ball": ("peak", lambda n: {"domain": {"model": "ball", "n": n},
                                     "p": ["1"] + ["0"] * (n - 1), "q": 1}),
    "peak-ellipsoid": ("peak", lambda n: {"domain": {"model": "ellipsoid", "a": [1.0] * n},
                                          "p": ["1"] + ["0"] * (n - 1), "q": 1}),
}


@pytest.mark.parametrize("site", sorted(_N_SITES))
def test_dimension_past_max_n_is_config_error(tmp_path, capsys, site, monkeypatch):
    command, make = _N_SITES[site]
    env = {"dir": str(tmp_path), "--seed": None}
    # reading the config at MAX_N passes every dimension check (hull's
    # basener family is capped by its residual form instead)
    if site != "hull":
        monkeypatch.setattr(hull, "sample_sphere", lambda n, *args: np.ones((1, n)))
        cli._SHAPES[command](make(cli.MAX_N), "", env)
    _assert_config_error(tmp_path, capsys, command, make(cli.MAX_N + 1))


@pytest.mark.parametrize("command,cfg", [
    ("qholo", {"n": 30, "q": 15, "function": "z1", "points": [["0"] * 30]}),
    ("hull", {"n": 11, "family": [{"builtin": "basener"}], "K": {"sphere": {"r": 1.0}},
              "candidates": {"grid": {"halfwidth": 1.0, "per_axis": 1}}}),
    ("hull", {"n": 30, "family": ["fam.json"], "K": {"sphere": {"r": 1.0}},
              "candidates": {"grid": {"halfwidth": 1.0, "per_axis": 1}}}),
    ("peak", {"domain": {"model": "ball", "n": 20}, "p": ["1"] + ["0"] * 19, "q": 10}),
], ids=["qholo", "hull-basener", "hull-function-file", "peak"])
def test_residual_form_past_the_cap_is_rejected_unbuilt(tmp_path, capsys, command, cfg):
    # n=30, q=15 asked for gather tables of C(30, 15) ~ 1.5e8 subsets
    _write(tmp_path, "fam.json", {"n": 30, "expr": "z1", "q": 15})
    built = forms._insertion_table.cache_info().misses
    err = _assert_config_error(tmp_path, capsys, command, cfg)
    assert f"above {cli.MAX_FORM}" in err
    assert forms._insertion_table.cache_info().misses == built
    for n, q in [(5, 5), (4, 4), (10, 5), (2, 2)]:    # perfbench's and the tests'
        assert forms.form_width(n, q) <= cli.MAX_FORM
