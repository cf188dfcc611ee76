"""qholo benchmark: CLI workloads timed end to end, layers from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of jets-lowdim, wedge-highdim, peak-hull, or all.  The workload's
configs are generated from --seed (see workloads.py).  The run is a closed
loop with one client: each iteration starts a fresh Python process
(worker.py) that imports qholo and runs the workload's CLI steps one after
another through `qholo.cli.run`; the next iteration starts when the last
one has exited, until --seconds have passed.  Every step's exit code and
report are checked, and every iteration's artifacts must be byte-identical
to the first iteration's.

With --trace 0 the run reports the end-to-end metrics, medians over the
iterations: wall_s (all steps of one iteration), setup_s (process start until
qholo.cli is imported) and peak_rss_mb (max RSS of the worker).  The detail
line adds each subcommand's time (qholo_s, levi_s, ...).  With --trace 1
every second iteration is traced from outside (spans.py) and the run reports
the per-layer metrics; trace.overhead_s is the median traced minus the median
untraced wall_s.

The second-to-last line of output is a detail object (seed, environment,
sample counts and high percentiles, per-subcommand times, fail_frac,
failures).  The last line is the result: {"correct", "attempted", "failed",
"metrics"}.  With --workload all each workload prints its detail and result
lines, and the last line combines them, metrics named WORKLOAD/METRIC.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORK = os.path.join(ROOT, ".bench_work")
WORKER_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment():
    """Python and numpy versions, CPU count and model, commit if known."""
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def summary(values):
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank; None below eleven samples), and the sample count."""
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = sorted(values)[math.ceil(pct / 100 * n) - 1]
    return out


def spawn(spec_path, result_path, traced, deadline):
    """Run one worker; return (seconds to ready, max RSS in MB, result or None)."""
    for path in (result_path, result_path + ".spans"):
        if os.path.exists(path):
            os.remove(path)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, spec_path, result_path, "1" if traced else "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, None, None
    with open(result_path) as fh:
        result = json.load(fh)
    return result["ready"] - t0, usage.ru_maxrss / 1024.0, result


def run_workload(workload, seed, seconds, trace):
    """Run one workload for `seconds`; return (detail, result) dicts."""
    started = time.monotonic()
    deadline = started + WORKER_TIMEOUT_S
    work_dir = os.path.join(WORK, workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    steps = workloads.build(workload, seed, work_dir)
    spec_path = os.path.join(work_dir, "steps.json")
    with open(spec_path, "w") as fh:
        json.dump([s["argv"] for s in steps], fh)
    empty_path = os.path.join(work_dir, "empty.json")
    with open(empty_path, "w") as fh:
        json.dump([], fh)
    result_path = os.path.join(work_dir, "result.json")

    # An import-only worker first, so every timed one finds compiled bytecode.
    if spawn(empty_path, result_path, False, deadline)[2] is None:
        sys.exit("benchmark worker failed to import qholo from " + ROOT)

    iters = []
    first_digests = None
    failures = []
    begun = time.monotonic()
    while True:
        traced = trace and len(iters) % 2 == 1
        for s in steps:
            shutil.rmtree(s["out"], ignore_errors=True)
        setup, rss, result = spawn(spec_path, result_path, traced, deadline)
        it = {"traced": traced, "setup_s": setup, "rss_mb": rss,
              "failed": 0, "steps": [None] * len(steps)}
        digests = []
        for i, s in enumerate(steps):
            if result is None:
                bad = ["worker died or timed out"]
            else:
                r = result["steps"][i]
                it["steps"][i] = r["seconds"]
                bad = workloads.check_step(s, r["exit"])
                if r["error"]:
                    bad.append(r["error"].strip().splitlines()[-1])
            d = workloads.digest(s["out"]) if os.path.isdir(s["out"]) else None
            digests.append(d)
            if first_digests is not None and d != first_digests[i]:
                bad.append("artifacts differ from the first iteration")
            if bad:
                it["failed"] += 1
                failures.append(f"iteration {len(iters)} {s['name']}: {'; '.join(bad)}")
        if first_digests is None:
            first_digests = digests
        if traced and result is not None:
            with open(result_path + ".spans") as fh:
                it["layers"], it["self_sum_s"] = spans.layer_metrics(json.load(fh))
        iters.append(it)
        now = time.monotonic()
        if result is None or now > deadline:
            break
        if now - begun >= seconds and len(iters) >= (2 if trace else 1):
            break

    attempted = len(steps) * len(iters)
    failed = sum(it["failed"] for it in iters)
    ok = [it for it in iters if it["failed"] == 0]
    plain = [it for it in ok if not it["traced"]]
    walls = [sum(it["steps"]) for it in plain]
    per_sub = {f"{sub}_s": [sum(t for t, s in zip(it["steps"], steps) if s["sub"] == sub)
                            for it in plain]
               for sub in dict.fromkeys(s["sub"] for s in steps)}
    timings = {
        "wall_s": summary(walls),
        "setup_s": summary([it["setup_s"] for it in ok]),
        "peak_rss_mb": summary([it["rss_mb"] for it in plain]),
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(),
        "steps": [s["name"] for s in steps],
        "iterations": len(iters),
        "elapsed_s": time.monotonic() - started,
        "end_to_end": {
            **{k: dict(v, unit=END_TO_END[k]) for k, v in timings.items()},
            **{k: dict(summary(v), unit="s") for k, v in per_sub.items()},
            "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        },
        "samples": {"wall_s": walls, "setup_s": [it["setup_s"] for it in ok]},
        "failures": failures[:20],
    }
    metrics = {}
    if not trace:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": timings[name]["median"], "unit": unit}
    else:
        traced_its = [it for it in ok if it["traced"]]
        if traced_its and plain:
            layers = [it["layers"] for it in traced_its]
            detail["counts_repeat"] = all(
                l[k] == layers[0][k] for l in layers for k in spans.COUNT_METRICS)
            traced_walls = [sum(it["steps"]) for it in traced_its]
            detail["samples"]["traced_wall_s"] = traced_walls
            detail["samples"]["self_sum_s"] = [it["self_sum_s"] for it in traced_its]
            for name, (unit, _) in spans.LAYER_METRICS.items():
                if name == "trace.overhead_s":
                    value = statistics.median(traced_walls) - statistics.median(walls)
                elif unit == "s":
                    value = statistics.median(l[name] for l in layers)
                else:
                    value = layers[0][name]
                metrics[name] = {"value": value, "unit": unit}
    # a metric without a successful sample makes the run incorrect
    correct = (failed == 0 and bool(metrics)
               and all(m["value"] is not None for m in metrics.values()))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qholo", "cli.py")):
        sys.exit(f"no qholo sources under {os.path.join(ROOT, 'src')}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        detail, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(detail, sort_keys=True))
        results[name] = result
        if args.workload == "all":
            print(json.dumps(result, sort_keys=True))
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
