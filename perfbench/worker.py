"""One benchmark iteration in a fresh process: import qholo, run the steps.

Usage: python3 worker.py SPEC.json RESULT.json TRACE(0|1)

SPEC holds the steps' CLI argument lists.  The worker records when
`qholo.cli` is imported and ready (on the system-wide monotonic clock, so
the parent can subtract its own spawn time), runs each step through
`qholo.cli.run` one after another, and writes the exit code, error and wall
time of every step to RESULT.  With TRACE 1 it wraps qholo's public
functions first and writes the spans next to RESULT.
"""

import json
import os
import sys
import time
import traceback


def main():
    spec_path, result_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import qholo.cli
    ready = time.monotonic()
    if not os.path.abspath(qholo.cli.__file__).startswith(src + os.sep):
        sys.exit(f"qholo imported from {qholo.cli.__file__}, not from {src}")
    with open(spec_path) as fh:
        argvs = json.load(fh)

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(qholo)
    run = qholo.cli.run    # the wrapped binding when tracing
    steps = []
    for argv in argvs:
        error = None
        t0 = time.perf_counter()
        try:
            code = run(argv)
        except SystemExit as e:    # argparse rejecting the argv
            code = e.code
            error = f"SystemExit({e.code!r})"
        except Exception:
            code = None
            error = traceback.format_exc(limit=-3)
        steps.append({"exit": code, "error": error,
                      "seconds": time.perf_counter() - t0})
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(result_path + ".spans")
    with open(result_path, "w") as fh:
        json.dump({"ready": ready, "steps": steps}, fh)


if __name__ == "__main__":
    main()
