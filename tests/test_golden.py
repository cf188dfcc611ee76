"""Golden artifact digests: the criterion-9 CLI fixtures' outputs, pinned.

golden_digests.json holds the sha256 of each fixture's out directory (the
rule of perfbench/workloads.digest: artifact names and bytes, in name
order) and the environment the digests were made in: numpy's version, the
BLAS/LAPACK build numpy links and the SIMD extensions numpy dispatches to.
Any of these can move the last bit of a float, and so an artifact's bytes.

Rule: in the recorded environment every digest must match.  In any other
environment the test is skipped, with a reason that names both
environments; it never passes there, so a mismatch is never reported as a
pass.  A change that alters an artifact on purpose, or moves the recorded
environment, regenerates the file and says so:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import hashlib
import json
import os

import numpy as np
import pytest

from qholo.cli import run as cli_run

from helpers import cli_fixtures

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")


def environment():
    env = {"numpy": np.__version__}
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:       # numpy before 1.26 only prints its build
        return env
    lapack = cfg["Build Dependencies"]["lapack"]
    env["lapack"] = f"{lapack.get('name')} {lapack.get('version')}"
    env["simd"] = cfg["SIMD Extensions"]["found"]
    return env


def digest(out_dir):
    """sha256 over the names and bytes of every artifact in out_dir."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def fixture_digests(base):
    """{fixture name: digest of its out directory}, each run with --seed 42."""
    digests = {}
    for name, sub, cfg in cli_fixtures():
        cfg_path, out = (os.path.join(base, name + ext) for ext in (".json", ""))
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        cli_run([sub, "--config", cfg_path, "--out", out, "--seed", "42"])
        digests[name] = digest(out)
    return digests


def test_fixture_artifacts_match_their_golden_digests(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    here = environment()
    if golden["environment"] != here:
        pytest.skip(f"digests were made under {golden['environment']}, "
                    f"this is {here}: regenerate to compare")
    assert fixture_digests(str(tmp_path)) == golden["digests"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as base:
        record = {"environment": environment(), "digests": fixture_digests(base)}
    with open(GOLDEN, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
