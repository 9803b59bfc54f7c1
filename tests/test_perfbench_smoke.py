"""Smoke test of the benchmark: its self-test, then one short run of each
workload, each in a subprocess as the benchmark is run from the command
line.  A run that fails or reports a wrong result fails here first."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_selftest_passes():
    done = _run("perfbench/selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_is_correct(workload):
    done = _run("perfbench/run.py", "--workload", workload, "--seed", "3",
                "--seconds", "0.1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stderr
