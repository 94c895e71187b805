"""The names the benchmark in perfbench/ uses still exist and still work.

perfbench/workloads.py and perfbench/tracer.py call into tlcat by name; a
change that deletes or renames one of those names must fail here, not
only when the benchmark runs.  Each workload runs at size "tiny".
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

import tlcat.morphism

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
with open(os.path.join(PERFBENCH, "expected_checks.json"), encoding="utf-8") as fh:
    EXPECTED_CHECKS = json.load(fh)["tiny"]
INPUT_IDS = {
    "braid-generic": "seed=0",
    "fusion-rational": "s=5/3",
    "roots-cyclotomic": "fixed",
    "integrable-spectral": "seed=0",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name):
    setup, run = workloads.WORKLOADS[name]
    setup(0, "tiny")
    rep = run(0, "tiny")
    assert rep.ok, rep.failures()[:3]
    assert len(rep.cases) == EXPECTED_CHECKS[name]
    assert workloads.input_id(name, 0) == INPUT_IDS[name]


@pytest.mark.parametrize("mode", ["env", "trace"])
def test_worker_resolves_every_target(mode):
    # "env" reads the environment block, "trace" wraps every tracer target
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), mode,
         "braid-generic", "0", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode == "trace":
        assert out["ok"] is True
        assert out["checks"] == EXPECTED_CHECKS["braid-generic"]
        # the tracer binds each commutor call to the builder's signature:
        # a signature it cannot bind fails here, not only in a benchmark run
        assert out["counts"]["braid.commutor.calls"] == 325
        assert out["counts"]["braid.commutor.distinct"] == 15


def test_planted_fault_target_is_unique():
    # perfbench/test_perfbench.py plants its fault by rewriting this exact
    # line of the crossing; rewording it would silently unplant the fault
    assert inspect.getsource(tlcat.morphism.t).count(
        "e_diagram(i, n): dom.s_power(-2),") == 1
