"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric named in BENCHMARK.json is reported with its
unit, and that the correctness gate can fail: a wrong expected check
count, a failing check and missing sources each make the command exit
non-zero.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import HERE, ROOT, WORKLOADS


def _bench(root, workload, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc.returncode, result


def _checkout(tmp_path, with_src=True):
    """A copy of the files the benchmark runs from, to plant faults in."""
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, root / "perfbench", ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src", ignore=skip)
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    code, result = _bench(ROOT, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_a_changed_check_count_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    path = root / "perfbench" / "expected_checks.json"
    expected = json.loads(path.read_text())
    expected["tiny"]["braid-generic"] += 1
    path.write_text(json.dumps(expected))
    code, result = _bench(root, "braid-generic")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 0


def test_a_failing_check_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    path = root / "src" / "tlcat" / "morphism.py"
    text = path.read_text()
    # a wrong crossing coefficient: q^(-3/2) e_i in place of q^(-1/2) e_i in t_i
    planted = text.replace("e_diagram(i, n): dom.s_power(-2),", "e_diagram(i, n): dom.s_power(-6),", 1)
    assert planted != text
    path.write_text(planted)
    code, result = _bench(root, "braid-generic")
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_without_sources_the_run_fails_and_reports_nothing(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "braid-generic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
