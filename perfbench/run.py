"""Layered benchmark of the tlcat exact verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every sample is a fresh interpreter started by this process, one at a time
(a closed loop with one caller), so caches start cold as they do for a
``tlcat verify`` call.

``--trace 0`` samples the workload until ``--seconds`` are spent and
reports the median set-up time, time to verdict and peak RSS.  Times are
given at a fixed reference speed: each sample's seconds are scaled by
REFERENCE_S over the mean time of the speed probes the worker ran during
that sample (see worker.py).  The machines this runs on share cores with
other tenants and change speed by up to 1.6x for tens of seconds at a
time: raw times of one sample vary by about 12% (coefficient of
variation), scaled ones by under 5%.  The raw medians are printed too.  ``--trace 1``
runs it once untraced and at least twice traced and reports per-layer call
counts, self times and counters, and the tracing overhead.  Either way the
run fails, and the command exits 1, if a check fails, if the number of
checks differs from ``expected_checks.json``, or if two samples of the
seed disagree on report bytes or traced counts.  ``--workload all`` runs
every workload in turn and prints only the summaries.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("braid-generic", "fusion-rational", "roots-cyclotomic", "integrable-spectral")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
SETUP_SAMPLES = 8  # set-up only samples per run, on top of one per workload sample
# a speed probe's time on the 2-core Xeon the numbers in trajectory/ come
# from; it only sets the scale, as all comparisons are ratios
REFERENCE_S = 0.005
RUN_LIMIT_S = 170  # a sample still running this long after the run began is killed


class BenchError(Exception):
    """A sample could not be taken; the run has no result."""


def _stamp() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Sampler:
    """Starts worker processes one at a time and parses what they print."""

    def __init__(self, workload: str, seed: int, size: str):
        self.args = [workload, str(seed), size]
        self.started = time.monotonic()

    def sample(self, mode: str) -> dict:
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("run time limit reached")
        # one string-hash seed, so that every sample iterates sets alike
        env = dict(os.environ, PYTHONHASHSEED="0")
        t_spawn = _stamp()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), mode, *self.args],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} sample did not finish in {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s_raw"] = (out["setup_done_ns"] - t_spawn) / 1e9
        out["speed"] = REFERENCE_S / statistics.fmean(out["reference_s"])
        out["setup_s"] = out["setup_s_raw"] * out["speed"]
        if "wall_s" in out:
            # a sample too short for a probe falls back on the set-up probes
            probes = out.get("probes_s") or out["reference_s"]
            out["wall_s_raw"] = out["wall_s"]
            out["wall_s"] *= REFERENCE_S / statistics.fmean(probes)
        return out


def _env(sampler: Sampler) -> dict:
    env = sampler.sample("env")["env"]
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu"] = platform.processor() or _cpu_model()
    env["git_commit"] = _git_commit()
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _expected_checks(workload: str, size: str) -> int:
    with open(os.path.join(HERE, "expected_checks.json")) as fh:
        return json.load(fh)[size][workload]


def _verdict(samples: list, expected: int) -> list:
    """Reasons the samples are wrong; empty when they are right."""
    problems = []
    for s in samples:
        if s["failed"]:
            problems.append(f"{s['failed']} checks failed, e.g. {s['failures']}")
        if s["checks"] != expected:
            problems.append(f"{s['checks']} checks made, {expected} expected")
    if len({s["report_sha256"] for s in samples}) > 1:
        problems.append("report bytes differ between samples of one seed")
    return problems


def _result(size: str, checked: list, env: dict, metrics: dict, units: dict,
            problems=(), **details) -> dict:
    """The run's result: metrics, checks counted over all samples, and
    every reason the samples are wrong."""
    workload = checked[0]["workload"]
    problems = _verdict(checked, _expected_checks(workload, size)) + list(problems)
    attempted = sum(s["checks"] for s in checked)
    failed = sum(s["failed"] for s in checked)
    return {
        "workload": workload, "seed": checked[0]["seed"], "input": checked[0]["input"],
        "env": env, "checks_per_sample": checked[0]["checks"],
        "check_fail_ratio": failed / max(attempted, 1),
        "report_sha256": checked[0]["report_sha256"], "problems": problems,
        "attempted": attempted, "failed": failed, **details,
        "metrics": metrics, "units": units,
    }


def measure(workload: str, seed: int, seconds: float, size: str) -> dict:
    """Untraced samples: median set-up time, time to verdict and peak RSS."""
    sampler = Sampler(workload, seed, size)
    env = _env(sampler)  # also compiles the modules, so later set-ups read bytecode
    t_end = time.monotonic() + seconds
    setups = [sampler.sample("setup") for _ in range(SETUP_SAMPLES)]
    runs = []
    while len(runs) < 2 or time.monotonic() + statistics.median(
            r["wall_s_raw"] + r["setup_s_raw"] for r in runs) <= t_end:
        runs.append(sampler.sample("run"))
    setups += runs
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return _result(
        size, runs, env, metrics, END_TO_END_UNITS,
        samples=len(runs), setup_samples=len(setups),
        wall_s_samples=[r["wall_s"] for r in runs],
        raw_wall_s=statistics.median(r["wall_s_raw"] for r in runs),
        raw_setup_s=statistics.median(s["setup_s_raw"] for s in setups),
        speed=statistics.median(s["speed"] for s in setups),
    )


def trace(workload: str, seed: int, seconds: float, size: str) -> dict:
    """Per-layer metrics from traced samples, and the tracing overhead."""
    from tracer import PER_LAYER_METRICS

    sampler = Sampler(workload, seed, size)
    env = _env(sampler)
    t_end = time.monotonic() + seconds
    plain, traced = [], []
    while len(traced) < 2 or time.monotonic() < t_end:
        if len(plain) < len(traced) / 2:
            plain.append(sampler.sample("run"))
        else:
            traced.append(sampler.sample("trace"))
    problems = []
    if any(t["counts"] != traced[0]["counts"] for t in traced):
        problems.append("traced counts differ between samples of one seed")
    # counts and ratios repeat exactly (checked above); times vary
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced)
        if unit == "s" else traced[0]["layers"][name]
        for name, unit in PER_LAYER_METRICS.items() if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s_raw"] for t in traced)
                                   - statistics.median(p["wall_s_raw"] for p in plain))
    return _result(size, traced + plain, env, metrics, PER_LAYER_METRICS, problems,
                   samples=len(traced), untraced_samples=len(plain))


def _summary(res: dict) -> str:
    units = res["units"]
    lines = [f"{res['workload']}  seed={res['seed']}  input={res['input']}  "
             f"samples={res['samples']}  report_sha256={res['report_sha256'][:16]}"]
    for name, value in res["metrics"].items():
        lines.append(f"  {name:36s} {value:12.6g} {units[name]}")
    lines.append(f"  {'check_fail_ratio':36s} {res['check_fail_ratio']:12.6g} ratio"
                 f"  ({res['failed']} of {res['attempted']} checks)")
    for p in res["problems"]:
        lines.append(f"  FAIL: {p}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minute inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tlcat", "__init__.py")):
        print(f"no tlcat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    step = trace if args.trace else measure
    results = []
    for name in names:
        try:
            res = step(name, args.seed, args.seconds, args.size)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(_summary(res))
        print(json.dumps({k: v for k, v in res.items() if k not in ("metrics", "units")}))
        results.append(res)
    correct = not any(r["problems"] for r in results)
    if args.workload != "all":
        res = results[0]
        print(json.dumps({
            "correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": res["units"][name]}
                        for name, value in res["metrics"].items()},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
