"""Run the benchmark over several seeds and summarise it as a comparison of
two commits does.

    python3 perfbench/steadiness.py [--seeds 10] [--seconds 20]
                                    [--workload NAME ...] [--out FILE]

For every workload and end-to-end metric this prints the median of the
runs and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It then
makes one traced run of the first seed per workload.  With ``--out`` it
writes the medians, spreads, per-layer values, environment block and
every run's values to a JSON file, the format of ``trajectory/BENCH_*.json``.
Runs are sequential; a run that fails stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out")
    args = ap.parse_args()
    summary = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in range(args.seeds):
            detail, result = _run(workload, seed, args.seconds, 0)
            summary["env"] = detail["env"]
            runs.append({"seed": seed, "input": detail["input"], "samples": detail["samples"],
                         "raw_wall_s": detail["raw_wall_s"],
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            print(json.dumps(runs[-1]), flush=True)
        entry = {"runs": runs, "distinct_inputs": len({r["input"] for r in runs}),
                 "median": {}, "spread": {}}
        for name in result["metrics"]:
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["median"][name] = statistics.median(values)
            entry["spread"][name] = (q3 - q1) / entry["median"][name]
            print(f"{workload:20s} {name:12s} median {entry['median'][name]:10.4f} "
                  f"spread {entry['spread'][name]:.4f}", flush=True)
        _, traced = _run(workload, 0, args.seconds, 1)
        entry["per_layer_seed0"] = {k: m["value"] for k, m in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
