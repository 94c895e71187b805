"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py <mode> <workload> <seed> <size>

mode ``env`` prints the environment block, ``setup`` stops after set-up,
``run`` computes the workload, ``trace`` computes it with per-layer
tracing.  The last line of standard output is one JSON object; its
``setup_done_ns`` is a CLOCK_MONOTONIC stamp, which the parent compares
with the stamp it took before starting this process.

Right after set-up, and every PROBE_PERIOD_S while the workload runs, the
worker times a fixed pure-Python loop (``reference_s``, ``probes_s``), so
that the parent can tell how fast the machine ran this process at the time.
Probe time is taken out of ``wall_s``.  Traced samples run no probes: a
probe would land in the self time of whatever span it interrupted.
"""

import hashlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _stamp() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


PROBE_PERIOD_S = 0.1
_POLY = {(i, j, 0, 0): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}


def _reference_s() -> float:
    """Seconds for one product of two fixed sparse polynomials with Fraction
    coefficients, the kind of interpreter work tlcat does (about 6 ms)."""
    t0 = time.perf_counter()
    out: dict = {}
    for k1, c1 in _POLY.items():
        for k2, c2 in _POLY.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])
            c = out.get(k, 0) + c1 * c2
            if c:
                out[k] = c
    return time.perf_counter() - t0


class _Probes:
    """Runs _reference_s on SIGALRM every PROBE_PERIOD_S inside the block."""

    def __init__(self):
        self.times: list = []

    def _probe(self, signum, frame):
        self.times.append(_reference_s())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv) -> int:
    mode, workload, seed, size = argv[0], argv[1], int(argv[2]), argv[3]
    sys.path.insert(0, SRC)
    import tlcat

    if os.path.dirname(os.path.abspath(tlcat.__file__)) != os.path.join(SRC, "tlcat"):
        print(f"tlcat imported from {tlcat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    setup(seed, size)
    out = {"setup_done_ns": _stamp(), "reference_s": [_reference_s() for _ in range(3)]}
    if mode == "env":
        out["env"] = _env()
    if mode == "run":
        with _Probes() as probes:
            t0 = time.perf_counter()
            rep = run(seed, size)
            verdict = rep.ok
            elapsed = time.perf_counter() - t0
        out["probes_s"] = probes.times
        out["wall_s"] = elapsed - sum(probes.times)
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        t0 = time.perf_counter()
        rep = run(seed, size)
        verdict = rep.ok
        out["wall_s"] = time.perf_counter() - t0
        out.update(tracer.metrics())
    if mode in ("run", "trace"):
        out["workload"], out["seed"] = workload, seed
        out["ok"] = verdict
        out["checks"] = len(rep.cases)
        out["failed"] = rep.n_fail
        out["failures"] = rep.failures()[:3]
        out["report_sha256"] = hashlib.sha256(rep.dumps().encode()).hexdigest()
        out["input"] = workloads.input_id(workload, seed)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out, default=str))
    return 0


def _env() -> dict:
    from tlcat.diagram import KERNEL

    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {"python": sys.version.split()[0], "kernel": KERNEL, "gmpy2": has_gmpy2}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
