"""One benchmark worker: a fresh process that sets up, runs one pass of a
workload's request list and reports it as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|traced|setup

The worker prints ``READY`` once it could send its first request (the parent
times set-up from launch to that line).  It then reads the CPU speed of the
moment with a fixed stdlib-only reference kernel, and keeps reading it while
requests run (see ``SpeedProbe``); ``setup`` mode stops after the first
reading.  Needs ``signal.setitimer`` (Linux, macOS).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
KERNEL_UNITS = 4  # a full reading runs the unit this many times, a probe reading once


def _walk(depth: int, path: list):
    if depth == 0:
        yield tuple(path)
        return
    for v in (0, 1, 2):
        path.append(v)
        yield from _walk(depth - 1, path)
        path.pop()


def _kernel_unit() -> None:
    """Fixed stdlib-only work in the package's mix: Fraction sums, a
    recursive generator walk tallied in a dict, small sorts, an int loop."""
    acc = Fraction(0)
    for i in range(1, 16):
        acc += Fraction(i, i * i + 1)
    counts: dict = {}
    for t in _walk(6, []):
        key = (sum(t), t.count(1), max(t))
        counts[key] = counts.get(key, 0) + 1
    s = 0
    for i in range(750):
        s += sorted((i * 7 % 13, i % 5, i % 11, i % 3))[1]
    x = 1
    for i in range(2500):
        x = (x * 48271 + i) % 2_147_483_647
    if acc <= 0 or len(counts) != 28 or s < 0 or x < 0:
        raise AssertionError("reference kernel arithmetic")


def reference_kernel(units: int = KERNEL_UNITS) -> float:
    """Seconds taken by ``units`` runs of the kernel unit, scaled to a full
    reading."""
    start = time.perf_counter()
    for _ in range(units):
        _kernel_unit()
    return (time.perf_counter() - start) * KERNEL_UNITS / units


class SpeedProbe:
    """Reads the CPU speed during a request.

    The effective speed of a shared VM swings within seconds, so one reading
    before and one after a long request miss most of what it met.  While a
    request runs, a SIGALRM every PROBE_INTERVAL_S runs one unit of the
    reference kernel.  ``clock`` is wall time minus the time spent in the
    handler, so requests and trace spans are timed without the probe.

    Python runs a handler again when its signal arrives while the handler
    is still running.  On a host that stalls the process, a reading can
    outlast the interval; then handlers would nest without bound and starve
    the request.  So a tick is skipped while a reading runs, and within half
    an interval after one ends: the request always keeps at least that.
    """

    def __init__(self):
        self.spent = 0.0
        self.readings: list[float] = []
        self._busy = False
        self._resumed = float("-inf")  # when the last reading ended
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        if self._busy or start - self._resumed < PROBE_INTERVAL_S / 2:
            return
        self._busy = True
        self.readings.append(reference_kernel(units=1))
        end = time.perf_counter()
        self.spent += end - start
        self._resumed = end
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self):
        self.readings = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        kb /= 1024
    return kb / 1024


def run_pass(requests, goldens, pools, probe: SpeedProbe) -> dict:
    """Send every request in turn.  Each request's speed is the mean of the
    kernel readings before, during and after it."""
    import workloads as wl

    before = reference_kernel()
    first = before
    latencies, speeds, errors = [], [], []
    stdout_bytes = 0
    census_requests = census_repeats = 0
    census_seen = set()
    for req in requests:
        with probe:
            resp = wl.execute(req, goldens, pools, probe.clock)
        after = reference_kernel()
        latencies.append(resp.latency_s)
        speeds.append(statistics.mean([before, *probe.readings, after]))
        before = after
        stdout_bytes += resp.stdout_bytes
        if not resp.ok:
            errors.append(resp.error)
        if req.census_m is not None:
            census_requests += 1
            census_repeats += req.census_m in census_seen
            census_seen.add(req.census_m)
    return {
        "kernel_s": first,
        "latencies_s": latencies,
        "speeds_s": speeds,
        "errors": errors,
        "stdout_bytes": stdout_bytes,
        "census_requests": census_requests,
        "census_repeats": census_repeats,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "traced", "setup"), required=True)
    args = parser.parse_args()

    import permutoehr.cli  # noqa: F401  (the import a CLI user pays)
    import workloads as wl

    requests = wl.build_requests(args.workload, args.seed)
    goldens = wl.load_goldens()
    pools = wl.prepare_pools(goldens, requests)
    print("READY", flush=True)
    if args.mode == "setup":
        print(json.dumps({"kernel_s": reference_kernel()}), flush=True)
        return 0

    probe = SpeedProbe()
    tracer = None
    if args.mode == "traced":
        import tracer as tr

        tracer = tr.Tracer(clock=probe.clock)
        tracer.install(tr.TARGETS)
    result = run_pass(requests, goldens, pools, probe)
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tr.layer_metrics(tracer)
        result["absent"] = tracer.absent
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
