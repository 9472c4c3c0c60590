"""Benchmark driver for permutoehr.

    python3 perfbench/run.py --workload formula|enumeration|lattice|verify \
        --seed N --seconds S --trace 0|1

Each workload runs as a closed loop with one client: one pass is the
workload's whole seeded request list, sent one request after another, in a
fresh worker process, one worker at a time, so the package's per-process
caches start cold for every pass, as they do for a CLI user.  Passes repeat
until ``--seconds`` have gone by.  Every response is checked against the
goldens (``perfbench/goldens.json``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus the tracing overhead.  Lines before the last carry context (code
revision, Python, CPU count, reference-kernel time, sample counts); the last
line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# Times are reported at a reference CPU speed.  The effective speed of a
# shared VM swings by up to 2x within seconds (other tenants), and a short
# fixed kernel tracks the swing: each request's latency is scaled by
# REFERENCE_KERNEL_S over the mean kernel reading before, during and after
# it (worker.SpeedProbe), and each set-up by REFERENCE_KERNEL_S over the
# reading taken right after it.  The unscaled figures are in the context
# line.  0.0065 s is about the kernel's fastest steady reading on the 2-vCPU
# Intel Xeon VM (Python 3.11.7) where the benchmark was defined.
REFERENCE_KERNEL_S = 0.0065
MIN_SETUPS = 11  # set-up samples per run; passes are topped up with set-up-only workers
RUN_DEADLINE_S = 170.0
SETUP_RESERVE_S = 20.0  # kept back from the passes for the set-up-only workers
P90_TAIL = 10  # samples that must lie beyond the 90th percentile to report it

class WorkerError(RuntimeError):
    pass


class Runner:
    """Launches workers one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        # a CLI user's interpreter loads byte-compiled modules; the warm-up
        # launch writes them (into __pycache__ inside the checkout)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def _remaining(self) -> float:
        left = self.left()
        if left <= 0:
            raise WorkerError("run deadline passed")
        return left

    def launch(self, mode: str) -> tuple[float, dict]:
        """Set-up seconds and the worker's report."""
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
        ]
        launched = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
        )
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if not sel.select(self._remaining()):
                    raise WorkerError("worker set-up timed out")
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - launched
            if line.strip() != "READY":
                proc.wait(timeout=self._remaining())
                raise WorkerError(f"worker failed in set-up (exit code {proc.returncode})")
            rest, _ = proc.communicate(timeout=self._remaining())
        except (subprocess.TimeoutExpired, WorkerError):
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
        try:
            return setup_s, json.loads(rest.strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise WorkerError("worker printed no report") from None


def git_revision(root: Path = ROOT) -> str | None:
    """HEAD's commit from the checkout's .git, if it has one (no git call)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    out = {"samples": n, "p50_ms": statistics.median(ordered) * 1000}
    # the 90th percentile is reported only with at least P90_TAIL samples beyond it
    if n * 0.1 >= P90_TAIL:
        out["p90_ms"] = statistics.quantiles(ordered, n=10)[-1] * 1000
    else:
        out["p90_ms"] = None
        out["p90_absent"] = f"{n} samples leave {int(n * 0.1)} beyond p90; {P90_TAIL} needed"
    return out


def scale(report: dict) -> None:
    """Add a pass's request latencies at reference speed (``scaled_s``) and
    the factor that scales the pass as a whole (``factor``)."""
    lat = [x * REFERENCE_KERNEL_S / k for x, k in zip(report["latencies_s"], report["speeds_s"])]
    report["scaled_s"] = lat
    report["factor"] = sum(lat) / sum(report["latencies_s"])


def run(workload: str, seed: int, seconds: float, trace: bool, units: dict[str, str]) -> dict:
    runner = Runner(workload, seed)
    runner.launch("setup")  # warm-up: byte-compiles the sources and fills the file cache
    setups, passes, traced = [], [], []  # setups: (seconds, kernel reading right after)
    start = time.perf_counter()
    longest = 0.0
    while True:
        begun = time.perf_counter()
        for mode, reports in (("pass", passes), ("traced", traced))[: 1 + trace]:
            setup_s, report = runner.launch(mode)
            setups.append((setup_s, report["kernel_s"]))
            scale(report)
            reports.append(report)
        longest = max(longest, time.perf_counter() - begun)
        # a host slow enough to endanger the deadline gets fewer passes
        if time.perf_counter() - start >= seconds or runner.left() < 2 * longest + SETUP_RESERVE_S:
            break
    while len(setups) < MIN_SETUPS:
        setup_s, report = runner.launch("setup")
        setups.append((setup_s, report["kernel_s"]))

    attempted = sum(len(r["latencies_s"]) for r in passes + traced)
    errors = [e for r in passes + traced for e in r["errors"]]
    pass_s = median(sum(r["scaled_s"]) for r in passes)
    census = sum(r["census_requests"] for r in passes)
    context = {
        "workload": workload,
        "seed": seed,
        "git_rev": git_revision(),
        "source_sha256": wl.source_digest(ROOT),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "traced_passes": len(traced),
        "requests_per_pass": len(passes[0]["latencies_s"]),
        "setup_samples": len(setups),
        "latency": latency_summary([x for r in passes for x in r["scaled_s"]]),
        "repeat_share": sum(r["census_repeats"] for r in passes) / census if census else None,
        "ref_kernel_s": median(k for r in passes for k in r["speeds_s"]),
        "unscaled": {
            "setup_s": median(s for s, _ in setups),
            "pass_s": median(sum(r["latencies_s"]) for r in passes),
            **latency_summary([x for r in passes for x in r["latencies_s"]]),
        },
        "absent": sorted({a for r in traced for a in r.get("absent", [])}),
    }
    if trace:
        metrics = {}
        for name in traced[0]["layers"]:
            pairs = [(r["layers"][name], r["factor"]) for r in traced if r["layers"][name] is not None]
            if units.get(name) == "s":
                metrics[name] = median(v * f for v, f in pairs)
            elif units.get(name) == "1/s":
                metrics[name] = median(v / f for v, f in pairs)
            else:
                metrics[name] = median(v for v, _ in pairs)
        metrics["cli.stdout_bytes"] = median(r["stdout_bytes"] for r in traced)
        metrics["trace.overhead_frac"] = median(sum(r["scaled_s"]) for r in traced) / pass_s - 1
    else:
        metrics = {
            "setup_s": median(s * REFERENCE_KERNEL_S / k for s, k in setups),
            "pass_s": pass_s,
            "req_p50_ms": context["latency"]["p50_ms"],
            "ok_frac": (attempted - len(errors)) / attempted,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in passes),
        }
    return {"context": context, "attempted": attempted, "errors": errors, "metrics": metrics}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "permutoehr" / "__init__.py").is_file():
        print(f"error: no permutoehr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), units)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in outcome["errors"][:10]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"context": outcome["context"]}))
    print(json.dumps({
        "correct": not outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["errors"]),
        "metrics": {
            name: {"value": outcome["metrics"].get(name), "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
