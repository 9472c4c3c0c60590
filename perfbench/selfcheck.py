"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

* the tracer's self/busy arithmetic on a synthetic nested call, a recursive
  call and a generator, timed by a fake clock;
* a corrupted golden makes the affected request fail, so ``ok_frac`` falls
  below 1, while the true goldens pass;
* different seeds give the same request count, cover the same grid, and
  draw only cells that have a golden;
* the speed probe never nests its readings, and a request keeps running
  when every reading outlasts the probe interval.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class CheckFailed(AssertionError):
    pass


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def check_self_time() -> None:
    from tracer import Tracer

    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.advance(2)

    def outer():
        clock.advance(1)
        inner_w()
        clock.advance(3)

    def rec(n):
        clock.advance(1)
        if n:
            rec_w(n - 1)

    def gen():
        for i in range(3):
            clock.advance(1)
            yield i
        clock.advance(0.5)

    def consumer():
        for _ in gen_w():
            clock.advance(10)

    inner_w = tracer.wrap(inner, "b", "inner")
    outer_w = tracer.wrap(outer, "a", "outer")
    rec_w = tracer.wrap(rec, "a", "rec")
    gen_w = tracer.wrap(gen, "b", "gen")
    consumer_w = tracer.wrap(consumer, "a", "consumer")

    outer_w()
    o, i = tracer.ops[("a", "outer")], tracer.ops[("b", "inner")]
    check((o.calls, o.self_s, o.busy_s) == (1, 4, 6), "nested call: outer self 4, busy 6")
    check((i.calls, i.self_s, i.busy_s) == (1, 2, 2), "nested call: inner self 2, busy 2")

    rec_w(2)
    r = tracer.ops[("a", "rec")]
    check((r.calls, r.self_s, r.busy_s) == (3, 3, 3), "recursion: busy counted once")

    consumer_w()
    c, g = tracer.ops[("a", "consumer")], tracer.ops[("b", "gen")]
    check((g.calls, g.items, g.self_s, g.busy_s) == (1, 3, 3.5, 3.5), "generator: resumptions only")
    check((c.self_s, c.busy_s) == (30, 33.5), "generator consumer: self excludes resumptions")

    a, b = tracer.layers["a"], tracer.layers["b"]
    check((a.self_s, a.busy_s) == (4 + 3 + 30, 6 + 3 + 33.5), "layer a totals")
    check((b.self_s, b.busy_s) == (2 + 3.5, 2 + 3.5), "layer b totals")
    check(tracer.spans == 1 + 1 + 3 + 1 + 4, "span count")
    check(not tracer.stack, "every span closed")


def check_install_restores() -> None:
    import tracer as tr
    from permutoehr import cli, ehrhart, graphs, polynomials

    originals = (cli.main, ehrhart.ehrhart_closed, graphs.enumerate_graphs, polynomials.Poly.__add__)
    tracer = tr.Tracer()
    tracer.install(tr.TARGETS + [("ghost", "gone", "polynomials:NoSuchName", None)])
    check(tracer.absent == ["polynomials:NoSuchName"], "a missing target is recorded as absent")
    check(ehrhart._ENGINES["closed"] is ehrhart.ehrhart_closed, "engine table patched with the module")
    check(polynomials.Poly.__radd__ is polynomials.Poly.__add__, "aliases share the wrapper")
    check(ehrhart.ehrhart_closed(3, 3) == ehrhart.ehrhart_recurrence(3, 3), "traced results unchanged")
    check(tracer.ops[("ehrhart", "closed")].calls == 2, "recurrence's nested closed calls traced")
    metrics = tr.layer_metrics(tracer)
    check(metrics["graphs.enumerate.calls"] == 0, "idle layer reads 0 calls")
    tracer.uninstall()
    now = (cli.main, ehrhart.ehrhart_closed, graphs.enumerate_graphs, polynomials.Poly.__add__)
    check(all(x is y for x, y in zip(now, originals)), "uninstall restores every binding")
    check(ehrhart._ENGINES["closed"] is ehrhart.ehrhart_closed, "uninstall restores the engine table")


def check_corrupted_golden() -> None:
    import workloads as wl
    from worker import SpeedProbe, run_pass

    goldens = wl.load_goldens()
    requests = [r for r in wl.build_requests("lattice", 7) if r.kind == "contains" or r.args[0] == "parking"]
    requests += wl.build_requests("verify", 7)
    pools = wl.prepare_pools(goldens, requests)
    probe = SpeedProbe()
    clean = run_pass(requests, goldens, pools, probe)
    check(not clean["errors"], f"true goldens pass: {clean['errors']}")
    for victim in (requests[0], requests[-1], next(r for r in requests if r.kind == "contains")):
        corrupted = {**goldens, "cells": dict(goldens["cells"])}
        golden = corrupted["cells"][victim.cell]
        if victim.kind == "contains":
            i = victim.args[3][0]
            corrupted["cells"][victim.cell] = golden[:i] + "10"[int(golden[i])] + golden[i + 1:]
        else:
            corrupted["cells"][victim.cell] = wl.digest("corrupted")
        result = run_pass([victim], corrupted, pools, probe)
        check(len(result["errors"]) == 1, f"corrupted golden for {victim.cell} fails its request")


def check_seed_grid() -> None:
    import workloads as wl

    goldens = wl.load_goldens()
    for workload in wl.WORKLOADS:
        lists = [wl.build_requests(workload, seed) for seed in range(40)]
        check(len({len(reqs) for reqs in lists}) == 1, f"{workload}: request count depends on the seed")
        check(
            len({tuple(sorted(r.shape for r in reqs)) for reqs in lists}) == 1,
            f"{workload}: seeds cover different grids",
        )
        check(lists[1] != lists[2], f"{workload}: the seed changes nothing")
        missing = {r.cell for reqs in lists for r in reqs} - goldens["cells"].keys()
        check(not missing, f"{workload}: cells without golden: {sorted(missing)[:3]}")
        check(
            {r.cell for r in wl.all_cells(workload)} <= goldens["cells"].keys(),
            f"{workload}: goldens do not cover the grid",
        )


def check_probe_guard() -> None:
    import time

    import worker

    probe = worker.SpeedProbe()
    probe._sample(None, None)
    probe._sample(None, None)
    check(len(probe.readings) == 1, "a tick right after a reading is skipped")
    probe._resumed, probe._busy = float("-inf"), True
    probe._sample(None, None)
    check(len(probe.readings) == 1, "a tick during a reading is skipped")

    # readings of twice the interval, as on a stalled host
    depth = deepest = 0
    kernel = worker.reference_kernel

    def slow_kernel(units=worker.KERNEL_UNITS):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        if depth > 1:  # record the nesting, but do not let it run away
            depth -= 1
            return 0.0
        end = time.perf_counter() + 2 * worker.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
        depth -= 1
        return 0.0

    worker.reference_kernel = slow_kernel
    try:
        probe = worker.SpeedProbe()
        with probe:
            work = time.perf_counter()
            while probe.clock() - work < 0.3:
                pass
    finally:
        worker.reference_kernel = kernel
    check(deepest == 1, f"readings nested {deepest} deep")
    check(probe.readings, "the probe read during the request")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    for fn in (check_self_time, check_install_restores, check_corrupted_golden, check_seed_grid, check_probe_guard):
        fn()
        print(f"ok {fn.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
