"""The benchmark's workloads: seeded request lists over fixed grids, and how
one request is run and checked against its golden output.

Every request goes through ``permutoehr.cli.main(argv)`` with stdout
captured, except the two paths the CLI cannot reach, which are called
through the library: ``structure_counts`` and
``PartialPermutohedron.contains``.

The seed only chooses among cells of near-equal cost (which n-offsets a
formula or enumeration request uses, which dilation a formula request is
evaluated at, which pool points a ``contains`` batch queries) and the
request order, so the work in a pass barely depends on it.  The lattice
walks take every n-offset, because their cost grows about threefold per
unit of n.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path
from typing import NamedTuple

WORKLOADS = ("formula", "enumeration", "lattice", "verify")
# Every request list has an odd length (45, 13, 41, 1), so the median of the
# latencies pooled over passes falls among the samples of one request, not
# on the edge between two.
GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

FORMULA_ENGINES = (
    ("closed", (12, 24, 36)),
    ("egf", (12, 24, 36)),
    ("recurrence", (12, 24, 36, 48)),
    ("egf-tree", (8, 12, 16)),
)
FORMULA_OTHERS = (("volume", (12, 24, 36)), ("fpoly", (12, 24, 36)))
N_OFFSETS = (-1, 0, 1, 5)
FORMULA_T = (None, 2, 7)

CENSUS_M = (5, 6)
GRAPHSUM_M = (5, 6)
# postnikov at m = 6 would be one 3 s request, 60 % of the pass, which the
# speed probe tracks worse than short ones: it widened the spread of pass_s
# across seeds from about 2 % to 7 %.
POSTNIKOV_M = (5,)
STRUCTURE_M = (5, 6)

LATTICE_OFFSETS = (-1, 0, 1)
LATTICE_COUNTS = ((3, (1, 2, 3, 4, 6)), (4, (1, 2, 3, 4)), (5, (1, 2)))
# (5, 5, 3) alone: with n = 6 that walk takes 3 s, with n = 4 only 0.3 s.
LATTICE_EXTRA = ((5, 5, 3),)
PARKING_M = (3, 4, 5, 6, 7)
CONTAINS = ((5, 5, 2), (6, 6, 2))
CONTAINS_BATCH = 2000
POOL_SIZE = 4096

VERIFY_SEEDS = 16


class Request(NamedTuple):
    kind: str  # "cli", "structure_counts" or "contains"
    args: tuple  # argv for "cli"; (m,) or (m, n, t, pool indices)
    cell: str  # golden key
    shape: str  # the cell with every seed-drawn parameter removed
    census_m: int | None  # m of a census-backed request


def _cli(argv, shape, census_m=None) -> Request:
    argv = tuple(str(a) for a in argv)
    return Request("cli", argv, " ".join(argv), shape, census_m)


def _ehrhart(m, n, method, t=None, census_m=None) -> Request:
    argv = ["ehrhart", "--m", m, "--n", n, "--method", method, "--format", "plain"]
    if t is not None:
        argv += ["--t", t]
    return _cli(argv, f"ehrhart {method} m={m}", census_m)


def pool_points(m: int, n: int, t: int) -> list[tuple[int, ...]]:
    """The fixed pool of points in the box [0, tn]^m that contains batches
    draw from; its answers are in the goldens."""
    rng = random.Random(f"contains pool {m} {n} {t}")
    return [tuple(rng.randint(0, t * n) for _ in range(m)) for _ in range(POOL_SIZE)]


def pool_digest(points) -> str:
    return hashlib.sha256(repr(points).encode()).hexdigest()


def build_requests(workload: str, seed: int) -> list[Request]:
    rng = random.Random(seed)
    out: list[Request] = []
    if workload == "formula":
        for method, ms in FORMULA_ENGINES:
            for m in ms:
                for k in sorted(rng.sample(N_OFFSETS, 3)):
                    out.append(_ehrhart(m, m + k, method, rng.choice(FORMULA_T)))
        for command, ms in FORMULA_OTHERS:
            for m in ms:
                n = m + rng.choice(N_OFFSETS)
                out.append(_cli([command, "--m", m, "--n", n, "--format", "plain"], f"{command} m={m}"))
    elif workload == "enumeration":
        for m in CENSUS_M:
            out.append(_cli(["graphs", "--m", m, "--stats", "--format", "plain"], f"graphs m={m}", m))
        for m in GRAPHSUM_M:
            for k in sorted(rng.sample(N_OFFSETS, 3)):
                out.append(_ehrhart(m, m + k, "graphsum", census_m=m))
        for m in POSTNIKOV_M:
            for k in sorted(rng.sample(N_OFFSETS, 3)):
                out.append(_ehrhart(m, m + k, "postnikov"))
        for m in STRUCTURE_M:
            out.append(Request("structure_counts", (m,), f"structure_counts {m}", f"structure_counts m={m}", None))
    elif workload == "lattice":
        cells = [(m, m + k, t) for m, ts in LATTICE_COUNTS for t in ts for k in LATTICE_OFFSETS]
        for m, n, t in cells + list(LATTICE_EXTRA):
            argv = ["count-points", "--m", m, "--n", n, "--t", t, "--format", "plain"]
            out.append(_cli(argv, f"count-points m={m} n={n} t={t}"))
        for m in PARKING_M:
            out.append(_cli(["parking", "--m", m, "--format", "plain"], f"parking m={m}"))
        for m, n, t in CONTAINS:
            picks = tuple(rng.randrange(POOL_SIZE) for _ in range(CONTAINS_BATCH))
            out.append(Request("contains", (m, n, t, picks), f"contains {m} {n} {t}", f"contains m={m} n={n} t={t}", None))
    elif workload == "verify":
        argv = ["verify", "--max-m", 4, "--max-t", 2, "--seed", seed % VERIFY_SEEDS]
        out.append(_cli(argv, "verify max-m=4 max-t=2"))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(out)
    if workload == "enumeration":
        # the graphs listing is always the cold census of its m, so which
        # request type pays for the walk does not depend on the seed
        for m in CENSUS_M:
            backed = [i for i, r in enumerate(out) if r.census_m == m]
            listing = next(i for i in backed if out[i].args[0] == "graphs")
            out[backed[0]], out[listing] = out[listing], out[backed[0]]
    return out


def all_cells(workload: str) -> list[Request]:
    """One request for every cell the seeded request lists can draw
    (a contains request covering its whole pool)."""
    out: list[Request] = []
    if workload == "formula":
        for method, ms in FORMULA_ENGINES:
            for m in ms:
                out += [_ehrhart(m, m + k, method, t) for k in N_OFFSETS for t in FORMULA_T]
        for command, ms in FORMULA_OTHERS:
            for m in ms:
                out += [
                    _cli([command, "--m", m, "--n", m + k, "--format", "plain"], f"{command} m={m}")
                    for k in N_OFFSETS
                ]
    elif workload == "enumeration":
        drawn = build_requests(workload, 0)
        out += [req for req in drawn if req.kind == "structure_counts" or req.args[0] == "graphs"]
        for m in GRAPHSUM_M:
            out += [_ehrhart(m, m + k, "graphsum", census_m=m) for k in N_OFFSETS]
        for m in POSTNIKOV_M:
            out += [_ehrhart(m, m + k, "postnikov") for k in N_OFFSETS]
    elif workload == "lattice":
        for req in build_requests(workload, 0):
            if req.kind == "contains":
                m, n, t, _ = req.args
                req = req._replace(args=(m, n, t, tuple(range(POOL_SIZE))))
            out.append(req)
    elif workload == "verify":
        out += [build_requests(workload, seed)[0] for seed in range(VERIFY_SEEDS)]
    return sorted(out, key=lambda req: req.cell)


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def source_digest(root: Path) -> str:
    """sha256 over the package sources under ``root``, in path order."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "permutoehr").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Response(NamedTuple):
    latency_s: float
    ok: bool
    stdout_bytes: int
    error: str


def run_cli(argv, clock=time.perf_counter) -> tuple[int, str, float]:
    """``permutoehr.cli.main(argv)`` with stdout captured; returns the exit
    code, the output and the call's time by ``clock``."""
    from permutoehr import cli

    buf = io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code if isinstance(exc.code, int) else 2
    elapsed = clock() - start
    return code, buf.getvalue(), elapsed


def structure_text(counts) -> str:
    return " ".join(str(c) for c in counts)


def execute(req: Request, goldens: dict, pools: dict, clock=time.perf_counter) -> Response:
    """Run one request, timed by ``clock``, and compare its output with the
    golden.  Raising, a nonzero exit code and a wrong output all count as a
    failure."""
    if req.kind == "cli":
        try:
            code, text, elapsed = run_cli(req.args, clock)
        except Exception as exc:
            return Response(0.0, False, 0, f"{req.cell}: raised {exc!r}")
        nbytes = len(text.encode())
        if code != 0:
            return Response(elapsed, False, nbytes, f"{req.cell}: exit code {code}")
        ok = digest(text) == goldens["cells"].get(req.cell)
        return Response(elapsed, ok, nbytes, "" if ok else f"{req.cell}: output differs from golden")
    if req.kind == "structure_counts":
        from permutoehr import graphs

        start = clock()
        try:
            counts = graphs.structure_counts(req.args[0])
        except Exception as exc:
            return Response(0.0, False, 0, f"{req.cell}: raised {exc!r}")
        elapsed = clock() - start
        ok = digest(structure_text(counts)) == goldens["cells"].get(req.cell)
        return Response(elapsed, ok, 0, "" if ok else f"{req.cell}: counts differ from golden")
    if req.kind == "contains":
        from permutoehr.polytope import PartialPermutohedron

        m, n, t, picks = req.args
        pool = pools[req.cell]
        expected = goldens["cells"].get(req.cell, "")
        queries = [pool[i] for i in picks]
        start = clock()
        try:
            polytope = PartialPermutohedron(m, n)
            answers = [polytope.contains(x, t) for x in queries]
        except Exception as exc:
            return Response(0.0, False, 0, f"{req.cell}: raised {exc!r}")
        elapsed = clock() - start
        ok = len(expected) == POOL_SIZE and all(
            (expected[i] == "1") == bool(a) for i, a in zip(picks, answers)
        )
        return Response(elapsed, ok, 0, "" if ok else f"{req.cell}: answers differ from golden")
    raise ValueError(f"unknown request kind {req.kind!r}")


def prepare_pools(goldens: dict, requests: list[Request]) -> dict[str, list]:
    """The contains pools the requests draw from, checked against the digests
    stored with the goldens."""
    pools = {}
    for req in requests:
        if req.kind == "contains" and req.cell not in pools:
            m, n, t, _ = req.args
            points = pool_points(m, n, t)
            if pool_digest(points) != goldens["pool_digests"].get(req.cell):
                raise RuntimeError(f"{req.cell}: regenerated pool differs from the goldens' pool")
            pools[req.cell] = points
    return pools
