"""Outside-in span tracer for the traced benchmark run.

The tracer replaces public callables of the ``permutoehr`` modules with
timing wrappers, without editing the package: every module namespace that
binds a callable (and every dict held in a module global, such as an engine
table) gets the wrapper, and so does every alias of a method on its class
(``__radd__ = __add__``).  Generator functions are timed across their
resumptions, so the time a consumer spends between items is not charged to
the generator.

A span's self time is its duration minus the durations of its direct child
spans.  ``busy`` time is inclusive and counted once per outermost span, so a
recursive or nested call of the same operation (or layer) is not counted
twice.  Spans are aggregated as they close; nothing per span is kept.

A target missing at some commit is recorded as absent and its metrics are
reported as ``None`` instead of raising.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from types import ModuleType

PACKAGE = "permutoehr"


class OpStat:
    """Aggregate of all spans of one named operation."""

    __slots__ = ("calls", "self_s", "busy_s", "depth", "items", "hits", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.depth = 0
        self.items = 0
        self.hits = 0
        self.extra: dict = {}


class LayerStat:
    __slots__ = ("self_s", "busy_s", "depth")

    def __init__(self):
        self.self_s = 0.0
        self.busy_s = 0.0
        self.depth = 0


class Tracer:
    """Times wrapped callables; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[float] = []  # child time accumulated by each open span
        self.ops: dict[tuple[str, str], OpStat] = {}
        self.layers: dict[str, LayerStat] = {}
        self.spans = 0
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # -- span accounting ---------------------------------------------------

    def _open(self, op: OpStat, layer: LayerStat) -> float:
        self.stack.append(0.0)
        op.depth += 1
        layer.depth += 1
        return self.clock()

    def _close(self, op: OpStat, layer: LayerStat, start: float) -> float:
        elapsed = self.clock() - start
        own = elapsed - self.stack.pop()
        op.self_s += own
        layer.self_s += own
        op.depth -= 1
        if op.depth == 0:
            op.busy_s += elapsed
        layer.depth -= 1
        if layer.depth == 0:
            layer.busy_s += elapsed
        if self.stack:
            self.stack[-1] += elapsed
        self.spans += 1
        return elapsed

    def stat(self, layer: str, op: str) -> OpStat:
        key = (layer, op)
        if key not in self.ops:
            self.ops[key] = OpStat()
            self.layers.setdefault(layer, LayerStat())
        return self.ops[key]

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, layer: str, op: str, observe=None):
        """A timing wrapper around ``fn``.  ``observe(stat, args, kwargs,
        result, elapsed)`` runs after each completed call of a plain
        function; a generator's yielded items are counted in ``items``."""
        stat = self.stat(layer, op)
        lstat = self.layers[layer]
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def resume(gen):
                while True:
                    start = tracer._open(stat, lstat)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(stat, lstat, start)
                        return
                    except BaseException:
                        tracer._close(stat, lstat, start)
                        raise
                    tracer._close(stat, lstat, start)
                    stat.items += 1
                    yield item

            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                return resume(fn(*args, **kwargs))

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            stat.calls += 1
            start = tracer._open(stat, lstat)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._close(stat, lstat, start)
            if observe is not None:
                observe(stat, args, kwargs, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, targets) -> None:
        """Patch every target ``(layer, op, "module:Name" or
        "module:Class.method", observe)``."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if isinstance(mod, ModuleType) and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, op, where, observe in targets:
            self.stat(layer, op)
            module_name, _, qual = where.partition(":")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(where)
                continue
            owner_name, _, attr = qual.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
                if original is None:
                    self.absent.append(where)
                    continue
                wrapper = self.wrap(original, layer, op, observe)
                for alias, value in list(owner.__dict__.items()):
                    if value is original:
                        self._undo.append((setattr, owner, alias, value))
                        setattr(owner, alias, wrapper)
            else:
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(where)
                    continue
                wrapper = self.wrap(original, layer, op, observe)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((setattr, mod, name, value))
                            setattr(mod, name, wrapper)
                        elif isinstance(value, dict):
                            for key, item in list(value.items()):
                                if item is original:
                                    self._undo.append((dict.__setitem__, value, key, item))
                                    value[key] = wrapper

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, name, value = self._undo.pop()
            restore(owner, name, value)


# -- what the traced run wraps ----------------------------------------------


def _observe_hall(stat, args, kwargs, result, elapsed):
    if result:
        stat.hits += 1


def _observe_census(stat, args, kwargs, result, elapsed):
    """Census calls for an m not yet seen in this worker are the cold ones."""
    seen = stat.extra.setdefault("seen_m", set())
    m = args[0] if args else kwargs.get("m")
    if m not in seen:
        seen.add(m)
        stat.extra["cold_graphs"] = stat.extra.get("cold_graphs", 0) + sum(result.values())
        stat.extra["cold_s"] = stat.extra.get("cold_s", 0.0) + elapsed


def _observe_count(stat, args, kwargs, result, elapsed):
    polytope = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    stat.items += result
    stat.extra["box"] = stat.extra.get("box", 0) + (t * polytope.n + 1) ** polytope.m


def _observe_output_poly(stat, args, kwargs, result, elapsed):
    bits = stat.extra.get("max_bits", 0)
    for c in result.coeffs:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    stat.extra["max_bits"] = bits


def _targets():
    # Besides the operations reported by name, every other public callable a
    # workload reaches is wrapped too, so each layer's self time holds all of
    # its own code and none of it lands in the caller's layer.
    p, s, g, pt, e, v = "polynomials", "series", "graphs", "polytope", "ehrhart", "verify"
    out = []
    for op, where in (
        ("poly_mul", "Poly.__mul__"),
        ("poly_add", "Poly.__add__"),
        ("poly_pow", "Poly.__pow__"),
        ("poly_eval", "Poly.__call__"),
        ("poly_sub", "Poly.__sub__"),
        ("poly_rsub", "Poly.__rsub__"),
        ("poly_neg", "Poly.__neg__"),
        ("poly_compose", "Poly.compose"),
        ("laurent_mul", "LaurentPoly.__mul__"),
        ("laurent_add", "LaurentPoly.__add__"),
        ("laurent_div", "LaurentPoly.__truediv__"),
        ("laurent_sub", "LaurentPoly.__sub__"),
        ("laurent_rsub", "LaurentPoly.__rsub__"),
        ("laurent_neg", "LaurentPoly.__neg__"),
        ("laurent_shifted", "LaurentPoly.shifted"),
        ("laurent_as_poly", "LaurentPoly.as_poly"),
        ("multinomial", "multinomial"),
        ("rising_binomial", "rising_binomial"),
        ("double_factorial", "double_factorial"),
        ("eulerian", "eulerian"),
    ):
        out.append((p, op, f"{p}:{where}", None))
    for op, where in (
        ("mul", "TruncatedSeries.__mul__"),
        ("add", "TruncatedSeries.__add__"),
        ("exp", "TruncatedSeries.exp"),
        ("log", "TruncatedSeries.log"),
        ("sqrt", "TruncatedSeries.sqrt"),
        ("compose", "TruncatedSeries.compose"),
        ("sub", "TruncatedSeries.__sub__"),
        ("rsub", "TruncatedSeries.__rsub__"),
        ("neg", "TruncatedSeries.__neg__"),
        ("map_coeffs", "TruncatedSeries.map_coeffs"),
        ("one_minus_z", "one_minus_z"),
    ):
        out.append((s, op, f"{s}:{where}", None))
    out += [
        (g, "enumerate", f"{g}:enumerate_graphs", None),
        (g, "census", f"{g}:graph_census", _observe_census),
        (g, "structure_counts", f"{g}:structure_counts", None),
        (g, "cycle_check", f"{g}:component_cycle_check", None),
        (g, "hall", f"{g}:satisfies_hall", _observe_hall),
        (g, "to_multigraph", f"{g}:to_multigraph", None),
        (g, "from_multigraph", f"{g}:from_multigraph", None),
        (pt, "count", f"{pt}:PartialPermutohedron.count_lattice_points", _observe_count),
        (pt, "parking", f"{pt}:count_parking_functions", None),
        (pt, "contains", f"{pt}:PartialPermutohedron.contains", None),
    ]
    for op, name in (
        ("closed", "ehrhart_closed"),
        ("recurrence", "ehrhart_recurrence"),
        ("egf", "ehrhart_egf"),
        ("egf-tree", "ehrhart_egf_tree"),
        ("graphsum", "ehrhart_graphsum"),
        ("postnikov", "ehrhart_postnikov"),
        ("fpoly", "f_polynomial"),
    ):
        out.append((e, op, f"{e}:{name}", _observe_output_poly))
    for op, name in (
        ("compute", "compute_ehrhart"),
        ("volume", "volume_closed"),
        ("tree_function", "tree_function"),
        ("transfer_check", "coefficient_transfer_check"),
    ):
        out.append((e, op, f"{e}:{name}", None))
    for op, name in (
        ("engine_agreement", "check_engine_agreement"),
        ("oracle_agreement", "check_oracle_agreement"),
        ("volume", "check_volume"),
        ("structure_counts", "check_structure_counts"),
        ("bijection", "check_bijection"),
        ("transfer_identity", "check_transfer_identity"),
        ("run_all", "run_all"),
    ):
        out.append((v, op, f"{v}:{name}", None))
    out.append(("cli", "main", "cli:main", None))
    return out


TARGETS = _targets()

POLY_OPS = ("poly_mul", "poly_add", "poly_pow", "poly_eval", "laurent_mul", "laurent_add", "laurent_div")
SERIES_OPS = ("mul", "add", "exp", "log", "sqrt", "compose")
ENGINES = ("closed", "recurrence", "egf", "egf-tree", "graphsum", "postnikov")
VERIFY_CHECKS = (
    "engine_agreement", "oracle_agreement", "volume",
    "structure_counts", "bijection", "transfer_identity",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass, by metric name.

    Metrics of an operation whose target was absent are ``None``."""
    absent_ops = set()
    for layer, op, where, _ in TARGETS:
        if where in tracer.absent:
            absent_ops.add((layer, op))
    out: dict[str, float | None] = {}

    def put(name, layer, op, value):
        out[name] = None if (layer, op) in absent_ops else value

    def op(layer, name):
        return tracer.ops[(layer, name)]

    def layer_self(layer):
        return tracer.layers[layer].self_s

    for name in POLY_OPS:
        st = op("polynomials", name)
        put(f"polynomials.{name}.calls", "polynomials", name, st.calls)
        put(f"polynomials.{name}.self_s", "polynomials", name, st.self_s)
    out["polynomials.self_s"] = layer_self("polynomials")
    out["polynomials.result_max_bits"] = max(
        op("ehrhart", name).extra.get("max_bits", 0) for name in ENGINES + ("fpoly",)
    )

    for name in SERIES_OPS:
        st = op("series", name)
        put(f"series.{name}.calls", "series", name, st.calls)
        put(f"series.{name}.self_s", "series", name, st.self_s)
    out["series.busy_s"] = tracer.layers["series"].busy_s
    put("series.compose.busy_s", "series", "compose", op("series", "compose").busy_s)

    st = op("graphs", "enumerate")
    put("graphs.enumerate.calls", "graphs", "enumerate", st.calls)
    put("graphs.enumerate.graphs", "graphs", "enumerate", st.items)
    put("graphs.enumerate.busy_s", "graphs", "enumerate", st.busy_s)
    put("graphs.enumerate.graphs_per_s", "graphs", "enumerate", _ratio(st.items, st.busy_s))
    st = op("graphs", "census")
    put("graphs.census.calls", "graphs", "census", st.calls)
    put("graphs.census.busy_s", "graphs", "census", st.busy_s)
    put(
        "graphs.census.cold_graphs_per_s", "graphs", "census",
        _ratio(st.extra.get("cold_graphs", 0), st.extra.get("cold_s", 0.0)),
    )
    st = op("graphs", "structure_counts")
    put("graphs.structure_counts.calls", "graphs", "structure_counts", st.calls)
    put("graphs.structure_counts.busy_s", "graphs", "structure_counts", st.busy_s)
    st = op("graphs", "cycle_check")
    put("graphs.cycle_check.calls", "graphs", "cycle_check", st.calls)
    put("graphs.cycle_check.self_s", "graphs", "cycle_check", st.self_s)
    st = op("graphs", "hall")
    put("graphs.hall.calls", "graphs", "hall", st.calls)
    put("graphs.hall.self_s", "graphs", "hall", st.self_s)
    put("graphs.hall.feasible_ratio", "graphs", "hall", _ratio(st.hits, st.calls))
    out["graphs.self_s"] = layer_self("graphs")

    st = op("polytope", "count")
    box = st.extra.get("box", 0)
    put("polytope.count.calls", "polytope", "count", st.calls)
    put("polytope.count.busy_s", "polytope", "count", st.busy_s)
    put("polytope.count.points", "polytope", "count", st.items)
    put("polytope.count.points_per_s", "polytope", "count", _ratio(st.items, st.busy_s))
    put("polytope.count.box_computed", "polytope", "count", box)
    put("polytope.count.box_computed_per_s", "polytope", "count", _ratio(box, st.busy_s))
    st = op("polytope", "parking")
    put("polytope.parking.calls", "polytope", "parking", st.calls)
    put("polytope.parking.busy_s", "polytope", "parking", st.busy_s)
    st = op("polytope", "contains")
    put("polytope.contains.calls", "polytope", "contains", st.calls)
    put("polytope.contains.self_s", "polytope", "contains", st.self_s)
    out["polytope.self_s"] = layer_self("polytope")

    for name in ENGINES:
        st = op("ehrhart", name)
        put(f"ehrhart.{name}.busy_s", "ehrhart", name, st.busy_s)
        put(f"ehrhart.{name}.self_s", "ehrhart", name, st.self_s)
    out["ehrhart.self_s"] = layer_self("ehrhart")

    for name in VERIFY_CHECKS:
        put(f"verify.{name}.busy_s", "verify", name, op("verify", name).busy_s)
    out["verify.self_s"] = layer_self("verify")

    st = op("cli", "main")
    put("cli.main.calls", "cli", "main", st.calls)
    put("cli.main.self_s", "cli", "main", st.self_s)
    out["trace.spans"] = tracer.spans
    return out
