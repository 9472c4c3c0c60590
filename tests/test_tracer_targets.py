"""The benchmark's tracer finds every package name its metrics read.

``perfbench/tracer.py`` patches callables by name; a name the package no
longer has is recorded as absent and turns its metrics into ``None``, so a
rename or deletion in the package would blank the traced run's figures.
"""

import importlib.util
from pathlib import Path

import pytest

import permutoehr.cli  # noqa: F401  (every module the tracer patches is loaded)
from permutoehr.ehrhart import compute_ehrhart

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# targets that no metric reads and that the package no longer has
KNOWN_ABSENT = {"polynomials:multinomial", "series:TruncatedSeries.map_coeffs"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_metric_target_is_present():
    tr = load_tracer()
    tracer = tr.Tracer()
    tracer.install(tr.TARGETS)
    try:
        assert set(tracer.absent) <= KNOWN_ABSENT
        metrics = tr.layer_metrics(tracer)
        assert [name for name, value in metrics.items() if value is None] == []
        compute_ehrhart(3, 3, "egf")
        assert tracer.ops[("ehrhart", "egf")].calls == 1
    finally:
        tracer.uninstall()
    compute_ehrhart(3, 3, "egf")
    assert tracer.ops[("ehrhart", "egf")].calls == 1


@pytest.mark.parametrize("method", ("graphsum", "postnikov"))
def test_combinatorial_engine_counted_under_its_op(method):
    tr = load_tracer()
    tracer = tr.Tracer()
    tracer.install(tr.TARGETS)
    try:
        compute_ehrhart(4, 4, method)
        assert tracer.ops[("ehrhart", method)].calls == 1
        assert tr.layer_metrics(tracer)[f"ehrhart.{method}.busy_s"] > 0
    finally:
        tracer.uninstall()
