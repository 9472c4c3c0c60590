"""Every benchmark golden, run as a test.

``perfbench/workloads.py`` holds the benchmark's requests and, in
``perfbench/goldens.json``, the sha256 of each one's expected output.
Here every cell of the four workloads is run once through the
benchmark's own ``execute``, in process, and must come out ok: each
command's stdout and exit code, ``structure_counts`` and the
``contains`` answers stay as the goldens recorded them.  The ``verify``
cells are the default ``permutoehr verify --max-m 4 --max-t 2`` output.
The module is loaded from its file and left as it is.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = load_workloads()


def test_every_golden_is_a_cell():
    cells = {req.cell for name in wl.WORKLOADS for req in wl.all_cells(name)}
    assert cells == set(wl.load_goldens()["cells"])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_cell_matches_its_golden(workload):
    goldens = wl.load_goldens()
    requests = wl.all_cells(workload)
    pools = wl.prepare_pools(goldens, requests)
    failed = []
    for req in requests:
        response = wl.execute(req, goldens, pools)
        if not response.ok:
            failed.append(response.error)
    assert requests and failed == []
