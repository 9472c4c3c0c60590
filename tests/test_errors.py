"""Every budget refusal goes through one helper, and every listed
multigraph or sequence through one builder.

A route states its work estimate and ``errors.refuse_above_budget``
reads the budget, compares the estimate with it and words the refusal: the
listings too, on the entries they build, with no vertex bound of their own.
No other code of the package builds a ``BudgetError`` or reads the budget, and
no function takes one as an argument, so no refusal can drift in its
wording or in how it states a count past 2^64.  Each route refuses itself
and the command line refuses nothing, so a library call keeps to
``PERMUTOEHR_BUDGET`` as the command line does.

The members the package makes from parts it knows valid (the listings, the
bijection and the extended box of ``verify``) are built by
``graphs._member``, without the public constructors' checks.  No code of
the package calls ``Multigraph(...)`` or ``EdgeMultiplicities(...)``, so no
change can quietly bring back the per-member re-validation.
"""

import ast
from pathlib import Path

import pytest

from permutoehr import ehrhart, graphs, verify
from permutoehr.errors import BudgetError
from permutoehr.polytope import PartialPermutohedron, count_parking_functions

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permutoehr"


def callers(*names: str) -> set[tuple[str, str | None]]:
    """(module file, innermost enclosing function or None) of every call in
    the package of a callable named, or reached as an attribute named, one
    of ``names``."""
    found = set()

    def walk(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if {getattr(callee, "id", None), getattr(callee, "attr", None)} & set(names):
                found.add((module, scope))
        for child in ast.iter_child_nodes(node):
            walk(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.name, None)
    return found


def test_budget_error_built_only_by_the_one_refusal():
    assert callers("BudgetError") == {("errors.py", "refuse_above_budget")}


def test_members_built_only_by_the_private_builder():
    assert callers("Multigraph", "EdgeMultiplicities") == set()
    assert callers("_member") == {
        ("graphs.py", "to_multigraph"),
        ("graphs.py", "from_multigraph"),
        ("graphs.py", "enumerate_graphs"),
        ("graphs.py", "enumerate_sequences"),
        ("verify.py", "check_bijection"),
    }


def test_budget_read_only_where_it_is_compared():
    assert callers("point_budget") == {
        ("errors.py", "refuse_above_budget"),
        ("errors.py", "refuse_past_floor"),
    }
    takes_budget = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
                names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
                if "budget" in names:
                    takes_budget.add((path.name, getattr(node, "name", "<lambda>")))
    assert takes_budget == set()
    # every route refuses itself: the command line refuses nothing
    refusing = callers("refuse_above_budget", "refuse_past_floor")
    assert "cli.py" not in {module for module, _ in refusing}
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(cli)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# each public route at a small input, with the work estimate it is refused on
# (at m = 3 a formula route's operands fit in one word: its estimate is its
# loop count)
ROUTES = {
    "ehrhart_closed": (lambda: ehrhart.ehrhart_closed(3, 3), 9),
    "ehrhart_recurrence": (lambda: ehrhart.ehrhart_recurrence(3, 3), 9),
    "ehrhart_egf": (lambda: ehrhart.ehrhart_egf(3, 3), 9),
    "ehrhart_egf_tree": (lambda: ehrhart.ehrhart_egf_tree(3, 3), 9),
    "volume_closed": (lambda: ehrhart.volume_closed(3, 3), 3),
    "f_polynomial": (lambda: ehrhart.f_polynomial(3, 3), 9),
    "f_polynomial_stable": (lambda: ehrhart.f_polynomial_stable(3), 27),
    "vertices": (lambda: list(PartialPermutohedron(3, 3).vertices()), 48),
    "facets": (lambda: PartialPermutohedron(3, 3).facets(), 30),
    "enumerate_graphs": (lambda: list(graphs.enumerate_graphs(2)), 24),
    # the Hall DP's estimate, 48, binds before the listing's 24 entries
    "enumerate_sequences": (lambda: list(graphs.enumerate_sequences(2)), 48),
    "graph_census": (lambda: graphs.graph_census(2), 18),
    "structure_counts": (lambda: graphs.structure_counts(2), 18),
    "sequence_census": (lambda: graphs.sequence_census(3), 384),
    "ehrhart_graphsum": (lambda: ehrhart.ehrhart_graphsum(2, 2), 18),
    "ehrhart_postnikov": (lambda: ehrhart.ehrhart_postnikov(3, 3), 384),
    "compute_ehrhart": (lambda: ehrhart.compute_ehrhart(3, 3, "postnikov"), 384),
    "count_lattice_points": (lambda: PartialPermutohedron(4, 4).count_lattice_points(2), 3360),
    "count_parking_functions": (lambda: count_parking_functions(3), 96),
    "check_oracle_agreement": (lambda: verify.check_oracle_agreement(2, 1), 192),
    "run_all": (lambda: verify.run_all(1, 1), 40),
}
# the listings state the entries they build as "<count> <units>": 16
# vertices and 10 facets of 3 each, 8 graphs of 2 loops and 1 pair each
LISTED = {
    "vertices": "vertex entries",
    "facets": "facet coefficients",
    "enumerate_graphs": "graph entries",
}


@pytest.mark.parametrize("name", ROUTES)
def test_library_keeps_to_the_budget_variable(monkeypatch, name):
    route, work = ROUTES[name]
    expected = route()
    monkeypatch.setenv("PERMUTOEHR_BUDGET", str(work))
    assert route() == expected
    monkeypatch.setenv("PERMUTOEHR_BUDGET", str(work - 1))
    stated = f"^{work} {LISTED[name]}" if name in LISTED else f"= {work}"
    with pytest.raises(BudgetError, match=f"{stated} exceeds budget {work - 1}$"):
        route()
