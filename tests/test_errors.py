"""Every budget refusal goes through one helper.

A route states its work estimate and ``errors.refuse_above_budget``
compares it with the budget and words the refusal; the graph counts keep
their vertex bound in ``graphs._check_enum_bound``.  No other code of the
package builds a ``BudgetError``, so no refusal can drift in its wording
or in how it states a count past 2^64.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permutoehr"


def budget_error_builders() -> set[tuple[str, str | None]]:
    """(module file, innermost enclosing function or None) of every
    ``BudgetError(...)`` call in the package."""
    found = set()

    def walk(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            if "BudgetError" in (getattr(callee, "id", None), getattr(callee, "attr", None)):
                found.add((module, scope))
        for child in ast.iter_child_nodes(node):
            walk(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.name, None)
    return found


def test_budget_error_built_only_by_the_one_refusal():
    assert budget_error_builders() == {
        ("errors.py", "refuse_above_budget"),
        ("graphs.py", "_check_enum_bound"),
    }
