"""Every budget refusal goes through one helper, and every listed
multigraph or sequence through one builder.

A route states its work estimate and ``errors.refuse_above_budget``
compares it with the budget and words the refusal; the graph counts keep
their vertex bound in ``graphs._check_enum_bound``.  No other code of the
package builds a ``BudgetError``, so no refusal can drift in its wording
or in how it states a count past 2^64.

The members the package makes from parts it knows valid (the listings, the
bijection and the extended box of ``verify``) are built by
``graphs._member``, without the public constructors' checks.  No code of
the package calls ``Multigraph(...)`` or ``EdgeMultiplicities(...)``, so no
change can quietly bring back the per-member re-validation.
"""

import ast
from pathlib import Path

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
    assert callers("BudgetError") == {
        ("errors.py", "refuse_above_budget"),
        ("graphs.py", "_check_enum_bound"),
    }


def test_members_built_only_by_the_private_builder():
    assert callers("Multigraph", "EdgeMultiplicities") == set()
    assert callers("_member") == {
        ("graphs.py", "to_multigraph"),
        ("graphs.py", "from_multigraph"),
        ("graphs.py", "enumerate_graphs"),
        ("graphs.py", "enumerate_sequences"),
        ("verify.py", "check_bijection"),
    }
