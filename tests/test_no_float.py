"""No float appears anywhere in the package.

Every number the package returns or prints is exact, so its source holds no
float literal, no true division (``/`` gives a float on two ints) and no
``float(...)`` call, and it takes from ``math`` only integer functions.
Its clocks are the ``_ns`` forms, which count in int nanoseconds: it calls
no ``time`` function that returns float seconds.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permutoehr"
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm"}
FLOAT_CLOCKS = {"time", "monotonic", "perf_counter", "process_time"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_float_in_the_source(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float() call"))
        elif (
            isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "time"
            and node.attr in FLOAT_CLOCKS
        ):
            found.append((node.lineno, f"time.{node.attr}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import math") for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                (node.lineno, f"math.{a.name}") for a in node.names if a.name not in INTEGER_MATH
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            found += [(node.lineno, f"time.{a.name}") for a in node.names if a.name in FLOAT_CLOCKS]
    assert found == []
