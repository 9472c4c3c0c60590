"""Shared error types, budgets and the integer-argument check."""


class BudgetError(RuntimeError):
    """Raised when a computation would exceed its resource budget."""


DEFAULT_POINT_BUDGET = 10**8  # lattice DP work bound per count, or items per listing
DEFAULT_GRAPH_BOUND = 7  # largest vertex count for multigraph enumeration


def require_int(**values):
    """Reject, with ValueError, any value that is not an int; a bool is not
    an integer argument."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")
