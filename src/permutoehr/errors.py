"""Shared error types."""


class BudgetError(RuntimeError):
    """Raised when a computation would exceed its resource budget."""


DEFAULT_POINT_BUDGET = 10**8  # lattice DP work bound per count, or items per listing
DEFAULT_GRAPH_BOUND = 7  # largest vertex count for multigraph enumeration
