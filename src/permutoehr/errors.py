"""Shared error types, the work budget and the integer-argument check."""

import os


class BudgetError(RuntimeError):
    """Raised when a computation would exceed its resource budget."""


DEFAULT_POINT_BUDGET = 10**8  # default bound on every route's work estimate
DEFAULT_GRAPH_BOUND = 7  # largest vertex count for the graph and sequence listings


def point_budget() -> int:
    """The work budget: ``PERMUTOEHR_BUDGET`` when set, a positive integer,
    else ``DEFAULT_POINT_BUDGET``."""
    raw = os.environ.get("PERMUTOEHR_BUDGET")
    if raw is None:
        return DEFAULT_POINT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"PERMUTOEHR_BUDGET must be an integer, got {raw!r}")
    if budget < 1:
        raise ValueError("PERMUTOEHR_BUDGET must be positive")
    return budget


def _stated(count: int) -> str:
    """A count as a refusal states it: past 2^64 by its size, because str()
    of an int over 4300 digits raises."""
    bits = count.bit_length()
    return str(count) if bits <= 64 else f"more than 2^{bits - 1}"


def refuse_above_budget(work: int, stating: str, *factors: int) -> None:
    """Raise BudgetError when a route's work estimate ``work`` exceeds the
    budget, :func:`point_budget`, read here: the one refusal of every route.

    The message is ``stating`` with its ``{}`` fields filled by ``factors``
    and then ``work``, each stated by :func:`_stated`, followed by
    "exceeds budget <budget>".  Within the budget nothing is formatted."""
    budget = point_budget()
    if work > budget:
        stated = [_stated(count) for count in (*factors, work)]
        raise BudgetError(f"{stating.format(*stated)} exceeds budget {budget}")


def refuse_past_floor(work, stating: str, exponent: int) -> None:
    """Refuse a route through :func:`refuse_above_budget` when its count
    ``work()`` exceeds the budget, for a count known to exceed
    2^exponent.  Past exponent = max(64, budget.bit_length()) the route is
    refused on that floor, stated as "more than 2^exponent" in the ``{}``
    of ``stating``, without calling ``work``."""
    limit = max(64, point_budget().bit_length())
    if exponent > limit:  # work() > 2^exponent > 2^limit > budget
        refuse_above_budget(1 << limit, stating.format("more than 2^{}"), exponent)
    refuse_above_budget(work(), stating)


def require_int(**values):
    """Reject, with ValueError, any value that is not an int; a bool is not
    an integer argument."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name} must be an integer, got {v!r}")
