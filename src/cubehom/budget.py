"""Soft time budgets for long-running computations.

A budget is a wall-clock deadline checked cooperatively from inner loops
(cube enumeration, echelon reduction); the walks and row loops read the
clock on their first node or row and then on every 64th, so a stop lands
within 64 nodes or rows.  When the deadline passes, the current operation
raises BudgetExhausted; callers report partial results as incomplete
instead of returning silently truncated answers.  Every computation runs
in the calling process, so one module-level deadline covers all of it.
"""

import time
from contextlib import contextmanager

_deadline = None


class BudgetExhausted(Exception):
    """Raised when a computation runs past the configured soft time budget."""


class DimensionBudgetError(ValueError):
    """Raised when a computation needs chain data beyond the built dimension."""

    def __init__(self, needed, available, what="chain complex"):
        self.needed = needed
        self.available = available
        super().__init__(
            f"{what} built through dimension {available}, "
            f"but dimension {needed} is required"
        )


def set_time_budget(seconds):
    """Install a soft deadline `seconds` from now; None clears it."""
    global _deadline
    _deadline = None if seconds is None else time.monotonic() + seconds


def clear_time_budget():
    set_time_budget(None)


@contextmanager
def time_budget(seconds):
    """Run the block under the earlier of the installed deadline and
    `seconds` from now (None keeps the installed one), and put the
    installed deadline back on exit, so an inner budget never lifts or
    clears an outer one."""
    global _deadline
    outer = _deadline
    if seconds is not None:
        mine = time.monotonic() + seconds
        _deadline = mine if outer is None else min(outer, mine)
    try:
        yield
    finally:
        _deadline = outer


def checkpoint():
    """Raise BudgetExhausted if the soft deadline has passed."""
    if _deadline is not None and time.monotonic() > _deadline:
        raise BudgetExhausted("soft time budget exhausted")
