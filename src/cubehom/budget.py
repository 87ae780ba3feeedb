"""Soft time budgets for long-running computations.

A budget is a wall-clock deadline checked cooperatively from inner loops
(cube enumeration, echelon reduction).  When the deadline passes, the
current operation raises BudgetExhausted; callers report partial results
as incomplete instead of returning silently truncated answers.
"""

import time

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
    set_deadline(None if seconds is None else time.monotonic() + seconds)


def deadline():
    """The soft deadline, a system-wide `time.monotonic()` value, or None."""
    return _deadline


def set_deadline(when):
    """Install a deadline read by `deadline()`, as worker processes do
    first with the one in their job arguments; None clears it."""
    global _deadline
    _deadline = when


def clear_time_budget():
    set_time_budget(None)


def checkpoint():
    """Raise BudgetExhausted if the soft deadline has passed."""
    if _deadline is not None and time.monotonic() > _deadline:
        raise BudgetExhausted("soft time budget exhausted")
