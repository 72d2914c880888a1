"""Exception types shared across the package.

The command line maps these onto exit codes: parse failures give 2, busted
budgets give 3, and internal invariant violations give 4.
"""

from __future__ import annotations


class GroupCoverError(Exception):
    """Base class for all package-specific errors."""


class ParseError(GroupCoverError, ValueError):
    """Bad textual input (cycle notation, group files, catalog specs)."""

    def __init__(self, message: str, token: str | None = None):
        super().__init__(message)
        self.token = token


class CycleSyntaxError(ParseError):
    """Cycle notation that does not scan: unbalanced parens, stray tokens."""


class PointOutOfRangeError(ParseError):
    """A cycle mentions a point outside 1..degree."""


class RepeatedPointError(ParseError):
    """A point occurs twice in one permutation's cycle notation."""


class GroupFileError(ParseError):
    """A group file line that cannot be interpreted."""

    def __init__(self, message: str, line_no: int, token: str | None = None):
        super().__init__(f"line {line_no}: {message}", token)
        self.line_no = line_no


class SpecError(ParseError):
    """An unrecognized or malformed catalog spec string."""


class CapExceededError(GroupCoverError):
    """Element enumeration refused because the group is larger than the cap.

    Carries both numbers so a caller can decide to retry with a raised cap.
    """

    def __init__(self, order: int, cap: int):
        super().__init__(f"group order {order} exceeds element table cap {cap}")
        self.order = order
        self.cap = cap


class BudgetExhaustedError(GroupCoverError):
    """A bounded search ran out of its operation budget before finishing.

    ``lower`` and ``upper`` hold the best interval known at the point of
    exhaustion when the search was an optimization; either may be None.
    """

    def __init__(self, what: str, budget: int, lower=None, upper=None):
        msg = f"{what} budget of {budget} exhausted"
        if lower is not None or upper is not None:
            msg += f" (best interval [{lower}, {upper}])"
        super().__init__(msg)
        self.what = what
        self.budget = budget
        self.lower = lower
        self.upper = upper


class CyclicGroupError(GroupCoverError):
    """Raised where a cover instance is requested for a cyclic group.

    Cyclic groups are not unions of proper subgroups; the covering number is
    infinite and no instance exists.
    """


class InvariantError(GroupCoverError):
    """An internal consistency check failed; results must not be trusted."""
