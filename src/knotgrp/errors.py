"""Exception types, the default budget and the integer check shared across the package."""

import operator

#: Default budget for homomorphism enumeration, in assignments.
DEFAULT_MAX_EVALS = 10**8


class KnotGrpError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KnotGrpError):
    """Invalid input: bad notation, domain violations, failed validation."""


class BudgetError(KnotGrpError):
    """A computation would exceed its configured resource budget."""


def _integer(value, name: str) -> int:
    """value as an int; InputError unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
