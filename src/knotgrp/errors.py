"""Exception types shared across the package, and the default budget."""

#: Default budget for homomorphism enumeration, in assignments.
DEFAULT_MAX_EVALS = 10**8


class KnotGrpError(Exception):
    """Base class for all errors raised by this package."""


class InputError(KnotGrpError):
    """Invalid input: bad notation, domain violations, failed validation."""


class BudgetError(KnotGrpError):
    """A computation would exceed its configured resource budget."""
