"""Typed errors shared across the package."""


class AlgebraError(ValueError):
    """Base class for algebraic misuse (bad operands, bad structure)."""


class BackendMismatch(AlgebraError):
    """Two operands live in different operator algebras."""


class DimensionMismatch(AlgebraError):
    """Matrix or tensor-slot dimensions do not line up."""


class SingularOperator(AlgebraError):
    """An inverse was requested where none exists."""


class UnsupportedOrder(AlgebraError):
    """A closed form was requested beyond the orders it covers."""


def check_order(order, least: int = 0, error=UnsupportedOrder):
    """Raise `error` unless `order` is a plain int, not a bool, of at least
    `least`, the least order its entry point takes."""
    if type(order) is not int or order < least:
        raise error(f"truncation order must be an int >= {least}, got {order!r}")


class InsufficientSamples(AlgebraError):
    """A sampled polynomial check was given fewer points than its degree needs."""
