"""Exceptions shared across the exact-computation modules, and the input
rules: :func:`_integer` for integers, :func:`_size` for sizes, and
:func:`_within_cap`, the one cap check (a cap is None or a non-negative int)."""

from __future__ import annotations

import operator

__all__ = ["ZeroConstantTerm", "OrderExceeded", "CapExceeded"]


class ZeroConstantTerm(ArithmeticError):
    """Reciprocal requested for a series whose constant term is zero."""


class OrderExceeded(ValueError):
    """Derivative order larger than the truncation order of the operand."""


class CapExceeded(ValueError):
    """An enumeration was requested past its safety cap.

    The exhaustive expansions (strict compositions, partition multisets,
    descending chains) grow exponentially; the caps bound accidental misuse.
    Callers that really want the full enumeration pass ``cap=None``; any
    other cap is a non-negative int, checked by :func:`_within_cap`.
    """

    def __init__(self, what: str, requested: int, cap: int):
        super().__init__(
            f"{what}: size {requested} exceeds the safety cap {cap} "
            f"(pass cap=None, or --unsafe-caps on the command line, to override)"
        )
        self.what = what
        self.requested = requested
        self.cap = cap


def _integer(value, name: str) -> int:
    """``value`` as an int: a bool or a value without ``__index__`` (a float,
    a Fraction) raises TypeError naming the argument ``name``."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None


def _size(value, name: str) -> int:
    """:func:`_integer`, and a negative ``value`` raises ValueError."""
    value = _integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def _within_cap(what: str, size: int, cap: int | None) -> None:
    """Raise :class:`CapExceeded` when ``size`` is past a ``cap`` that is not
    None; the cap itself meets the :func:`_size` rule."""
    if cap is not None and size > _size(cap, "cap"):
        raise CapExceeded(what, size, cap)
