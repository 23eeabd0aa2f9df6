"""Exact rational scalars and their canonical string form.

``fractions.Fraction`` already is the exact normalized rational this package
needs (lowest terms, positive denominator), so it is used directly; the helpers
here pin down the one serialization used everywhere: ``p/q``, or just ``p``
when the denominator is 1, with the sign on the numerator.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["format_rational", "parse_rational"]


def format_rational(value: Fraction) -> str:
    """Canonical text form of an exact rational."""
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`; accepts ``p`` and ``p/q``."""
    return Fraction(text.strip())
