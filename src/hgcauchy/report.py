"""Structured outcome records for identity verification.

Every checkable identity in this package reports through
:class:`VerificationReport`, and :func:`check` is the one place where a
check's comparisons become a record: the first mismatch fails at its index,
otherwise the identity passes. ``parameter_point`` is always an ``(N, r, n)``
triple; checks that are not tied to a table point (the generic series-rule
sweeps) use ``N = 0, r = 0`` with ``n`` carrying the truncation order or the
instance count.

``status`` is one of:

* ``pass``: the identity holds exactly at every checked point.
* ``fail``: a genuine mismatch; ``detail`` always carries both exact values.
* ``erratum-noted``: the identity fails as commonly printed in the source
  material it was transcribed from, and the suite verified the corrected form;
  the record documents the literal variant.

``detail`` is an (expected, actual) pair of "p/q" strings on a fail record.
On an erratum-noted record the same slot reads (as printed, corrected), or
``None`` when the two forms happen to coincide numerically.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import _Record

__all__ = ["VerificationReport", "check", "passed", "failed", "erratum"]

_STATUSES = ("pass", "fail", "erratum-noted")


class VerificationReport(_Record):
    __slots__ = ("identity", "parameter_point", "status", "detail")

    def __init__(
        self,
        identity: str,
        parameter_point: tuple[int, int, int],
        status: str,
        detail: tuple[str, str] | None = None,
    ):
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        if status == "fail" and detail is None:
            raise ValueError("a fail record must carry (expected, actual)")
        self._assign(identity, parameter_point, status, detail)

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "parameter_point": list(self.parameter_point),
            "status": self.status,
            "detail": list(self.detail) if self.detail is not None else None,
        }


def passed(identity: str, point: tuple[int, int, int]) -> VerificationReport:
    return VerificationReport(identity, point, "pass")


def failed(identity: str, point: tuple[int, int, int], expected, actual) -> VerificationReport:
    return VerificationReport(identity, point, "fail", (str(expected), str(actual)))


def check(
    identity: str,
    point: tuple[int, int, int],
    cases: Iterable[tuple[int, object, object]],
) -> VerificationReport:
    """The record of ``identity`` checked at every ``(n, expected, actual)``
    of ``cases``, read in order and no further than the first mismatch.

    That mismatch fails at (N, r, n), N and r taken from ``point``; with
    none, the identity passes at ``point``.
    """
    N, r, _ = point
    for n, expected, actual in cases:
        if expected != actual:
            return failed(identity, (N, r, n), expected, actual)
    return passed(identity, point)


def erratum(
    identity: str,
    point: tuple[int, int, int],
    expected=None,
    actual=None,
) -> VerificationReport:
    detail = None
    if expected is not None or actual is not None:
        detail = (str(expected), str(actual))
    return VerificationReport(identity, point, "erratum-noted", detail)
