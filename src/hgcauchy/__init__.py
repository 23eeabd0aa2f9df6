"""Exact arithmetic for hypergeometric Cauchy numbers.

The package computes the numbers c(N, n) defined by the reciprocal of the
Gauss hypergeometric series 2F1(1, N; N+1; -x), and their order-r
generalization, by several routes: series reciprocal, the defining
recurrence, Toeplitz-Hessenberg determinants, composition sums, and a
multinomial expansion over partitions. The first three share one exact
triangular Toeplitz solve; the composition and partition sums share no
arithmetic with it and are the independent cross-checks. Agreement between
routes, together with inversion round trips and classical specializations
(Bernoulli numbers of the second kind at N = 1), is what the verification
suites check.

Everything is a stdlib Fraction; no floats anywhere.

The package exports the ``__all__`` of each computation module (``cauchy``,
``combinat``, ``errors``, ``hessenberg``, ``higher``, ``relations``,
``series``), together with :class:`VerificationReport` and the suite runner
:func:`run_suites` with its ``DEFAULT_SEED`` and ``SUITE_NAMES``. A new
public name goes only into its module's ``__all__``.
"""

from .cauchy import *
from .combinat import *
from .errors import *
from .hessenberg import *
from .higher import *
from .relations import *
from .series import *
from .report import VerificationReport
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suites

__version__ = "0.1.0"

# importing a submodule binds its name here, as in asyncio's __init__
__all__ = (
    cauchy.__all__
    + combinat.__all__
    + errors.__all__
    + hessenberg.__all__
    + higher.__all__
    + relations.__all__
    + series.__all__
    + ["VerificationReport", "DEFAULT_SEED", "SUITE_NAMES", "run_suites"]
)
