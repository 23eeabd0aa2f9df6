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
"""

from .cauchy import (
    CauchyTable,
    c_closed_form,
    c_via_compositions,
    c_via_determinant,
    c_via_recurrence,
    c_via_series,
    c_via_trudi,
    classical_bernoulli_det,
    classical_euler_det,
    hgc_generating_series,
    ratio_inversion,
)
from .combinat import (
    STRICT_COMPOSITION_CAP,
    composition_sum,
    multinomial,
    strict_compositions,
    weak_composition_sum,
    weak_compositions,
)
from .errors import CapExceeded, OrderExceeded, ZeroConstantTerm
from .hessenberg import (
    HessenbergSpec,
    PARTITION_CAP,
    determinant_sequence,
    determinant_inversion_roundtrip,
    enumerate_partition_multiplicities,
    hessenberg_det,
    trudi_sequence,
    trudi_sum,
    unit_lower_toeplitz_inverse,
)
from .higher import (
    WeightTable,
    chor_closed_form,
    chor_via_convolution,
    chor_via_determinant,
    chor_via_explicit,
    chor_via_recurrence,
    chor_via_trudi,
    D_inversion,
    weight_D,
    weight_D_by_enumeration,
    weight_reference_form,
    weight_reference_mismatches,
)
from .relations import (
    CHAIN_CAP,
    ChainIndex,
    chain_example_first,
    chain_example_second,
    chain_sum,
    cross_order_step,
    descending_chains,
)
from .report import VerificationReport
from .series import (
    TruncatedSeries,
    cameron_inverse,
    cameron_transform,
    log1p_series,
)
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suites

__version__ = "0.1.0"

__all__ = [
    "CauchyTable",
    "CapExceeded",
    "ChainIndex",
    "CHAIN_CAP",
    "DEFAULT_SEED",
    "D_inversion",
    "HessenbergSpec",
    "OrderExceeded",
    "PARTITION_CAP",
    "STRICT_COMPOSITION_CAP",
    "SUITE_NAMES",
    "TruncatedSeries",
    "VerificationReport",
    "WeightTable",
    "ZeroConstantTerm",
    "c_closed_form",
    "c_via_compositions",
    "c_via_determinant",
    "c_via_recurrence",
    "c_via_series",
    "c_via_trudi",
    "cameron_inverse",
    "cameron_transform",
    "chain_example_first",
    "chain_example_second",
    "chain_sum",
    "chor_closed_form",
    "chor_via_convolution",
    "chor_via_determinant",
    "chor_via_explicit",
    "chor_via_recurrence",
    "chor_via_trudi",
    "classical_bernoulli_det",
    "classical_euler_det",
    "composition_sum",
    "cross_order_step",
    "descending_chains",
    "determinant_sequence",
    "determinant_inversion_roundtrip",
    "enumerate_partition_multiplicities",
    "hgc_generating_series",
    "hessenberg_det",
    "log1p_series",
    "multinomial",
    "ratio_inversion",
    "run_suites",
    "strict_compositions",
    "trudi_sequence",
    "trudi_sum",
    "unit_lower_toeplitz_inverse",
    "weak_composition_sum",
    "weak_compositions",
    "weight_D",
    "weight_D_by_enumeration",
    "weight_reference_form",
    "weight_reference_mismatches",
]
