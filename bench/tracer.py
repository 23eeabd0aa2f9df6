"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps named functions of the ``hgcauchy`` modules in place.
A name bound in several modules (``from .hessenberg import trudi_sum``), in a
module-level dict (the suite table in ``verify``), or twice on a class
(``__rmul__ = __mul__``) is replaced everywhere it is bound, so every call
path goes through the one wrapper. Four kinds of wrapper:

* ``timed``: calls and self time (inclusive time minus the time of wrapped
  calls made inside it);
* ``suite``: inclusive time and the number of records a suite returned;
* ``counted``: calls only, for functions called too often to time;
* ``items``: tuples yielded by a generator; ``next()`` is not timed, so a
  generator's time counts toward the self time of the span consuming it.

A target that a refactor renamed or removed is listed under ``missing`` and
reports zeros; it never stops the run.
"""

from __future__ import annotations

import functools
import re
import sys
import time

# (module, qualified name, metric prefix, kind)
TARGETS = (
    ("series", "TruncatedSeries.reciprocal", "series.reciprocal", "timed"),
    ("series", "TruncatedSeries.__mul__", "series.mul", "timed"),
    ("series", "TruncatedSeries.power", "series.power", "timed"),
    ("series", "TruncatedSeries.ht_derivative", "series.ht_derivative", "timed"),
    ("series", "cameron_transform", "series.cameron_transform", "timed"),
    ("hessenberg", "determinant_sequence", "hessenberg.determinant_sequence", "timed"),
    (
        "hessenberg",
        "unit_lower_toeplitz_inverse",
        "hessenberg.unit_lower_toeplitz_inverse",
        "timed",
    ),
    ("hessenberg", "trudi_sum", "hessenberg.trudi_sum", "timed"),
    (
        "hessenberg",
        "enumerate_partition_multiplicities",
        "hessenberg.enumerate_partition_multiplicities",
        "timed",
    ),
    ("combinat", "strict_compositions", "combinat.strict_compositions", "items"),
    ("combinat", "weak_compositions", "combinat.weak_compositions", "items"),
    ("cauchy", "c_via_series", "cauchy.c_via_series", "timed"),
    ("cauchy", "c_via_recurrence", "cauchy.c_via_recurrence", "timed"),
    ("cauchy", "c_via_determinant", "cauchy.c_via_determinant", "timed"),
    ("cauchy", "c_via_compositions", "cauchy.c_via_compositions", "timed"),
    ("cauchy", "c_via_trudi", "cauchy.c_via_trudi", "timed"),
    ("higher", "weight_D", "higher.weight_D", "timed"),
    ("higher", "weight_D_by_enumeration", "higher.weight_D_by_enumeration", "timed"),
    ("higher", "chor_via_recurrence", "higher.chor_via_recurrence", "timed"),
    ("higher", "chor_via_determinant", "higher.chor_via_determinant", "timed"),
    ("higher", "chor_via_explicit", "higher.chor_via_explicit", "timed"),
    ("higher", "chor_via_trudi", "higher.chor_via_trudi", "timed"),
    ("higher", "chor_via_convolution", "higher.chor_via_convolution", "timed"),
    ("relations", "chain_sum", "relations.chain_sum", "timed"),
    ("relations", "chain_term", "relations.chain_term", "counted"),
    ("relations", "descending_chains", "relations.descending_chains", "items"),
    ("relations", "cross_order_step", "relations.cross_order_step", "timed"),
    ("verify", "core_suite", "verify.core", "suite"),
    ("verify", "higher_suite", "verify.higher", "suite"),
    ("verify", "relations_suite", "verify.relations", "suite"),
    ("verify", "inversion_suite", "verify.inversion", "suite"),
    ("verify", "series_rules_suite", "verify.series_rules", "suite"),
    ("cli", "main", "cli.main", "timed"),
)

# the partition memo is probed for membership before each enumeration call
MEMO = ("hessenberg", "_partition_memo", "hessenberg.partition_memo")
MEMO_PROBED = "hessenberg.enumerate_partition_multiplicities"

_INTEGER = re.compile(rb"\d+")


def metric_names() -> list[str]:
    """Every per-layer metric a report carries, in a fixed order."""
    names = []
    for _, _, prefix, kind in TARGETS:
        if kind == "timed":
            names += [f"{prefix}.self_s", f"{prefix}.calls"]
        elif kind == "counted":
            names.append(f"{prefix}.calls")
        elif kind == "items":
            names.append(f"{prefix}.items")
        else:
            names += [f"{prefix}.wall_s", f"{prefix}.records"]
    names += [
        f"{MEMO[2]}.hit_ratio",
        "cli.stdout_bytes",
        "values.max_bits",
        "trace.missing",
    ]
    return names


class Tracer:
    """Counters and span times for one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = dict.fromkeys(metric_names(), 0)
        self.missing: list[str] = []
        self._memo_lookups = 0
        self._memo_hits = 0
        # child-time accumulators of the open timed spans; index 0 is the root
        self._stack = [0.0]

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "hgcauchy" or name.startswith("hgcauchy.")
        }
        for module_name, qualname, prefix, kind in TARGETS:
            module = modules.get(f"hgcauchy.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(original, prefix, kind)
            if owner_name:
                self._rebind(owner, original, wrapper)
            else:
                for bound_in in modules.values():
                    self._rebind(bound_in, original, wrapper)
        self.stats["trace.missing"] = len(self.missing)

    @staticmethod
    def _rebind(namespace, original, wrapper) -> None:
        for key, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, key, wrapper)
            elif isinstance(value, dict):
                for inner_key, inner in list(value.items()):
                    if inner is original:
                        value[inner_key] = wrapper

    def _wrap(self, fn, prefix: str, kind: str):
        stats, stack = self.stats, self._stack
        if kind == "counted":
            calls = f"{prefix}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[calls] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == "items":
            return self._wrap_generator(fn, f"{prefix}.items")

        if kind == "suite":
            self_key, count_key = f"{prefix}.wall_s", f"{prefix}.records"
        else:
            self_key, count_key = f"{prefix}.self_s", f"{prefix}.calls"
        clock = time.perf_counter
        probe = self._probe_memo if prefix == MEMO_PROBED else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                if kind == "suite":
                    stats[self_key] += elapsed
                else:
                    stats[self_key] += elapsed - children
                    stats[count_key] += 1
            if kind == "suite":
                stats[count_key] += len(result)
            return result

        return timed

    def _wrap_generator(self, fn, key: str):
        stats = self.stats
        # a recursive call made while the outer generator is running would be
        # counted twice; such inner calls get the unwrapped generator
        running = [False]

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            if running[0]:
                return fn(*args, **kwargs)
            return _counted(fn(*args, **kwargs))

        def _counted(inner):
            while True:
                running[0] = True
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    running[0] = False
                stats[key] += 1
                yield item

        return counting

    def _probe_memo(self, args, kwargs) -> None:
        memo = getattr(sys.modules.get(f"hgcauchy.{MEMO[0]}"), MEMO[1], None)
        if not isinstance(memo, dict):
            return
        m = args[0] if args else kwargs.get("m")
        self._memo_lookups += 1
        self._memo_hits += m in memo

    # --- results ----------------------------------------------------------

    def observe_output(self, data: bytes) -> None:
        """Account one job's stdout: its size and its widest printed integer."""
        self.stats["cli.stdout_bytes"] += len(data)
        widest = max((int(tok).bit_length() for tok in _INTEGER.findall(data)), default=0)
        self.stats["values.max_bits"] = max(self.stats["values.max_bits"], widest)

    def report(self) -> dict:
        stats = dict(self.stats)
        if self._memo_lookups:
            stats[f"{MEMO[2]}.hit_ratio"] = self._memo_hits / self._memo_lookups
        memo_module = sys.modules.get(f"hgcauchy.{MEMO[0]}")
        if not isinstance(getattr(memo_module, MEMO[1], None), dict):
            self.missing.append(".".join(MEMO[:2]))
            stats["trace.missing"] = len(self.missing)
        return {"metrics": stats, "missing": self.missing}
