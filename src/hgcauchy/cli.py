"""Command-line interface.

Three subcommands: ``compute`` prints a number table, ``verify`` runs the
identity suites, ``invert`` walks a determinant round trip. All output is a
pure function of the flags, so repeated runs are byte-identical, and exact
values appear as "p/q" strings, never floats.

``compute --method`` runs a route of :data:`hgcauchy.higher.ROUTES`, which
also gives its safety cap and whether it takes ``--r`` above 1.

Exit codes: 0 success, 1 failed identity or round trip, 2 invalid flags
(also ``--r`` above 1 for a first-order ``--method`` or ``--rule``, and
``--N`` other than 1 under ``--rule cauchy``), 3 safety cap exceeded, 141
(128 + SIGPIPE) when the reader closes stdout before the output is written,
with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import higher
from .combinat import STRICT_COMPOSITION_CAP
from .errors import CapExceeded
from .hessenberg import PARTITION_CAP, _inversion_chain
from .relations import CHAIN_CAP
from .report import VerificationReport
from .verify import SUITE_NAMES, run_suites

__all__ = ["main", "build_parser"]


def _at_least(low: int):
    """The argparse ``type=`` of an integer flag bounded below by ``low``."""
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgcauchy",
        description="Exact tables and identity checks for hypergeometric "
        "Cauchy numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="print a table of c(N, n) or c^(r)(N, n) values"
    )
    p_compute.add_argument(
        "--N", type=_at_least(1), required=True, help="parameter N >= 1"
    )
    p_compute.add_argument(
        "--n-max", type=_at_least(0), required=True, help="largest index n >= 0"
    )
    p_compute.add_argument(
        "--r", type=_at_least(1), default=1, help="order r >= 1 (default 1)"
    )
    p_compute.add_argument(
        "--method",
        choices=tuple(higher.ROUTES),
        default="recurrence",
        help="computation route (default recurrence)",
    )
    p_compute.add_argument(
        "--normalized",
        action="store_true",
        help="print c/n! instead of c",
    )
    p_compute.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    _add_caps_flag(p_compute)
    p_compute.set_defaults(handler=cmd_compute)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument(
        "--suite",
        choices=("all",) + SUITE_NAMES,
        default="all",
        help="which suite to run (default all)",
    )
    p_verify.add_argument(
        "--N-max", type=_at_least(1), default=4, help="largest N (default 4)"
    )
    p_verify.add_argument(
        "--r-max", type=_at_least(1), default=3, help="largest r (default 3)"
    )
    p_verify.add_argument(
        "--n-max", type=_at_least(0), default=12, help="largest index (default 12)"
    )
    p_verify.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )
    _add_caps_flag(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    p_invert = sub.add_parser(
        "invert", help="round-trip a band rule through its determinant sequence"
    )
    p_invert.add_argument(
        "--rule",
        choices=("cauchy", "hgc", "weights"),
        required=True,
        help="band rule: 1/(n+1) (--N 1 only), N/(N+n), or the order-r weights",
    )
    p_invert.add_argument(
        "--N", type=_at_least(1), required=True, help="parameter N >= 1"
    )
    p_invert.add_argument(
        "--r", type=_at_least(1), default=1, help="order r >= 1 (default 1)"
    )
    p_invert.add_argument(
        "--n-max", type=_at_least(1), required=True, help="largest band index n >= 1"
    )
    p_invert.set_defaults(handler=cmd_invert)

    return parser


def _add_caps_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--unsafe-caps",
        action="store_true",
        help="disable the enumeration safety caps "
        f"(compositions n <= {STRICT_COMPOSITION_CAP}, "
        f"partitions m <= {PARTITION_CAP}, chains n <= {CHAIN_CAP})",
    )


def _warn_unsafe(args: argparse.Namespace) -> None:
    if args.unsafe_caps:
        print(
            "warning: safety caps disabled; enumeration cost grows "
            "exponentially with n",
            file=sys.stderr,
        )


def _refuse(
    parser: argparse.ArgumentParser, name: str, value: int, flag: str, use: str
) -> None:
    """Exit 2 when ``--name`` is not 1 for ``flag``, a value that reads
    ``--name 1`` only."""
    if value != 1:
        parser.error(f"{flag} supports --{name} 1 only; use {use}")


def cmd_compute(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    route = higher.ROUTES[args.method]
    if not route.any_order:
        *others, last = (m for m, rt in higher.ROUTES.items() if rt.any_order)
        use = f"{', '.join(others)}, or {last}"
        _refuse(parser, "r", args.r, f"--method {args.method}", use)
    _warn_unsafe(args)

    N, r, n_max = args.N, args.r, args.n_max
    table = route.compute(N, r, n_max, None if args.unsafe_caps else route.cap)

    values = table.normalized() if args.normalized else list(table.values)
    if args.format == "csv":
        for n, value in enumerate(values):
            print(f"{n},{value}")
    else:
        payload = {
            "N": N,
            "r": r,
            "method": args.method,
            "values": [str(v) for v in values],
        }
        print(json.dumps(payload, indent=2))
    return 0


def _format_text_record(record: VerificationReport) -> str:
    N, r, n = record.parameter_point
    line = f"[{record.status}] {record.identity} (N={N}, r={r}, n={n})"
    if record.detail is not None:
        first, second = record.detail
        if record.status == "fail":
            line += f": expected {first}, got {second}"
        else:
            line += f": printed {first}, corrected {second}"
    return line


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _warn_unsafe(args)
    records = run_suites(
        args.suite,
        N_max=args.N_max,
        r_max=args.r_max,
        n_max=args.n_max,
        capped=not args.unsafe_caps,
    )
    counts = {"pass": 0, "fail": 0, "erratum-noted": 0}
    for record in records:
        counts[record.status] += 1

    if args.format == "json":
        payload = {
            "suite": args.suite,
            "N_max": args.N_max,
            "r_max": args.r_max,
            "n_max": args.n_max,
            "records": [record.as_dict() for record in records],
            "counts": counts,
        }
        print(json.dumps(payload, indent=2))
    else:
        for record in records:
            print(_format_text_record(record))
        print(
            f"{len(records)} checks: {counts['pass']} pass, "
            f"{counts['fail']} fail, {counts['erratum-noted']} erratum-noted"
        )
    return 1 if counts["fail"] else 0


def cmd_invert(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.rule != "weights":
        _refuse(parser, "r", args.r, f"--rule {args.rule}", "weights")
    if args.rule == "cauchy":
        _refuse(parser, "N", args.N, "--rule cauchy", "hgc")
    # D_1(n) = N/(N+n); the cauchy rule 1/(n+1) is the hgc rule at N = 1
    rule = list(higher.weight_D(args.N, args.r, args.n_max).values[1:])
    alpha, recovered, bands = _inversion_chain(rule)

    print("n\tR\talpha\trecovered\tinverse_band")
    for row in zip(range(1, args.n_max + 1), rule, alpha, recovered, bands):
        print("\t".join(map(str, row)))
    return 0 if recovered == rule else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args, parser)
        sys.stdout.flush()
        return code
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed the pipe: as the signal module's "Note on
        # SIGPIPE" shows, point stdout at devnull so that the flush at exit
        # cannot raise again, and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
