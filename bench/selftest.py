"""Self-test of the benchmark harness; stdlib only, about half a minute.

    python3 bench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that each
result carries exactly the metric names and units ``BENCHMARK.json`` lists,
that no published metric reads 0, and that every job is correct. Then it
shows that faults count in ``fail_share``: a stdout byte flipped by the
harness, and a job that exits 3 on a safety cap. Exits 0 when every check
holds.
"""

from __future__ import annotations

import sys

import run
import tracer
import workloads


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(workloads.NAMES), f"workloads {names} != {workloads.NAMES}")
    known = set(tracer.metric_names()) | {f"{m}.self_s" for m in run.MODULES}
    known |= {"traced_wall_s", "trace.overhead_ratio"}
    unknown = set(run.units(spec, "per_layer")) - known
    expect(not unknown, f"unknown per-layer names {unknown}")


def check_result(detail: dict, expected_units: dict) -> None:
    result = detail["result"]
    label = f"{detail['workload']} trace={detail['trace']}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(units == expected_units, f"{label}: metric names or units {units}")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           f"{label}: non-numeric metric")
    expect(result["correct"] and result["failed"] == 0, f"{label}: failures {detail['failures'][:3]}")
    zeros = [name for name, m in result["metrics"].items() if m["value"] <= 0]
    expect(not zeros, f"{label}: published metrics that read 0: {zeros}")
    expect(detail.get("trace_missing", []) == [], f"{label}: tracer lost {detail.get('trace_missing')}")


def main() -> int:
    spec = run.load_spec()
    check_spec(spec)
    for name in workloads.NAMES:
        for trace in (False, True):
            detail = run.run_workload(spec, name, workloads.DEFAULT_SEED, 0.5, trace, size="toy")
            check_result(detail, run.units(spec, "per_layer" if trace else "end_to_end"))
            print(f"ok   {name:<12} trace={int(trace)} {detail['passes']} passes", file=sys.stderr)

    # the harness flips the first stdout byte of job 0 in every pass
    detail = run.run_workload(spec, "deep-tables", workloads.DEFAULT_SEED, 0.5, False, size="toy",
                              flip=[0])
    expect(detail["result"]["failed"] == detail["passes"], "flipped byte not counted once per pass")
    expect(not detail["result"]["correct"], "flipped byte left the run correct")
    expect(detail["fail_share"] > 0, "flipped byte not in fail_share")
    print("ok   a flipped stdout byte counts in fail_share", file=sys.stderr)

    # one past the composition cap: the CLI exits 3
    capped = ["compute", "--N", "1", "--n-max", "23", "--method", "compositions"]
    detail = run.run_workload(spec, "enum-caps", workloads.DEFAULT_SEED, 0.5, False, size="toy",
                              extra_jobs=[capped])
    reasons = [f["reason"] for f in detail["failures"]]
    expect(len(reasons) == detail["passes"] and all(r.startswith("exit code 3") for r in reasons),
           f"capped job not counted: {reasons}")
    expect(detail["fail_share"] == 1 / (len(detail["argv"])), "fail_share of the capped job")
    print("ok   a job exiting 3 on a cap counts in fail_share", file=sys.stderr)
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
