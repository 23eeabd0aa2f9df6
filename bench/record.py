"""Measure every workload and write a results record.

    python3 bench/record.py [--seeds 1 2 ...] [--label L]

For every workload and each seed this makes one untraced run of
``run_seconds`` (from ``BENCHMARK.json``), exactly as ``run.py`` does, and
for the first seed one traced run. It prints one table with
``wall_ref_s``, ``wall_s`` (the raw clock), ``setup_s``, ``peak_rss_mib`` and
``fail_share`` per workload, with units, plus the spread across seeds (quartile distance over
median), and writes ``results/BENCH_<label>.json``: machine, commit, seeds,
argv lists, every raw sample with its quartiles, and the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def spread(values: list[float]) -> float:
    """Quartile distance over median; 0 for one value or an all-zero list."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[workloads.DEFAULT_SEED])
    parser.add_argument("--label", default=None, help="file label (default: short commit)")
    args = parser.parse_args()

    sha = commit()
    record = {"commit": sha, "machine": machine(), "seconds": seconds, "seeds": args.seeds,
              "default_seed": workloads.DEFAULT_SEED, "held_out_seed": workloads.HELD_OUT_SEED,
              "workloads": {}}
    for name in workloads.NAMES:
        runs = []
        for seed in args.seeds:
            detail = run.run_workload(spec, name, seed, seconds, False)
            run.print_summary(detail)
            runs.append(detail)
        traced = run.run_workload(spec, name, args.seeds[0], seconds, True)
        record["workloads"][name] = {"runs": runs, "traced": traced}

    for entry in record["workloads"].values():
        first = entry["runs"][0]["end_to_end"]
        per_run = {m: [r["end_to_end"][m]["median"] for r in entry["runs"]] for m in first}
        per_run["fail_share"] = [r["fail_share"] for r in entry["runs"]]
        unit_of = {m: s["unit"] for m, s in first.items()} | {"fail_share": "ratio"}
        entry["across_seeds"] = {
            metric: dict(run.summarize(values), spread=spread(values), unit=unit_of[metric])
            for metric, values in per_run.items()
        }
    label = args.label or sha[:7]
    out_dir = run.BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{label}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path.relative_to(run.ROOT)}", file=sys.stderr)

    print(f"{'workload':<12} {'metric':<13} {'unit':<5} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'runs':>4}")
    for name, entry in record["workloads"].items():
        for metric, s in entry["across_seeds"].items():
            print(f"{name:<12} {metric:<13} {s['unit']:<5} {s['median']:>10.5g} {s['q1']:>10.5g} "
                  f"{s['q3']:>10.5g} {s['spread']:>7.3f} {s['n']:>4}")
    print("tracing overhead (traced wall_s / untraced wall_s): " + ", ".join(
        f"{name} {entry['traced']['per_layer']['trace.overhead_ratio']:.3f}"
        for name, entry in record["workloads"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
