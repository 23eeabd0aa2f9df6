"""Layered benchmark of the hgcauchy CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass over a workload's jobs is one fresh
interpreter (``worker.py``) that imports ``hgcauchy.cli`` from ``src/`` and
calls ``cli.main(argv)`` once per job, one after another: one client, closed
loop. Passes repeat until ``--seconds`` of passes have run (at least
``MIN_PASSES``). The first pass's stdout goes through the semantic oracles in
``oracle.py``; every pass's stdout digests are compared with ``golden.json``.
While the passes run, ``speed.py`` samples the machine's speed on the other
core; ``wall_ref_s`` divides each job's time by it (see README.md).

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of the traced passes (see ``tracer.py``). Everything else
goes to stderr. Exits 1 without a result when the program cannot be started.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import speed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
SPEC_FILE = ROOT / "BENCHMARK.json"

# a run must end within 180 s; leave room for the oracle and set-up spawns
HARD_LIMIT_S = 140.0
MIN_PASSES = 3
# extra interpreter starts per untraced run, so setup_s is a median of many
SETUP_SPAWNS = 10
# wall_ref_s reads a job's time as if speed.reference() took this long, its
# typical time on the baseline machine (see README.md)
REF_NOMINAL_S = 0.007

MODULES = ("series", "hessenberg", "cauchy", "higher", "relations")


class HarnessError(Exception):
    """The benchmark itself cannot run: no program, or a worker that will not start."""


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads, the run length and the published metrics."""
    with open(SPEC_FILE) as fh:
        return json.load(fh)


def units(spec: dict, kind: str) -> dict[str, str]:
    """Name to unit of the ``end_to_end`` or ``per_layer`` metrics of ``spec``."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_pass(jobs, *, trace=False, keep_output=False, flip=(), deadline: float) -> dict:
    """Spawn one worker, time its start-up, run ``jobs`` in it, collect results."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    request = {"jobs": jobs, "trace": trace, "keep_output": keep_output, "flip_byte": list(flip)}
    results, final = [], None
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != b'"ready"':
            raise HarnessError("worker did not start; is src/hgcauchy importable?")
        proc.stdin.write(json.dumps(request).encode())
        proc.stdin.close()
        for line in proc.stdout:
            message = json.loads(line)
            if "maxrss_kib" in message:
                final = message
                break
            results.append(message)
    finally:
        watchdog.cancel()
        if proc.poll() is None and final is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return {
        "traced": trace,
        "keep_output": keep_output,
        "complete": final is not None and len(results) == len(jobs),
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mib": final["maxrss_kib"] / 1024 if final else None,
        "jobs": results,
        "trace": final.get("trace") if final else None,
    }


def check_pass(checker: oracle.Checker, jobs, run: dict, index: int) -> list[dict]:
    """One failure record per job that did not run cleanly or failed its oracle."""
    failures = []
    for i, argv in enumerate(jobs):
        try:
            if i >= len(run["jobs"]):
                raise oracle.CheckError("did not run: the worker stopped early")
            result = run["jobs"][i]
            checker.check_run(argv, result)
            if "stdout" in result:
                checker.check_output(argv, result.pop("stdout"))
        except oracle.CheckError as exc:
            failures.append({"pass": index, "job": i, "argv": " ".join(argv), "reason": str(exc)})
    return failures


def summarize(samples: list[float]) -> dict:
    if len(samples) >= 2:
        q1, q2, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q2 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def layer_table(traced: list[dict], untraced_wall: float) -> dict[str, float]:
    """Median of every tracer metric over the traced passes, plus module sums."""
    reports = [p["trace"]["metrics"] for p in traced]
    table = {name: statistics.median(r[name] for r in reports) for name in tracer.metric_names()}
    for module in MODULES:
        table[f"{module}.self_s"] = statistics.median(
            sum(v for k, v in r.items() if k.startswith(module + ".") and k.endswith(".self_s")) for r in reports
        )
    table["traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    table["trace.overhead_ratio"] = table["traced_wall_s"] / untraced_wall
    return table


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", extra_jobs=(), flip=()) -> dict:
    """Measure one workload; returns the contract result, with the metrics ``spec``
    lists, and the full detail."""
    if not (SRC / "hgcauchy" / "cli.py").is_file():
        raise HarnessError(f"no program to measure: {SRC / 'hgcauchy'} is missing")
    jobs = workloads.jobs(name, seed, size) + [list(argv) for argv in extra_jobs]
    with open(GOLDEN) as fh:
        checker = oracle.Checker(json.load(fh))
    began = time.perf_counter()
    deadline = began + HARD_LIMIT_S
    min_passes = 2 * MIN_PASSES - 2 if trace else MIN_PASSES
    passes, failures, measured, oracle_s = [], [], 0.0, 0.0
    with speed.Probe() as probe:
        while True:
            index = len(passes)
            t0 = time.perf_counter()
            run = run_pass(jobs, trace=trace and index % 2 == 1, keep_output=index == 0,
                           flip=flip, deadline=deadline)
            t1 = time.perf_counter()
            failures += check_pass(checker, jobs, run, index)
            oracle_s += time.perf_counter() - t1
            measured += t1 - t0
            passes.append(run)
            per_pass = measured / len(passes)
            if not run["complete"] or time.perf_counter() + per_pass > deadline:
                break
            if len(passes) >= min_passes and measured + per_pass > seconds:
                break
    for p in passes:
        p["wall_ref_s"] = sum(
            r["seconds"] * REF_NOMINAL_S / probe.ref_s(r["start"], r["start"] + r["seconds"])
            for r in p["jobs"]
        )

    untraced = [p for p in passes if p["complete"] and not p["traced"]]
    traced = [p for p in passes if p["complete"] and p["traced"]]
    if not untraced or (trace and not traced):
        raise HarnessError("no complete pass within the time limit")
    setups = [p["setup_s"] for p in passes]
    if not trace:
        for _ in range(SETUP_SPAWNS):
            if time.perf_counter() + 2.0 > deadline:
                break
            setups.append(run_pass([], deadline=deadline)["setup_s"])
    rss = [p["peak_rss_mib"] for p in untraced if not p["keep_output"]] or [
        p["peak_rss_mib"] for p in untraced
    ]
    summary = {
        "wall_s": summarize([p["wall_s"] for p in untraced]),
        "wall_ref_s": summarize([p["wall_ref_s"] for p in untraced]),
        "setup_s": summarize(setups),
        "peak_rss_mib": summarize(rss),
    }
    summary["wall_s"]["unit"] = "s"  # the raw clock; not published, too noisy for a bound
    for metric, unit in units(spec, "end_to_end").items():
        summary[metric]["unit"] = unit
    attempted = len(jobs) * len(passes)
    detail = {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": bool(trace),
        "argv": [" ".join(argv) for argv in jobs],
        "passes": len(passes),
        "end_to_end": summary,
        "fail_share": len(failures) / attempted,
        "job_seconds": [
            statistics.median(p["jobs"][i]["seconds"] for p in untraced) for i in range(len(jobs))
        ],
        "failures": failures,
        "oracle_s": oracle_s,
        "reference_s": probe.median_s(),
        "elapsed_s": time.perf_counter() - began,
    }
    if trace:
        table = layer_table(traced, summary["wall_s"]["median"])
        detail["per_layer"] = table
        detail["trace_missing"] = sorted({m for p in traced for m in p["trace"]["missing"]})
        values = table
    else:
        values = {metric: s["median"] for metric, s in summary.items()}
    published = units(spec, "per_layer" if trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in published.items()}
    detail["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return detail


def print_summary(detail: dict) -> None:
    stream = sys.stderr
    print(f"workload {detail['workload']} seed {detail['seed']}: {detail['passes']} passes, "
          f"fail_share {detail['fail_share']:.4f} ({detail['result']['failed']}/"
          f"{detail['result']['attempted']} jobs)", file=stream)
    for name, s in detail["end_to_end"].items():
        print(f"  {name:<14} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"n {s['n']}", file=stream)
    for failure in detail["failures"][:10]:
        print(f"  FAIL pass {failure['pass']} job {failure['job']} [{failure['argv']}]: "
              f"{failure['reason']}", file=stream)
    if "per_layer" in detail:
        for name, value in detail["per_layer"].items():
            print(f"  {name:<56} {value:.6g}", file=stream)


def main(argv: list[str] | None = None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC_FILE.name}: {exc}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(detail)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
