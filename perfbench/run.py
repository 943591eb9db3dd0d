"""Known-answer benchmark for uftree: time to verdict and decided share.

One run:   python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
Report:    python3 perfbench/run.py --report [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
Compare:   python3 perfbench/run.py --compare OLD.json NEW.json

A run sets the workload's corpus up several times (``setup_s`` is the
median), then steps round-robin through it, one instance at a time, until
``--seconds`` have elapsed and every instance has run at least once.
Every time is reported at a fixed reference speed (see ``REFERENCE_S``).
The last line of stdout is one JSON object: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run also writes every span to ``.perfbench_work/spans-NAME.jsonl``.
A definite verdict that contradicts the known answer, a certificate that
does not replay, or a gadget extraction that is not a valid partition
makes the run exit 1 with ``"correct": false`` and no metrics.  A crash or
an exit 2 on one instance is a failed operation: counted, and survived.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, per_layer
from workloads import ACCEPTED, FAILED, REJECTED, ROOT, WORKLOADS

SETUP_REPEATS = 3  # at least this many set-ups, and at least SETUP_SECONDS of them
SETUP_SECONDS = 1.0
E2E_UNITS = {
    "setup_s": "s",
    "corpus_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}
WORK_ROOT = ROOT / ".perfbench_work"

# A shared host can run this process 1.6x slower for tens of seconds at a
# time, longer than a run.  So a fixed job that touches no uftree code runs
# before and after every timed step, and the step's times are scaled by
# REFERENCE_S over the mean of the two: they read as if the job had taken
# REFERENCE_S.  A change to uftree moves the scaled times as it moves the
# wall times; a change in the host's speed moves both the job and the step.
REFERENCE_S = 0.004  # a round figure; the job took 3.2-5.6 ms on a 2.1 GHz x86 host


def reference_job() -> int:
    """Integer arithmetic, then sorting, hashing and counting small tuples."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    counts: dict[tuple, int] = {}
    for i in range(3_000):
        key = tuple(sorted((i * 7919 % 101, i % 13, i * 31 % 17)))
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


def reference_seconds() -> float:
    """The reference job's wall time: the median of three, so that one
    preemption does not skew a step, with the collector off so that the
    harness's heap does not change it."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference_job()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        gc.enable()


def speed_scale(before: float, after: float) -> float:
    """The factor that brings a time measured between two reference times
    to the reference speed."""
    return 2 * REFERENCE_S / (before + after)


def scaled(step, before: float) -> tuple:
    """Run `step`; return its result, its speed scale and the reference time
    after it, which is the next step's reference time before."""
    result = step()
    after = reference_seconds()
    return result, speed_scale(before, after), after


def tail_percentile(instances: int) -> float:
    """The highest percentile with at least ten instances beyond it, or the
    median when there are too few instances for a tail above it."""
    return max(50.0, 100.0 * (instances - 10) / instances)


def percentile(values: list[float], pct: float) -> float:
    """The pct-th percentile, interpolated between neighbouring values."""
    xs = sorted(values)
    h = (len(xs) - 1) * pct / 100.0
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def timed_steps(steps: list, seconds: float) -> list:
    """Round-robin over the steps until `seconds` have elapsed and each step
    has run at least once; result ``i`` is of step ``i % len(steps)``."""
    results = []
    before = reference_seconds()
    start = time.perf_counter()
    while len(results) < len(steps) or time.perf_counter() - start < seconds:
        step = steps[len(results) % len(steps)]
        result, result.scale, before = scaled(step, before)
        results.append(result)
    return results


def summarize(results: list, n_steps: int) -> dict:
    """End-to-end figures of the timed steps, and each instance's verdict.

    An instance's time is the median of its checks.  ``corpus_s`` is the
    time of one pass over the corpus: the sum of each step's median time,
    replay of the certificate included.  Times are at the reference speed;
    ``wall_*`` extras give the unscaled p50 and corpus time.
    """
    per_instance: dict[str, list[float]] = {}
    wall: dict[str, list[float]] = {}
    per_step: list[list[float]] = [[] for _ in range(n_steps)]
    wall_step: list[list[float]] = [[] for _ in range(n_steps)]
    for i, r in enumerate(results):
        for o in r.outcomes:
            per_instance.setdefault(o.id, []).append(o.seconds * r.scale)
            wall.setdefault(o.id, []).append(o.seconds)
        per_step[i % n_steps].append(r.seconds * r.scale)
        wall_step[i % n_steps].append(r.seconds)
    times = [statistics.median(t) for t in per_instance.values()]
    # each instance's first check; the gate makes sure its verdict repeats
    outcomes = [r.outcomes[0] for r in results[:n_steps]]
    tail_pct = tail_percentile(len(times))
    extras = {
        "samples": sum(len(t) for t in per_instance.values()),
        "instances": len(times),
        "verdict_tail_pct": tail_pct,
        "failed_frac": sum(o.verdict == FAILED for o in outcomes) / len(outcomes),
        "speed_scale": statistics.median(r.scale for r in results),
        "wall_verdict_p50_ms": 1e3 * statistics.median(statistics.median(t) for t in wall.values()),
        "wall_corpus_s": sum(statistics.median(t) for t in wall_step),
    }
    for key in results[0].extras:
        extras[key] = statistics.median(r.extras[key] * r.scale for r in results)
    metrics = {
        "corpus_s": sum(statistics.median(t) for t in per_step),
        "verdict_p50_ms": 1e3 * statistics.median(times),
        "verdict_tail_ms": 1e3 * percentile(times, tail_pct),
        "decided_frac": sum(o.verdict in (ACCEPTED, REJECTED) for o in outcomes) / len(outcomes),
    }
    instances = [
        {"id": o.id, "known": ACCEPTED if o.known else REJECTED, "verdict": o.verdict,
         "error": o.error, "cert_steps": o.cert_steps,
         "ms": [1e3 * t for t in per_instance[o.id]]}
        for o in outcomes
    ]
    return {"metrics": metrics, "extras": extras, "instances": instances}


def traced_passes(tracer: Tracer, steps: list, seconds: float) -> tuple[list, list]:
    """Untraced and traced passes over the corpus, alternating, until
    `seconds` have elapsed and there is at least one of each."""
    plain, traced = [], []
    before = reference_seconds()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        tracing = len(traced) < len(plain)
        if tracing:
            tracer.install()  # the reference job calls nothing it wraps
        done = []
        for step in steps:
            result, result.scale, before = scaled(step, before)
            done.append(result)
        if tracing:
            tracer.uninstall()
        (traced if tracing else plain).append(done)
    return plain, traced


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    workload = WORKLOADS[name]
    workdir = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not traced:
            setup_times = []
            before = reference_seconds()
            while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
                # new files each time, as a first set-up writes them: on a
                # disk mounted with discard, truncating the last set-up's
                # files took five times as long, and varied from run to run
                setup_dir = workdir / f"setup{len(setup_times)}"
                setup_dir.mkdir()
                start = time.perf_counter()
                corpus = workload.setup(seed, setup_dir)
                took = time.perf_counter() - start
                after = reference_seconds()
                setup_times.append(took * speed_scale(before, after))
                before = after
            steps = workload.steps(corpus, workdir)
            results = timed_steps(steps, seconds)
            result = summarize(results, len(steps))
            result["metrics"]["setup_s"] = statistics.median(setup_times)
        else:
            tracer = Tracer()
            tracer.install()
            begin = tracer.mark()
            corpus = workload.setup(seed, workdir)
            after_setup = tracer.mark()
            tracer.uninstall()
            steps = workload.steps(corpus, workdir)
            plain, traced_runs = traced_passes(tracer, steps, seconds)
            setup_totals = tracer.totals(begin, after_setup)
            pass_totals = tracer.totals(after_setup, tracer.mark())
            totals = {
                key: setup_totals.get(key, 0) + pass_totals.get(key, 0) / len(traced_runs)
                for key in set(setup_totals) | set(pass_totals)
            }

            def pass_time(passes):
                return statistics.median(sum(r.seconds * r.scale for r in p) for p in passes)

            overhead = pass_time(traced_runs) / pass_time(plain) - 1.0
            results = [r for p in plain + traced_runs for r in p]
            result = summarize(results, len(steps))
            result["metrics"] = per_layer(totals, overhead)
            spans_path = WORK_ROOT / f"spans-{name}.jsonl"
            tracer.write(spans_path)
            result["extras"]["spans"] = len(tracer.start)
            print(f"perfbench: {len(tracer.start)} spans in {spans_path}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    checks = [o for r in results for o in r.outcomes]
    verdicts: dict[str, set] = {}
    for o in checks:
        verdicts.setdefault(o.id, set()).add(o.verdict)
    result["problems"] = sorted({msg for r in results for msg in r.problems} | {
        f"{inst}: verdict differs between checks: {sorted(seen)}"
        for inst, seen in verdicts.items() if len(seen) > 1
    })
    result["attempted"] = len(checks)
    result["failed"] = sum(o.verdict == FAILED for o in checks)
    return result


def one_run(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    correct = not result["problems"]
    for msg in result["problems"]:
        print(f"perfbench: WRONG: {msg}", file=sys.stderr)
    if args.trace == 0 and correct:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"]["peak_rss_mb"] = peak_kb / 1024
        result["metrics"] = {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in E2E_UNITS.items()
        }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result}
    if not correct:
        record["metrics"] = {}
    print(json.dumps({k: record[k] for k in ("extras", "problems")}), file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": [record]}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def report(args) -> int:
    """Every workload, the unlisted known-defect probe included, each in its
    own process so that peak memory is per workload; prints one table."""
    runs = []
    failed_runs = []
    outdir = WORK_ROOT / f"report-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            out = outdir / f"{name}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                failed_runs.append(name)
                sys.stderr.write(proc.stderr)
            if out.exists():
                runs += json.loads(out.read_text(encoding="utf-8"))["runs"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    for run in runs:
        print(f"== {run['workload']} (seed {run['seed']}, trace {run['trace']}): "
              f"{run['attempted']} attempted, {run['failed']} failed")
        for name, m in run["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        for name, value in run["extras"].items():
            print(f"  {name:40s} {value:14.6g}")
        for inst in run["instances"]:
            if inst["verdict"] == FAILED:
                print(f"  FAILED {inst['id']}: {inst['error'] or 'exit 2'}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 1 if failed_runs else 0


def figures(run: dict) -> dict:
    """A run's metrics and its extra figures, all as ``{"value", "unit"}``."""
    extras = {name: {"value": value, "unit": ""} for name, value in run["extras"].items()}
    return {**run["metrics"], **extras}


def compare(old_path: str, new_path: str) -> int:
    """Per-workload, per-metric deltas; a flipped definite verdict fails."""
    old_runs = {(r["workload"], r["trace"]): r for r in json.loads(Path(old_path).read_text())["runs"]}
    new_runs = {(r["workload"], r["trace"]): r for r in json.loads(Path(new_path).read_text())["runs"]}
    flips = 0
    for key in sorted(old_runs.keys() & new_runs.keys()):
        old, new = old_runs[key], new_runs[key]
        print(f"== {key[0]} (trace {key[1]}; seeds {old['seed']} -> {new['seed']})")
        before, after = figures(old), figures(new)
        for name in sorted(before.keys() & after.keys()):
            a, b = before[name]["value"], after[name]["value"]
            delta = f"{100.0 * (b - a) / a:+8.2f}%" if a else "       -"
            print(f"  {name:40s} {a:14.6g} -> {b:14.6g} {delta} {after[name]['unit']}")
        old_verdicts = {i["id"]: i["verdict"] for i in old["instances"]}
        for inst in new["instances"]:
            before = old_verdicts.get(inst["id"])
            if before is None or before == inst["verdict"]:
                continue
            flipped = {before, inst["verdict"]} == {ACCEPTED, REJECTED}
            flips += flipped
            tag = "WRONG: definite verdict flipped" if flipped else "verdict changed"
            print(f"  {tag}: {inst['id']} {before} -> {inst['verdict']}")
    return 1 if flips else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--report", action="store_true", help="run every workload, print a table")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result, with every verdict, as JSON")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.report:
        return report(args)
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
