#!/usr/bin/env python3
"""Benchmark of the ``leafpower`` command-line tool, run in-process.

    python3 perfbench/run.py --workload family --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run builds the seeded inputs of one workload (see ``workloads.py``) and
then repeats rounds over all of its instances until ``--seconds`` have passed.
The round loop is outermost, so a burst of contention on the machine hits one
repetition of an instance, not all of them; an instance's time is its median
over the rounds, in reference seconds: wall time scaled by the machine speed
sampled while the instance ran (``clock.py``).  Every outcome is checked by
``checks.py``, outside the timed region.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``layers.py`` with ``--trace 1``.
A run with ``--trace 1`` alternates untraced and traced rounds, so it also
reports the tracing overhead.  Results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import clock
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed for setup_s; the metric is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "total_s": "s",
    "time_to_yes_s": "s",
    "time_to_no_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    from leafpower import cli, rn, roots

    return SimpleNamespace(cli=cli, rn=rn, roots=roots)


def setup(workload: str, seed: int, work: Path) -> list[workloads.Instance]:
    """Everything a run does before its first timed instance."""
    return workloads.build(workload, seed, work, import_program())


def time_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process until it has set up, as a user would wait.

    The wall time is scaled by the speed the probe measured for itself over
    its imports and input writing, which is nearly all of it (see clock.py).
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=120)
    words = line.split()
    if code != 0 or len(words) != 3 or words[0] != "ready":
        raise RuntimeError(f"setup probe exited with code {code}")
    return elapsed * float(words[2]) / float(words[1])


def digest(outcome, outputs: list[Path]) -> str:
    h = hashlib.sha256(repr((outcome.verdict, outcome.codes, outcome.message)).encode())
    for path in outputs:
        h.update(path.read_bytes() if path.exists() else b"\0missing")
    return h.hexdigest()


def measure(instances: list[workloads.Instance], seconds: float, trace: bool) -> dict:
    """Repeat rounds over ``instances`` until ``seconds`` pass; see the module docstring.

    An instance's time is its median over the untraced rounds, in reference
    seconds (clock.py); the wall-clock medians are kept as ``total_raw_s``.
    """
    count = len(instances)
    times: list[list[float]] = [[] for _ in instances]
    wall: list[list[float]] = [[] for _ in instances]
    traced: list[list[float]] = [[] for _ in instances]
    verdicts: list[bool | None] = [None] * count
    checked: list[str | None] = [None] * count
    problems: list[str] = []
    errors: dict[str, str] = {}
    attempted = failed = 0
    round_totals: list[tuple[float, float]] = []
    tracers: list[layers.Tracer] = []
    start = time.perf_counter()
    rounds = 0
    speed = clock.ReferenceClock()
    while rounds < (2 if trace else 1) or time.perf_counter() - start < seconds:
        tracer = layers.Tracer() if trace and rounds % 2 == 1 else None
        round_raw = round_total = 0.0
        if tracer:
            tracer.install()
        try:
            for i, inst in enumerate(instances):
                for path in inst.outputs:
                    path.unlink(missing_ok=True)
                gc.collect()
                attempted += 1
                try:
                    with speed, tracer.span("instance:" + inst.label) if tracer else nullcontext():
                        outcome, raw, elapsed = speed.time(inst.run)
                except Exception:
                    failed += 1
                    errors.setdefault(inst.label, traceback.format_exc())
                    continue
                if tracer:
                    traced[i].append(elapsed)
                else:
                    times[i].append(elapsed)
                    wall[i].append(raw)
                round_raw += raw
                round_total += elapsed
                if tracer and not tracers:
                    size = sum(p.stat().st_size for p in inst.outputs if p.exists())
                    tracer.counts["cli.output_bytes"] = tracer.counts.get("cli.output_bytes", 0) + size
                key = digest(outcome, inst.outputs)
                if key != checked[i]:
                    problems += [f"{inst.label}: {p}" for p in inst.check(outcome)]
                    checked[i] = key
                if verdicts[i] is None:
                    verdicts[i] = outcome.verdict
                elif verdicts[i] != outcome.verdict:
                    problems.append(f"{inst.label}: verdict changed between rounds")
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            tracer.scale = round_total / round_raw if round_raw else 1.0
            tracers.append(tracer)
        else:
            round_totals.append((round_raw, round_total))
        rounds += 1

    calibration = sorted(speed.durations)
    timed = [i for i in range(count) if times[i]]
    median = {i: statistics.median(times[i]) for i in timed}
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "errors": errors,
        "rounds": rounds,
        "round_totals_raw_and_reference_s": round_totals,
        "instances": {instances[i].label: [verdicts[i], wall[i], times[i]] for i in timed},
        "total_raw_s": sum(statistics.median(wall[i]) for i in timed),
        "calibration_us_p5_p50_p95": [calibration[int(q * (len(calibration) - 1))] * 1e6 for q in (0.05, 0.5, 0.95)],
        "total_s": sum(median[i] for i in timed),
        "time_to_yes_s": sum(median[i] for i in timed if verdicts[i]),
        "time_to_no_s": sum(median[i] for i in timed if not verdicts[i]),
        "yes": sum(1 for v in verdicts if v),
        "no": sum(1 for v in verdicts if v is False),
    }
    if tracers:
        per_round = [t.layer_times() for t in tracers]
        layer = {m: min(r[m] for r in per_round) for m in per_round[0]}
        layer.update(tracers[0].layer_counts())
        both = [i for i in timed if traced[i]]
        layer["trace.overhead_s"] = sum(statistics.median(traced[i]) - median[i] for i in both)
        result["layers"] = layer
        result["spans"] = tracers[0].spans
    return result


def run_one(args: argparse.Namespace) -> int:
    setup_times = [time_setup(args) for _ in range(SETUP_PROBES)]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        instances = setup(args.workload, args.seed, work)
        result = measure(instances, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "total_s": result["total_s"],
        "time_to_yes_s": result["time_to_yes_s"],
        "time_to_no_s": result["time_to_no_s"],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_mb,
    }
    if args.trace:
        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, (unit, _) in layers.METRICS.items()
        }
        metrics["trace.overhead_s"] = {"value": result["layers"]["trace.overhead_s"], "unit": "s"}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({"spans": spans}))
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "setup_samples_s": setup_times, "end_to_end": values, "result": line}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    for problem in result["problems"][:20]:
        print("PROBLEM", problem, file=sys.stderr)
    for label, error in list(result["errors"].items())[:5]:
        print("FAILED", label, error, file=sys.stderr)
    print(
        f"{args.workload}: {result['rounds']} rounds, {result['yes']} yes / {result['no']} no instances",
        file=sys.stderr,
    )
    print(json.dumps(line))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:34} {m['value']:>14.6f} {m['unit']}")
    print(json.dumps(results))
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "leafpower" / "__init__.py").is_file():
        print(f"no leafpower sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        work = OUT / f"probe-{os.getpid()}"
        try:
            with clock.ReferenceClock() as speed:
                _, raw, scaled = speed.time(lambda: setup(args.workload, args.seed, work))
            print("ready", raw, scaled, flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
