#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: one run per seed, then quartiles per metric.

    python3 perfbench/study.py --workload family --seeds 1-10 --seconds 20

Each run is a fresh ``run.py`` process.  For every end-to-end metric the
study prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, (Q3 - Q1) / median, and compares it with the bound in
BENCHMARK.json.  It also prints the noise study behind the design: first-round
totals against sums of per-instance medians, each in wall seconds and in
reference seconds (see ``clock.py``).
Everything is saved to ``perfbench/out/study-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
        record = json.loads((HERE / "out" / f"result-{args.workload}-seed{seed}-trace0.json").read_text())
        record["line"] = json.loads(out.strip().splitlines()[-1])
        runs.append(record)
        values = {k: round(v["value"], 4) for k, v in record["line"]["metrics"].items()}
        print(f"seed {seed}: rounds={record['rounds']} correct={record['line']['correct']} {values}", flush=True)

    summary = {}
    for name in runs[0]["line"]["metrics"]:
        values = [r["line"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print(f"{name:14} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}  "
              f"spread {spread:6.2%}  bound {bounds.get(name, float('nan')):.0%}")
    shares = {r["line"]["failed"] / r["line"]["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    noise = {
        "first round, wall seconds": [r["round_totals_raw_and_reference_s"][0][0] for r in runs],
        "first round, reference seconds": [r["round_totals_raw_and_reference_s"][0][1] for r in runs],
        "sum of per-instance medians, wall seconds": [r["total_raw_s"] for r in runs],
        "sum of per-instance medians, reference seconds (total_s)": [r["total_s"] for r in runs],
    }
    for what, values in noise.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{what}: {min(values):.3f} .. {max(values):.3f}, spread {(q3 - q1) / med:.2%}")
    summary["noise_study"] = noise
    (HERE / "out" / f"study-{args.workload}.json").write_text(
        json.dumps({"seconds": seconds, "summary": summary, "runs": runs}, indent=1)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
