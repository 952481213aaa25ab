#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --out perfbench/results/steadiness.json
    python3 perfbench/steadiness.py --first-seed 11 \
        --against perfbench/results/steadiness.json \
        --out perfbench/results/steadiness-2.json

Every workload of BENCHMARK.json runs --runs times at its run_seconds,
each time with another seed.  For every end-to-end metric it records the
values, their median and the quartile spread (Q3 - Q1) / median, the
figure a benchmark bound must exceed for the metric to be usable as a
gate.  With --against, an earlier set taken the same way, it also
records how much worse this set's median is than that set's, as a share
of the earlier median, which the bound must also exceed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else None
    seconds = spec["run_seconds"]

    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".perfbench" /
                                 f"BENCH_{workload}_seed{seed}_trace0.json").read_text())
            runs.append({"seed": seed, "passes": len(record["pass_s"]),
                         **{key: record[key] for key in
                            ("tail_percentile", "tail_beyond", "tail_resolved")},
                         **line})
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in line["metrics"].items()},
                  file=sys.stderr, flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry = summary[name] = {
                "values": values, "median": statistics.median(values),
                "spread": spread(values), "bound": bound,
                "within_third_of_bound": spread(values) < bound / 3}
            note = ""
            if earlier is not None:
                before = earlier["workloads"][workload]["metrics"][name]["median"]
                entry["worse_than_earlier"] = (entry["median"] - before) / before
                entry["within_bound_of_earlier"] = entry["worse_than_earlier"] <= bound
                note = f" worse than earlier {entry['worse_than_earlier']:+.3f}"
            print(f"{workload} {name}: median {entry['median']:.4g} "
                  f"spread {entry['spread']:.3f}{note} (bound {bound})",
                  file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "metrics": summary, "runs": runs}
    text = json.dumps(report, indent=1) + "\n"
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
