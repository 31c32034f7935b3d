"""Run-to-run spread of the end-to-end metrics over seeds, and baselines.

    python3 bench/spread.py --workloads catalog --seeds 1-10
    python3 bench/spread.py --workloads catalog,scaling-r3,perturbed-r3 --seeds 7,11 \\
        --traced --json bench/baseline.json

Runs `bench/run.py` once per workload and seed, one run after another, and
prints for each end-to-end metric its median and the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the metric's bound from BENCHMARK.json; with fewer
than four seeds it prints the minimum and maximum instead.  `--traced`
adds one traced run per workload at the first seed.  `--json` writes every
run, the summaries, and the Python version, commit and `nproc` they were
measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return {"seed": seed, **json.loads(proc.stdout.strip().splitlines()[-1])}


def summarize(runs, metrics) -> dict:
    """Median and IQR / median of each metric; min and max below four runs,
    where `statistics.quantiles` would extrapolate the quartiles."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) >= 4:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry = {"median": median, "iqr_share": (q3 - q1) / median}
            spread = f"iqr/median {(q3 - q1) / median:.4f}"
        else:
            entry = {"median": median, "min": min(values), "max": max(values)}
            spread = f"min {min(values):.6g}  max {max(values):.6g}"
        summary[name] = {**entry, "bound": metric["bound"]}
        print(f"  {name:14s} median {median:.6g}  {spread}  bound {metric['bound']}")
    return summary


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, type=lambda text: text.split(","))
    parser.add_argument("--seeds", default="1-10", type=seeds_of)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    document = {"python": platform.python_version(), "commit": commit(),
                "nproc": os.cpu_count(), "seconds": seconds, "workloads": {}}
    correct = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(bench(workload, seed, seconds, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: correct {runs[-1]['correct']} {values}", flush=True)
        entry = {"runs": runs, "summary": summarize(runs, spec["end_to_end"])}
        if args.traced:
            entry["traced"] = bench(workload, args.seeds[0], seconds, 1)
            runs = runs + [entry["traced"]]
        correct = correct and all(run["correct"] for run in runs)
        document["workloads"][workload] = entry
    if args.json:
        args.json.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
