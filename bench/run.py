"""courant-lab benchmark: end-to-end verdict time, or a traced per-layer run.

    python3 bench/run.py --workload catalog --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` it prints the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  `attempted` counts
check lines and `failed` the lines whose verdict differs from the known
answer, so `unexpected_ratio` is failed / attempted.  Exit code 0 only
when the run completed; any failure exits 2 without a result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXERCISED_BY, tail  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170
# Fresh interpreters timed for setup_s besides the measured one, half
# before and half after it, so the samples are spread over the run.
# setup_s is their median.
SETUP_SAMPLES = 10
UNITS = {"setup_s": "s", "pass_s": "s", "spec_tail_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def spawn(mode: str, workload: str, seed: int, seconds: int, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached")
    try:
        proc = subprocess.run(argv + [repr(time.monotonic())], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    def setup_samples(count):
        return [spawn("setup", workload, seed, seconds, deadline)["setup_s"]
                for _ in range(count)]

    spawn("setup", workload, seed, seconds, deadline)  # warm-up: byte-compiles src/
    setups = setup_samples(SETUP_SAMPLES // 2)
    run = spawn("measure", workload, seed, seconds, deadline)
    setups += [run["setup_s"]] + setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    # Spec latency statistics are taken per pass and their median reported,
    # so they mean the same whether a run fits one pass or several.
    per_pass = run["spec_latencies"]
    tails = [tail(latencies) for latencies in per_pass]
    passes = f"{len(per_pass[0])} specs a pass, median of {len(per_pass)} pass(es)"
    metrics = {"setup_s": statistics.median(setups),
               "pass_s": statistics.median(run["passes"]),
               "spec_tail_s": statistics.median(value for _, value in tails),
               "peak_rss_mib": run["peak_rss_mib"]}
    notes = {"setup_s": f"at reference speed, median of {len(setups)} fresh interpreters",
             "pass_s": f"at reference speed, median of {len(run['passes'])} pass(es), "
                       f"{run['probes']} speed probes",
             "spec_tail_s": f"at reference speed, p{tails[0][0]} of {passes}",
             "peak_rss_mib": "ru_maxrss of the measured process"}
    # Printed, not in BENCHMARK.json: on the catalog the median spec runs
    # for about half a second, too short for the speed probe to average
    # out this machine's swings, so it cannot hold a bound.
    extras = [("spec_p50_s", statistics.median(statistics.median(latencies)
                                               for latencies in per_pass), "s",
               f"at reference speed, {passes}"),
              ("pass_wall_s", statistics.median(run["walls"]), "s",
               "wall time, probe included, not speed-normalized")]
    return run, metrics, notes, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "courant_lab" / "__init__.py").is_file():
        print(f"no courant_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            run = spawn("trace", args.workload, args.seed, args.seconds, deadline)
            metrics = run["metrics"]
            mismatch = set(EXERCISED_BY) ^ set(metrics)
            if mismatch:
                raise BenchError(f"per-layer metrics out of step with EXERCISED_BY: {mismatch}")
            units = {name: per_layer_unit(name) for name in metrics}
            notes, extras = {}, []
        else:
            run, metrics, notes, extras = end_to_end(args.workload, args.seed, args.seconds,
                                                     deadline)
            units = UNITS
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          "closed loop, 1 client")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:.6g} {units[name]}{note}")
    extras.append(("unexpected_ratio", failed / attempted, "ratio",
                   f"{failed} of {attempted} check lines"))
    for name, value, unit, note in extras:
        print(f"  {name:36s} {value:.6g} {unit}  ({note})")
    print(f"  {'verdict_sha256':36s} {run['verdict_sha256']}")
    for path in run.get("files", []):
        print(f"  wrote {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
