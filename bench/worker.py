"""One benchmark process: set up a workload, then measure or trace it.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS SPAWNED_AT

MODE is `setup` (import and parse, then stop), `measure` (untraced passes
for about SECONDS seconds, at least one) or `trace` (one untraced reference
pass with only `parse_spec` and `run_check` timed, then one fully traced
pass of the same specs).  SPAWNED_AT is the parent's `time.monotonic()`
just before it started this interpreter, so set-up time counts interpreter
start-up.  Set-up, pass and spec times are scaled to a reference speed
(`SpeedProbe`).  The result is one JSON object on stdout.

Each spec is one closed-loop request from a single client: the next
`cli.main(["run", "--format", "json", "--seed", N, "-"])` call starts only
after the previous verdict document is written.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def set_up(workload: str, seed: int):
    from courant_lab import cli
    from courant_lab.specfile import parse_spec

    specs = workloads.generate(workload, seed)
    for spec in specs:
        parse_spec(spec.text)
    return cli, specs


def run_pass(cli, specs, seed: int, on_spec=None):
    """Run every spec once; returns (pass seconds, [(spec, start, seconds, stdout)])."""
    argv = ["run", "--format", "json", "--seed", str(seed), "-"]
    results = []
    stdin = sys.stdin
    start = time.perf_counter()
    for spec in specs:
        if on_spec is not None:
            on_spec(spec.name)
        out = io.StringIO()
        sys.stdin = io.StringIO(spec.text)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                cli.main(argv)  # looked up per call, so the tracer's binding is used
        except Exception as exc:  # a crash is an unexpected verdict for every line
            print(f"{spec.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        finally:
            sys.stdin = stdin
        results.append((spec, t0, time.perf_counter() - t0,
                        None if out is None else out.getvalue()))
    return time.perf_counter() - start, results


def judge(results, seed: int):
    """(lines attempted, lines unexpected, sha256 of the verdict documents)."""
    attempted = failed = 0
    digest = hashlib.sha256()
    for spec, _, _, text in results:
        document = None
        if text is not None:
            digest.update(text.encode())
            try:
                document = json.loads(text)
            except ValueError:
                pass
        attempted += len(spec.lines)
        failed += workloads.unexpected_lines(spec, document, seed)
    return attempted, failed, digest.hexdigest()


# Duration of one `_probe_work()` at the reference speed: the median
# measured on a 2-vCPU Linux VM with Python 3.11.  Any fixed value would
# do; it only sets the scale of the speed-normalized times.
REF_PROBE_S = 2.1e-3
PROBE_INTERVAL_S = 0.05
PROBE_BURST = 5
_PROBE_TERMS = [((i, j, k), Fraction(7 * i + 3 * k + 1, 5 * j + 11 * k + 2))
                for i in range(5) for j in range(2) for k in range(2)]


def _probe_work() -> dict:
    """The product of a fixed 20-term sparse polynomial with itself: dict,
    tuple and Fraction work like the verifier's own, but none of its code.
    Smaller probes tracked the program less well (README.md)."""
    product: dict = {}
    for ka, va in _PROBE_TERMS:
        for kb, vb in _PROBE_TERMS:
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            product[key] = product.get(key, 0) + va * vb
    return product


class SpeedProbe:
    """Samples how fast this process runs, every PROBE_INTERVAL_S, while passes run.

    A shared host runs the same code anywhere from 1 to 1.7 times slower
    from one second to the next, and CPU time slows down with wall time,
    so neither measures the program alone.  On SIGALRM the probe times
    `_probe_work()` in this process, at that moment, and `scaled()` divides
    an interval's wall time by the mean probe duration inside it: the time
    the interval would have taken at the reference speed.  The collector
    is off while the probe runs, so the program's heap does not slow it.
    """

    def __init__(self):
        self.samples: list = []  # (start, seconds)

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _probe_work()
        self.samples.append((t0, time.perf_counter() - t0))
        if collecting:
            gc.enable()

    def __enter__(self):
        self._sample(None, None)  # so that even a pass shorter than the interval has one
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, seconds: float) -> float:
        """Wall `seconds` from `start`, less the probe's own time, at the reference speed."""
        inside = [d for t, d in self.samples if start <= t < start + seconds]
        own = seconds - sum(inside)
        inside = inside or [d for _, d in self.samples]
        return own * REF_PROBE_S / statistics.fmean(inside)


def probe_burst() -> list:
    """PROBE_BURST probe durations back to back, after one warm-up call."""
    _probe_work()
    samples = []
    for _ in range(PROBE_BURST):
        t0 = time.perf_counter()
        _probe_work()
        samples.append(time.perf_counter() - t0)
    return samples


def timed_set_up(workload: str, seed: int, spawned_at: float):
    """set_up(), and its time since SPAWNED_AT at the reference speed.

    A set-up is too short for the probe's timer, so a burst of probes just
    before it and one just after it give the speed; the first burst's own
    time is taken off.
    """
    t0 = time.perf_counter()
    before = probe_burst()
    burst_s = time.perf_counter() - t0
    cli, specs = set_up(workload, seed)
    wall = time.monotonic() - spawned_at - burst_s
    return cli, specs, wall * REF_PROBE_S / statistics.fmean(before + probe_burst())


def measure(workload: str, seed: int, seconds: float, spawned_at: float) -> dict:
    cli, specs, setup_s = timed_set_up(workload, seed, spawned_at)
    passes, walls, latencies = [], [], []
    attempted = failed = 0
    digest = None
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            if passes:
                specs = workloads.generate(workload, seed, len(passes))
            pass_s, results = run_pass(cli, specs, seed)
            walls.append(pass_s)
            passes.append(probe.scaled(results[0][1], pass_s))
            latencies.append([probe.scaled(t0, sec) for _, t0, sec, _ in results])
            a, f, d = judge(results, seed)
            attempted, failed = attempted + a, failed + f
            digest = digest or d
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
    return {"setup_s": setup_s, "passes": passes, "walls": walls, "spec_latencies": latencies,
            "probes": len(probe.samples), "attempted": attempted, "failed": failed,
            "verdict_sha256": digest,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def trace(workload: str, seed: int) -> dict:
    from tracer import LineTimer, Recorder

    cli, specs = set_up(workload, seed)
    timer = LineTimer()
    timer.install()
    try:
        light_s, light = run_pass(cli, specs, seed, on_spec=lambda name: setattr(timer, "spec", name))
    finally:
        timer.uninstall()
    recorder = Recorder()
    recorder.install()
    try:
        traced_s, traced = run_pass(cli, specs, seed)
    finally:
        recorder.uninstall()
    a1, f1, d1 = judge(light, seed)
    a2, f2, d2 = judge(traced, seed)
    metrics = {**recorder.metrics(), **timer.metrics(), "trace.overhead_ratio": traced_s / light_s}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    (OUT / f"{stem}-lines.tsv").write_text(timer.table())
    recorder.write(OUT / f"{stem}-trace.json",
                   {"workload": workload, "seed": seed, "untraced_pass_s": light_s,
                    "traced_pass_s": traced_s, "metrics": metrics})
    # tracing must not change a single verdict byte
    return {"metrics": metrics, "attempted": a1 + a2, "failed": f1 + f2 + (d1 != d2),
            "verdict_sha256": d1, "files": [f"bench/out/{stem}-lines.tsv",
                                            f"bench/out/{stem}-trace.json"]}


def main(argv) -> int:
    mode, workload, seed, seconds, spawned_at = argv
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    if mode == "setup":
        result = {"setup_s": timed_set_up(workload, seed, spawned_at)[2]}
    elif mode == "measure":
        result = measure(workload, seed, seconds, spawned_at)
    elif mode == "trace":
        result = trace(workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
