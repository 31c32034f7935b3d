"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q

The slow ones run the real command (`bench/run.py`) on every workload at
two seeds and traced, 6 to 9 minutes in all.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import EXERCISED_BY, tail  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Line  # noqa: E402

OTHER_SEED = 11


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@functools.lru_cache(maxsize=None)
def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# -- inputs and known answers ---------------------------------------------------

@pytest.mark.parametrize("workload", ["scaling-r3", "perturbed-r3"])
def test_same_seed_gives_byte_identical_specs(workload):
    texts = lambda seed, k=0: [s.text for s in workloads.generate(workload, seed, k)]  # noqa: E731
    assert texts(DEFAULT_SEED) == texts(DEFAULT_SEED)
    assert texts(DEFAULT_SEED) != texts(OTHER_SEED)
    assert texts(DEFAULT_SEED, 1) != texts(DEFAULT_SEED, 0)


def test_catalog_known_answers_come_from_xfail_markers():
    specs = workloads.generate("catalog", DEFAULT_SEED)
    assert len(specs) == 12
    assert sum(len(s.lines) for s in specs) == 56
    broken = {s.name: [line.check for line in s.lines if line.expect_fail] for s in specs}
    assert broken["broken-dorfman"] == ["dorfman-axioms"]
    assert broken["line-bundle-r2"] == ["dirac", "geometric-dirac"]
    assert broken["im2form-zero"] == []


def _result(status, witnesses=(), details=()):
    return {"check": "dirac", "args": ["D"],
            "reports": [{"status": status, "witnesses": list(witnesses),
                         "details": list(details)}]}


def test_known_answer_gate_rejects_what_xfail_must_not_accept():
    must_fail = Line("dirac", ("D",), True)
    must_pass = Line("dirac", ("D",), False)
    witness = {"identity": "i", "inputs": "x", "difference": "1"}
    assert workloads.line_as_expected(must_fail, _result("fail", [witness]))
    assert workloads.line_as_expected(must_fail, _result("error", [witness]))
    assert not workloads.line_as_expected(must_fail, _result("pass"))
    assert not workloads.line_as_expected(must_fail, _result("fail"))
    assert not workloads.line_as_expected(must_fail, _result("error", details=["TypeError: x"]))
    assert not workloads.line_as_expected(must_fail, None)
    assert workloads.line_as_expected(must_pass, _result("pass"))
    assert workloads.line_as_expected(must_pass, _result("not-applicable"))
    assert not workloads.line_as_expected(must_pass, _result("error", details=["crash"]))
    assert not workloads.line_as_expected(must_pass, {"check": "dirac", "args": ["D"],
                                                      "reports": []})
    assert not workloads.line_as_expected(Line("skew", ("D",), False), _result("pass"))


def test_tail_keeps_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (100, 3.0)
    assert tail([float(i) for i in range(1, 21)]) == (50, 10.0)
    assert tail([float(i) for i in range(1, 101)]) == (90, 90.0)


def test_speed_probe_scales_to_reference_speed():
    from worker import REF_PROBE_S, SpeedProbe

    probe = SpeedProbe()
    probe.samples = [(0.0, REF_PROBE_S), (1.0, 2 * REF_PROBE_S), (2.0, 2 * REF_PROBE_S)]
    # at half the reference speed, 1 s less the probe's time is worth half that
    assert probe.scaled(1.0, 1.0) == pytest.approx((1.0 - 2 * REF_PROBE_S) / 2)
    # an interval without samples takes the mean of all of them
    assert probe.scaled(5.0, 0.01) == pytest.approx(0.01 * 3 / 5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("perturbed-r3", DEFAULT_SEED, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- the real command -----------------------------------------------------------

@pytest.mark.parametrize("seed", [DEFAULT_SEED, OTHER_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_known_answers_hold(workload, seed):
    out = result(workload, seed, 0)
    assert out["attempted"] > 0
    assert out["failed"] == 0 and out["correct"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        printed = result("perturbed-r3", DEFAULT_SEED, trace)["metrics"]
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {name: m["unit"] for name, m in printed.items()} == declared
    assert {m["name"] for m in spec["per_layer"]} == set(EXERCISED_BY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counters_nonzero_where_exercised(workload):
    out = result(workload, DEFAULT_SEED, 1)
    assert out["correct"]
    zero = [name for name, where in EXERCISED_BY.items()
            if workload in where and not out["metrics"][name]["value"] > 0]
    assert zero == []


def test_traced_counts_repeat_exactly():
    def counts(out):
        return {name: m["value"] for name, m in out["metrics"].items() if m["unit"] == "count"}

    again = bench("perturbed-r3", DEFAULT_SEED, 1)
    assert again.returncode == 0, again.stderr
    assert counts(json.loads(again.stdout.splitlines()[-1])) == \
        counts(result("perturbed-r3", DEFAULT_SEED, 1))
