"""Command output is byte-identical to the recorded golden files.

The files under tests/golden/ were written in text and JSON at seeds 7
and 11: `verify-all-*` by `courant-lab verify-all`, and `<spec>-*` by
`courant-lab run` on `<spec>.spec`.  The kept-bracket shifts of
`curvature-shifts.spec` make the curvature lines fail and R^bas nonzero,
and `bracket-axioms.spec` breaks each bracket axiom the package checks
(Jacobi, the symmetrized bracket, the anchor morphism and metric
compatibility), so their witnesses are covered too.  Any change to the
arithmetic kernels, the tables of the checks or the report format must
leave every verdict, witness and line unchanged.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from courant_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json", "json")])
def test_verify_all_matches_golden(seed, fmt, suffix):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["verify-all", "--seed", str(seed), "--format", fmt])
    assert rc == 0
    expected = (GOLDEN / f"verify-all-seed{seed}.{suffix}").read_text(encoding="utf-8")
    assert out.getvalue() == expected


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("spec", ["curvature-shifts", "bracket-axioms", "x3-anchor",
                                  "tangent-poisson"])
def test_spec_run_matches_golden(spec, seed, fmt, suffix):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["run", "--seed", str(seed), "--format", fmt, str(GOLDEN / f"{spec}.spec")])
    assert rc == 0
    expected = (GOLDEN / f"{spec}-seed{seed}.{suffix}").read_text(encoding="utf-8")
    assert out.getvalue() == expected


def test_the_second_seed_changes_the_verify_all_golden():
    # byte-identity at seed 11 guards the seeded batteries only while the
    # seed reaches them, which shows as different random witnesses
    seed7, seed11 = ((GOLDEN / f"verify-all-seed{seed}.txt").read_text(encoding="utf-8")
                     for seed in (7, 11))
    assert seed7 != seed11
