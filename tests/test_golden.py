"""`verify-all` output is byte-identical to the recorded golden files.

The files under tests/golden/ were written by `courant-lab verify-all` in
text and JSON at seeds 7 and 11.  Any change to the arithmetic kernels or
the report format must leave every verdict, witness and line unchanged.
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
