import json
import subprocess
import sys

import pytest

from courant_lab import checks
from courant_lab.catalog import catalog_names, catalog_text
from courant_lab.checks import run_check
from courant_lab.cli import main
from courant_lab.specfile import (CHECK_ARITY, CHECK_STATEMENTS, SpecError, parse_spec,
                                  parse_section_expr)
from courant_lab.bundle import Bundle, patch

MINIMAL = """
[patch]
coords = x1, x2

[bundle.E]
frame = eps

[connection.nabla]
bundle = E
x2, eps = x1*eps

[dorfman.Delta]
e = E
standard-of = nabla

[checks]
dorfman-axioms = Delta
"""


def test_parse_minimal_spec():
    spec = parse_spec(MINIMAL)
    assert spec.base.coords == ("x1", "x2")
    assert "Delta" in spec.dorfmans
    assert spec.checks == [("dorfman-axioms", ["Delta"], False)]


def test_section_expression_parsing():
    base = patch("x1", "x2")
    e = Bundle.vector(base, "E", ("eps1", "eps2"))
    sec = parse_section_expr("x1*eps1 + 1/2*eps2 - eps1", e)
    assert sec.coeffs[0] == base.poly("x1 - 1")
    assert sec.coeffs[1] == base.poly("1/2")
    assert parse_section_expr("0", e).is_zero()
    with pytest.raises(SpecError):
        parse_section_expr("eps1*eps2", e)   # not linear in the frame
    with pytest.raises(SpecError):
        parse_section_expr("x1 + eps1", e)   # scalar term
    with pytest.raises(SpecError):
        parse_section_expr("zz*eps1", e)     # unknown identifier


def test_parse_error_carries_line():
    with pytest.raises(SpecError) as err:
        parse_spec("[patch]\ncoords = x1\n[bundle.E]\nframe = e p s\n")
    assert "line" in str(err.value) or err.value.line


def test_unknown_check_reports_error():
    spec = parse_spec(MINIMAL)
    reports = run_check(spec, "no-such-check", [], 7)
    assert reports[0].status == "error"


def test_missing_object_reports_error():
    spec = parse_spec(MINIMAL)
    reports = run_check(spec, "dorfman-axioms", ["Nope"], 7)
    assert reports[0].status == "error"


def test_every_registered_check_has_a_statement():
    assert set(checks.REGISTRY) == set(CHECK_STATEMENTS)


def test_every_registered_check_has_an_arity():
    assert set(checks.REGISTRY) == set(CHECK_ARITY)


def test_unexpected_exception_keeps_traceback_out_of_report(monkeypatch, capsys):
    def explode(spec, args, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(checks.REGISTRY, "dorfman-axioms", explode)
    reports = run_check(parse_spec(MINIMAL), "dorfman-axioms", ["Delta"], 7)
    assert len(reports) == 1
    assert reports[0].status == "error"
    assert reports[0].details == ["unexpected RuntimeError: boom"]
    assert not reports[0].witnesses
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_index_error_in_runner_is_unexpected(monkeypatch, capsys):
    # arity is checked at parse time, so an IndexError is a bug, not a spec error
    def out_of_range(spec, args, seed):
        return [args[5]]

    monkeypatch.setitem(checks.REGISTRY, "dorfman-axioms", out_of_range)
    reports = run_check(parse_spec(MINIMAL), "dorfman-axioms", ["Delta"], 7)
    assert [r.status for r in reports] == ["error"]
    assert reports[0].details == ["unexpected IndexError: list index out of range"]
    err = capsys.readouterr().err
    assert "Traceback" in err and "IndexError" in err


def test_catalog_entries_parse_and_have_checks():
    for name in catalog_names():
        spec = parse_spec(catalog_text(name))
        assert spec.checks, name


def test_cli_run_on_catalog(capsys):
    rc = main(["catalog", "im2form"])
    captured = capsys.readouterr()
    assert rc == 0
    spec_text = captured.out
    assert "[checks]" in spec_text


def test_cli_json_document(tmp_path, capsys):
    path = tmp_path / "spec.clab"
    path.write_text(MINIMAL)
    rc = main(["run", "--format", "json", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    document = json.loads(captured.out)
    assert document["summary"]["ok"] is True
    assert document["results"][0]["check"] == "dorfman-axioms"


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.clab"
    bad.write_text("[patch]\ncoords = x1\n[bundle.E]\nframe = eps\n"
                   "[dorfman.D]\ne = E\nDx1, eps = x1^\n")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.clab")]) == 2
    assert main(["catalog", "missing-entry"]) == 2


def test_cli_check_selection_validated(tmp_path):
    path = tmp_path / "spec.clab"
    path.write_text(MINIMAL)
    assert main(["run", "--check", "unknown-name", str(path)]) == 2


def test_failing_check_exits_one(tmp_path, capsys):
    path = tmp_path / "spec.clab"
    path.write_text(MINIMAL.replace("standard-of = nabla",
                                    "standard-of = nabla\nkeep-bracket = yes\n"
                                    "shift Dx1, eps = dx1"))
    rc = main(["run", str(path)])
    capsys.readouterr()
    assert rc == 1


def test_xfail_line_counts_as_expected(tmp_path, capsys):
    path = tmp_path / "spec.clab"
    path.write_text(MINIMAL.replace(
        "standard-of = nabla",
        "standard-of = nabla\nkeep-bracket = yes\nshift Dx1, eps = dx1").replace(
        "dorfman-axioms = Delta", "xfail dorfman-axioms = Delta"))
    rc = main(["run", str(path)])
    capsys.readouterr()
    assert rc == 0


COURANT = """
[patch]
coords = x1

[courant.C]
standard = yes

[checks]
xfail courant-axioms = C
"""


def test_xfail_with_unknown_check_name_is_a_spec_error(tmp_path, capsys):
    text = COURANT.replace("xfail courant-axioms", "xfail courant-axiomz")
    with pytest.raises(SpecError, match="courant-axiomz"):
        parse_spec(text)
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert "unknown check 'courant-axiomz'" in capsys.readouterr().err


def test_xfail_with_missing_arguments_is_a_spec_error(tmp_path, capsys):
    text = COURANT.replace("xfail courant-axioms = C", "xfail dirac =")
    with pytest.raises(SpecError, match="'dirac' takes 3 argument"):
        parse_spec(text)
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert "got 0" in captured.err and "Traceback" not in captured.err


def test_extra_check_arguments_are_a_spec_error(tmp_path, capsys):
    text = COURANT.replace("xfail courant-axioms = C", "courant-axioms = C, extra, args")
    with pytest.raises(SpecError, match="'courant-axioms' takes 1 argument"):
        parse_spec(text)
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert "got 3" in capsys.readouterr().err


def test_xfail_is_not_met_by_an_error_without_witness(tmp_path, capsys):
    path = tmp_path / "spec.clab"
    path.write_text(COURANT.replace("= C", "= Typo"))
    rc = main(["run", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "!! courant-axioms(Typo) (expected fail)" in out


def test_single_entry_deterministic(tmp_path):
    # full verify-all determinism is exercised by the acceptance suite;
    # here one representative entry, twice, through the real process
    path = tmp_path / "spec.clab"
    path.write_text(catalog_text("im2form"))
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "courant_lab.cli", "run",
             "--format", "json", str(path)],
            capture_output=True, text=True)
        assert result.returncode == 0
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["summary"]["ok"] is True


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COURANT_LAB_SEED", "99")
    path = tmp_path / "spec.clab"
    path.write_text(MINIMAL)
    rc = main(["run", "--format", "json", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert json.loads(captured.out)["seed"] == 99
