"""A verdict says how much it checked: a check that evaluated no case is
not-applicable, never a vacuous pass."""

from courant_lab.cli import main
from courant_lab.report import NOT_APPLICABLE, Checker


def test_zero_cases_are_not_applicable():
    chk = Checker("empty", "nothing to check")
    chk.note("context line")
    report = chk.report()
    assert report.status == NOT_APPLICABLE
    assert report.details == ["context line", "no cases evaluated"]
    assert not report.witnesses


# E has rank 0 over a point, so Q = TM + E* has no frame and every loop is empty
VACUOUS = """
[patch]
coords =

[bundle.E]
frame =

[connection.nabla]
bundle = E

[dorfman.Delta]
e = E
standard-of = nabla

[checks]
dorfman-axioms = Delta
xfail duality = Delta
"""


def test_vacuous_lines_never_pass_or_satisfy_xfail(tmp_path, capsys):
    path = tmp_path / "spec.clab"
    path.write_text(VACUOUS)
    rc = main(["run", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert ("ok dorfman-axioms(Delta)\n"
            "    [not-applicable] dorfman-axioms: connection axioms (a), (b), (c)\n"
            "        no cases evaluated\n") in out
    assert "!! duality(Delta) (expected fail)\n    [not-applicable] duality:" in out
