import gc
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from courant_lab import algebroid, bundle, checks, courant, dorfman, laops, prolong, report
from courant_lab.catalog import catalog_names, catalog_text
from courant_lab.checks import run_check
from courant_lab.cli import _results_for_spec, main
from courant_lab.specfile import SpecError, parse_spec, parse_section_expr
from courant_lab.bundle import Bundle, HomSection, Patch, patch
from courant_lab.poly import ScalarPoly
from courant_lab.dorfman import DorfmanConnection

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
    assert "Delta" in spec.objects["dorfman"]
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


@pytest.mark.parametrize("args", [["Delta"], ["Delta", "U", "K", "K"]])
def test_run_check_reports_a_wrong_argument_count(capsys, args):
    spec = parse_spec(catalog_text("im2form-zero"))
    [report] = run_check(spec, "dirac", args, 7)
    assert report.status == "error" and not report.witnesses
    assert report.details == [f"SpecError: check 'dirac' takes 3 argument(s), got {len(args)}"]
    assert capsys.readouterr().err == ""


def _replace_runner(monkeypatch, name, run):
    monkeypatch.setitem(checks.CHECKS, name, checks.CHECKS[name]._replace(run=run))


def test_unexpected_exception_keeps_traceback_out_of_report(monkeypatch, capsys):
    def explode(spec, seed, delta):
        raise RuntimeError("boom")

    _replace_runner(monkeypatch, "dorfman-axioms", explode)
    reports = run_check(parse_spec(MINIMAL), "dorfman-axioms", ["Delta"], 7)
    assert len(reports) == 1
    assert reports[0].status == "error"
    assert reports[0].details == ["unexpected RuntimeError: boom"]
    assert not reports[0].witnesses
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_index_error_in_runner_is_unexpected(monkeypatch, capsys):
    # arity is checked at parse time, so an IndexError is a bug, not a spec error
    def out_of_range(spec, seed, delta):
        return [[delta][5]]

    _replace_runner(monkeypatch, "dorfman-axioms", out_of_range)
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
    # section4 on a bracket that is not Lie is an error report with no witness
    path = tmp_path / "spec.clab"
    path.write_text(NOT_LIE.replace("\nsection4 = A, Delta", "\nxfail section4 = A, Delta"))
    rc = main(["run", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "!! section4(A, Delta) (expected fail)" in out


@pytest.mark.parametrize("arg,message", [
    ("Typo", "check 'courant-axioms' argument 1: unknown courant 'Typo'"),
    ("E", "check 'courant-axioms' argument 1: 'E' is a bundle, not a courant"),
])
def test_xfail_with_an_unresolved_argument_is_a_spec_error(tmp_path, capsys, arg, message):
    text = COURANT.replace("= C", f"= {arg}") + "\n[bundle.E]\nframe = eps\n"
    with pytest.raises(SpecError, match=message):
        parse_spec(text)
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("arg,message", [
    ("Nope", "check 'lie' argument 1: unknown bracket 'Nope'"),
    ("E", "check 'lie' argument 1: 'E' is a bundle, not a bracket"),
    ("Delta", "check 'lie' argument 1: 'Delta' is a dorfman, not a bracket"),
])
def test_check_arguments_resolve_at_parse_time(tmp_path, capsys, arg, message):
    text = MINIMAL.replace("dorfman-axioms = Delta", f"lie = {arg}")
    with pytest.raises(SpecError, match=message) as err:
        parse_spec(text)
    assert err.value.line == text.splitlines().index(f"lie = {arg}") + 1
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err


def test_objects_may_be_declared_after_the_checks():
    checks_first = "[patch]\ncoords = x1\n[checks]\ncourant-axioms = C\n" \
                   "[courant.C]\nstandard = yes\n"
    assert parse_spec(checks_first).checks == [("courant-axioms", ["C"], False)]


@pytest.mark.parametrize("text,line,message", [
    (MINIMAL + "\n[dorfman.Delta]\ne = E\n", 19,
     "[dorfman.Delta] repeats the declaration [dorfman.Delta] on line 12"),
    (MINIMAL + "\n[patch]\ncoords = x1\n", 19, "[patch] repeats the declaration [patch] on line 2"),
    (MINIMAL + "\n[hom.rho]\nsource = E\ntarget = T*M\n[anchor.rho]\nbundle = E\n", 22,
     "[anchor.rho] repeats the declaration [hom.rho] on line 19"),
    (MINIMAL.replace("frame = eps", "frame = eps\nframe = e2"), 7,
     "key 'frame' in [bundle.E] repeats line 6"),
    (MINIMAL.replace("x2, eps = x1*eps", "x2, eps = x1*eps\nx2, eps = eps"), 11,
     "key 'x2, eps' in [connection.nabla] repeats line 10"),
], ids=["section", "patch", "anchor-after-hom", "bundle-key", "connection-key"])
def test_repeated_declarations_are_spec_errors(tmp_path, capsys, text, line, message):
    with pytest.raises(SpecError, match=re.escape(message)) as err:
        parse_spec(text)
    assert err.value.line == line
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"line {line}: {message}" in capsys.readouterr().err


def test_a_negated_power_is_a_spec_error(tmp_path, capsys):
    # -x1^2 would read as (-x1)^2 = x1^2: the spec is refused on its line
    text = MINIMAL.replace("x2, eps = x1*eps", "x2, eps = -x1^2*eps")
    message = "-x1^2 is ambiguous: write -(x1^2) or (-x1)^2"
    with pytest.raises(SpecError, match=re.escape(message)) as err:
        parse_spec(text)
    assert err.value.line == text.splitlines().index("x2, eps = -x1^2*eps") + 1 == 10
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert "line 10: " in captured.err and message in captured.err
    assert "Traceback" not in captured.err


TWO_BUNDLES = """
[patch]
coords = x1, x2

[bundle.E]
frame = eps

[bundle.F]
frame = phi
"""


@pytest.mark.parametrize("body,key", [
    ("[connection.nabla]\nbundle = E + F\n\n[dorfman.D]\nstandard-of = nabla\n",
     "bundle = E + F"),
    ("[dorfman.D]\ne = E + F\n", "e = E + F"),
], ids=["connection-bundle", "dorfman-e"])
def test_a_sum_of_bundles_where_one_bundle_e_is_read_is_a_spec_error(tmp_path, capsys,
                                                                      body, key):
    # the canonical pre-dual and the Dorfman constructors read E as one
    # summand of E + T*M; a sum used to fail later, or not at all
    text = f"{TWO_BUNDLES}\n{body}\n[checks]\ndorfman-axioms = D\n"
    line = text.splitlines().index(key) + 1
    with pytest.raises(SpecError, match="names a sum of bundles") as err:
        parse_spec(text)
    assert err.value.line == line
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"line {line}: {key} in [" in captured.err and "Traceback" not in captured.err


def test_section4_on_a_bracket_over_a_sum_of_bundles_names_the_sum(tmp_path, capsys):
    text = (TWO_BUNDLES + "\n[bracket.A]\nbundle = E + F\n\n[dorfman.Delta]\n"
            "lie-derivative-of = A\n\n[checks]\nlie = A\nlinear-poisson = A\n"
            "section4 = A, Delta\n")
    lie, poisson, section4 = _results_for_spec(parse_spec(text), None, 7)
    # the bracket and its dual's linear Poisson structure need no single A;
    # A + T*M is read by its summand A, which a sum is not
    assert lie["as_expected"] and poisson["as_expected"]
    [rep] = section4["reports"]
    assert (rep["status"], rep["details"]) == ("error", [
        "BundleError: E+F is not a summand of E+F+T*M"])
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    assert "E+F is not a summand of E+F+T*M" in capsys.readouterr().out


def test_a_dorfman_connection_off_tm_plus_a_dual_is_refused_by_name(tmp_path, capsys):
    # the Lie derivative of the tangent algebroid A = TM acts on A itself,
    # while the lines that pair A with a Dorfman connection need one on
    # TM + A*; each is refused once, naming both bundles
    text = ("[patch]\ncoords = x1, x2\n\n[anchor.rho]\nbundle = TM\nDx1 = Dx1\nDx2 = Dx2\n\n"
            "[bracket.A]\nbundle = TM\nanchor = rho\nantisymmetric = yes\n\n"
            "[dorfman.Delta]\nlie-derivative-of = A\n\n[checks]\nlie = A\n"
            "section4 = A, Delta\nta-generators = A, Delta\nidentity-lemmas = A, Delta\n")
    lie, *paired = _results_for_spec(parse_spec(text), None, 7)
    assert lie["as_expected"]
    for result in paired:
        [rep] = result["reports"]
        assert (rep["status"], rep["details"]) == ("error", [
            "BundleError: the Dorfman connection acts on TM, not on TM + A* = TM+T*M"])
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert "unexpected" not in captured.out and "Traceback" not in captured.err


def test_section4_over_the_cotangent_bundle_names_the_repeated_summand(tmp_path, capsys):
    # A = T*M makes TM + A* repeat TM, which no summand read could tell apart
    text = ("[patch]\ncoords = x1, x2\n\n[bracket.A]\nbundle = T*M\nantisymmetric = yes\n\n"
            "[dorfman.Delta]\nlie-derivative-of = A\n\n[checks]\nlie = A\nsection4 = A, Delta\n")
    lie, section4 = _results_for_spec(parse_spec(text), None, 7)
    assert lie["as_expected"]
    [rep] = section4["reports"]
    assert (rep["status"], rep["details"]) == ("error", [
        "BundleError: TM+TM repeats the summand TM"])
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 1
    assert "TM+TM repeats the summand TM" in capsys.readouterr().out


# E = TM: Q and B are both TM + T*M, whose summands TM and T*M play the
# roles of TM and E* in Q and of E and T*M in B; nabla is curved
E_IS_TM = """
[patch]
coords = x1, x2

[connection.nabla]
bundle = TM
x2, Dx1 = x1*Dx2

[dorfman.Delta]
e = TM
standard-of = nabla

[checks]
dorfman-axioms = Delta
duality = Delta
curvature = Delta
skew = Delta
splitting-theorems = Delta
"""


def test_the_tangent_bundle_as_e_passes_the_dorfman_lines(tmp_path):
    results = _results_for_spec(parse_spec(E_IS_TM), None, 7)
    assert [r["check"] for r in results] == ["dorfman-axioms", "duality", "curvature", "skew",
                                             "splitting-theorems"]
    assert all(r["as_expected"] for r in results)
    assert all(rep["status"] == "pass" for r in results for rep in r["reports"])
    path = tmp_path / "spec.clab"
    path.write_text(E_IS_TM)
    assert main(["run", str(path)]) == 0


def _tangent_algebroid_as_tm(text):
    """im2form-zero with TM in place of its named copy A of the tangent
    algebroid: no [bundle.A]; TM is the bundle of the anchor, the bracket,
    the connection and the source of sigma0, and e; both ambients are
    TM+T*M, K is spanned by Dx1 ; Dx2, and the bracket keeps its name A."""
    lines = {"bundle = A": "bundle = TM", "source = A": "source = TM", "e = A": "e = TM",
             "ambient = TM+A*": "ambient = TM+T*M", "ambient = A+T*M": "ambient = TM+T*M",
             "span = a1 ; a2": "span = Dx1 ; Dx2", "a1 = Dx1": "Dx1 = Dx1",
             "a2 = Dx2": "Dx2 = Dx2"}
    text = text.replace("[bundle.A]\nframe = a1, a2\n\n", "")
    return "".join(lines.get(line, line) + "\n" for line in text.splitlines())


@pytest.mark.parametrize("seed", [7, 11])
def test_the_tangent_algebroid_as_tm_prints_the_catalog_block(tmp_path, capsys, seed):
    # the named-copy relation: writing the tangent algebroid of the plane
    # as TM changes no byte of what its named copy A prints
    text = _tangent_algebroid_as_tm(catalog_text("im2form-zero"))
    assert "[bundle.A]" not in text and text.count("bundle = TM\n") == 3
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", "--seed", str(seed), str(path)]) == 0
    golden = (Path(__file__).parent / "golden" / f"verify-all-seed{seed}.txt").read_text()
    block = golden.split("== im2form-zero ==\n")[1].split("\n\n")[0]
    assert capsys.readouterr().out == block + "\n\nsummary: 12/12 checks as expected\n"


TRIVIAL = catalog_text("trivial")


def _with(text, after, added):
    """text with the line `added` inserted after the line `after`."""
    return text.replace(after + "\n", f"{after}\n{added}\n", 1)


# two bundles and an anchor on a sum of them, one line naming a frame element
TWO_FRAMES = """
[patch]
coords = x1, x2

[bundle.E]
frame = {e}

[bundle.F]
frame = {f}

[anchor.rho]
bundle = {ref}
{name} = Dx1
"""

# (spec text, the line the error names, a fragment of its message)
MALFORMED = {
    "missing-bundle": (MINIMAL.replace("bundle = E\n", ""), "[connection.nabla]",
                       "[connection.nabla] needs the key 'bundle'"),
    "missing-target": (MINIMAL + "\n[hom.sigma]\nsource = E\neps = x2*dx1\n", "[hom.sigma]",
                       "[hom.sigma] needs the key 'target'"),
    "missing-ambient": (MINIMAL + "\n[subbundle.U]\nspan = Dx1\n", "[subbundle.U]",
                        "[subbundle.U] needs the key 'ambient'"),
    "missing-b": (TRIVIAL.replace("b = B\n", ""), "[dorfman.T]",
                  "[dorfman.T] needs the key 'b'"),
    "bundle-fram": (_with(MINIMAL, "frame = eps", "fram = eps"), "fram = eps",
                    "unknown key 'fram' in [bundle.E]"),
    "courant-shfit": (_with(COURANT, "standard = yes", "shfit Dx1, dx1 = dx1"),
                      "shfit Dx1, dx1 = dx1", "unknown key 'shfit Dx1, dx1' in [courant.C]"),
    "subbundle-spam": (MINIMAL + "\n[subbundle.U]\nambient = TM\nspam = 1\n", "spam = 1",
                       "unknown key 'spam' in [subbundle.U]"),
    "dorfman-q": (_with(MINIMAL, "standard-of = nabla", "q = E"), "q = E",
                  "unknown key 'q' in [dorfman.Delta]"),
    "antisymmetric-yse": (TRIVIAL.replace("antisymmetric = yes", "antisymmetric = yse"),
                          "antisymmetric = yse", "expected yes or no"),
    "keep-bracket-maybe": (_with(MINIMAL, "standard-of = nabla", "keep-bracket = maybe"),
                           "keep-bracket = maybe", "expected yes or no"),
    "two-constructors": (_with(catalog_text("im2form"), "im2form-of = sigma, nabla",
                               "standard-of = nabla"), "standard-of = nabla",
                         "names both im2form-of and standard-of"),
    "e-not-the-connection-bundle": (
        _with(MINIMAL, "frame = eps", "[bundle.F]\nframe = f").replace("\ne = E", "\ne = F"),
        "e = F", "e = F is not the bundle E of standard-of = nabla"),
    "unknown-bracket": (_with(MINIMAL, "standard-of = nabla", "bracket = Nope"),
                        "bracket = Nope", "unknown bracket 'Nope'"),
    "nameless-bundle": (MINIMAL.replace("[bundle.E]", "[bundle]").replace("= E\n", "=\n"),
                        "[bundle]", "[bundle] needs a name"),
    "bundle-named-TM": (_with(MINIMAL, "frame = eps", "[bundle.TM]\nframe = t1"), "[bundle.TM]",
                        "a bundle cannot be named 'TM'"),
    "repeated-coordinate": (MINIMAL.replace("coords = x1, x2", "coords = x2, x2"),
                            "coords = x2, x2", "'x2' is named twice"),
    "dependent-span": (catalog_text("point-bialgebroid").replace("span = e1s ; e2s",
                                                                 "span = e1s ; e1s"),
                       "span = e1s ; e1s", "[subbundle.U]: frame vectors are linearly dependent"),
    # a frame name equal to a coordinate or to another frame name of the
    # sum would be read as its first occurrence; a frame name (or its dual)
    # that is a coordinate, or a frame name of TM or T*M, is refused on its
    # frame line, also where no expression over the bundle is parsed
    "frame-named-as-coordinate": (
        MINIMAL.replace("frame = eps", "frame = x1").replace("x2, eps = x1*eps", "x2, x1 = x1"),
        "frame = x1", "frame name 'x1' is also a coordinate or a frame name of TM or T*M"),
    "frame-named-as-coordinate-unused": (
        MINIMAL.replace("frame = eps", "frame = x1").replace("x2, eps = x1*eps\n", ""),
        "frame = x1", "frame name 'x1' is also a coordinate"),
    "frame-named-as-tangent-frame-unused": (
        MINIMAL.replace("frame = eps", "frame = Dx1").replace("x2, eps = x1*eps\n", ""),
        "frame = Dx1", "frame name 'Dx1' is also a coordinate or a frame name of TM or T*M"),
    "frame-named-as-cotangent-frame": (MINIMAL.replace("frame = eps", "frame = eps, dx2"),
                                       "frame = eps, dx2", "frame name 'dx2' is also"),
    "dual-frame-named-as-coordinate": (
        MINIMAL.replace("coords = x1, x2", "coords = x1, x2, epss"), "frame = eps",
        "'epss', the dual of 'eps', is also a coordinate"),
    "frame-named-as-dual-frame": (MINIMAL + "\n[bundle.F]\nframe = f, fs\n\n[subbundle.U]\n"
                                            "ambient = F+F*\nspan = fs\n",
                                  "frame = f, fs", "frame name 'fs' is also a frame name of F*"),
    # nor may it repeat a frame name of an earlier bundle, or of its dual
    "frame-named-as-earlier-frame": (
        TWO_FRAMES.format(e="a", f="b, a", ref="E+F", name="a"),
        "frame = b, a", "frame name 'a' is also a frame name of E"),
    "frame-named-as-earlier-dual-frame": (
        TWO_FRAMES.format(e="a", f="as", ref="E*+F", name="as"),
        "frame = as", "frame name 'as' is also a frame name of E*"),
    "frame-named-as-tangent-frame": (MINIMAL + "\n[bundle.F]\nframe = Dx1\n\n[subbundle.U]\n"
                                               "ambient = TM+F\nspan = Dx1\n",
                                     "frame = Dx1", "frame name 'Dx1' is also a coordinate"),
    # a summand is named by its bundle, so a sum may not repeat one: E = T*M
    # makes E + T*M repeat T*M (with or without a constructor), and an
    # ambient E+E repeats E; each is refused on the line that names it
    "e-is-cotangent": (MINIMAL.replace("e = E\nstandard-of = nabla", "e = T*M"),
                       "e = T*M", "T*M+T*M repeats the summand T*M"),
    "e-is-cotangent-with-standard-of": (
        MINIMAL.replace("bundle = E\nx2, eps = x1*eps", "bundle = T*M").replace("e = E", "e = T*M"),
        "e = T*M", "T*M+T*M repeats the summand T*M"),
    "ambient-repeats-a-summand": (MINIMAL + "\n[subbundle.U]\nambient = E+E\nspan = eps\n",
                                  "ambient = E+E", "E+E repeats the summand E"),
    # refused before any multiplication, so the parse returns at once
    "huge-exponent": (MINIMAL.replace("x2, eps = x1*eps", "x2, eps = x1^99999999999*eps"),
                      "x2, eps = x1^99999999999*eps",
                      "exponent 99999999999 is not below 32768"),
}


@pytest.mark.parametrize("text,line,message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_sections_are_spec_errors(tmp_path, capsys, text, line, message):
    path = tmp_path / "spec.clab"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    lineno = text.splitlines().index(line) + 1
    assert re.fullmatch(rf"spec error: line {lineno}: [^\n]*\n", captured.err), captured.err
    assert message in captured.err and captured.out == ""


def test_repeated_check_lines_stay_legal():
    text = MINIMAL + "dorfman-axioms = Delta\n\n[checks]\ndorfman-axioms = Delta\n"
    assert parse_spec(text).checks == [("dorfman-axioms", ["Delta"], False)] * 3


def test_identity_lemmas_without_a_triple():
    text = catalog_text("im2form-zero").replace("identity-lemmas = A, Delta, U, K",
                                                "identity-lemmas = A, Delta")
    spec = parse_spec(text)
    assert ("identity-lemmas", ["A", "Delta"], False) in spec.checks
    [report] = run_check(spec, "identity-lemmas", ["A", "Delta"], 7)
    assert report.status == "pass"
    assert "mixed-pairing: skipped (no triple supplied)" in report.details


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


RANK_ZERO = MINIMAL.replace("frame = eps", "frame =").replace(
    "x2, eps = x1*eps\n", "").replace("dorfman-axioms = Delta", "splitting-theorems = Delta")


def test_rank_zero_bundle_runs_the_splitting_theorems(tmp_path, capsys):
    # a rank-0 E has no curvature columns, so the hom must not read its target off them
    path = tmp_path / "spec.clab"
    path.write_text(RANK_ZERO)
    rc = main(["run", str(path)])
    captured = capsys.readouterr()
    assert rc == 0, captured.out
    assert "ok splitting-theorems(Delta)" in captured.out
    assert "Traceback" not in captured.err


# -- derived objects are computed once per spec ------------------------------


def _count_computations(monkeypatch):
    """Counts real computations: each run of check_lie draws its random
    sections once, and the LA-Dirac gate and the Manin pair each open one
    Checker of their name.  The cases a Checker records are counted by its
    name too: ("record", name) per `record` call, ("passes", name) per case
    recorded in bulk."""
    counts = Counter()
    real_random_sections = algebroid.random_sections

    def random_sections(bundle, *args, **kwargs):
        counts["lie " + bundle.label()] += 1
        return real_random_sections(bundle, *args, **kwargs)

    class CountingChecker(report.Checker):
        def __init__(self, name, statement):
            counts[name] += 1
            super().__init__(name, statement)

        def record(self, identity, inputs, difference):
            counts["record", self.name] += 1
            return super().record(identity, inputs, difference)

        def passes(self, identity, count, labels):
            counts["passes", self.name] += count
            return super().passes(identity, count, labels)

    monkeypatch.setattr(algebroid, "random_sections", random_sections)
    for module in (laops, courant, dorfman):
        monkeypatch.setattr(module, "Checker", CountingChecker)
    return counts


def test_derived_objects_are_computed_once_per_spec(monkeypatch):
    counts = _count_computations(monkeypatch)
    results = _results_for_spec(parse_spec(catalog_text("im2form-zero")), None, 7)
    assert all(r["as_expected"] for r in results)
    assert counts["lie A"] == 1       # the lie line and every LieAlgebroidData
    assert counts["lie U"] == 1       # restricted U: dirac, la-dirac and every gate
    assert counts["la-dirac"] == 1    # la-dirac, k-algebroid and the Manin pair
    assert counts["manin-pair"] == 1  # manin-pair, roundtrip, standard-iso, recover-perturbed


def test_dirac_draws_its_random_sections_from_the_line_seed():
    # the restricted bracket of line-bundle-r2's full triple is not Lie, so
    # its random Jacobi witnesses show which seed the battery ran at
    spec = parse_spec(catalog_text("line-bundle-r2"))
    witnesses = {}
    for seed in (7, 11):
        [report] = run_check(spec, "dirac", ["Delta", "U", "K"], seed)
        witnesses[seed] = [(w.inputs, w.difference) for w in report.witnesses
                           if w.identity == "restricted-lie" and "random" in w.inputs]
    assert witnesses[7] and witnesses[11] and witnesses[7] != witnesses[11]


def test_derived_objects_do_not_outlive_their_spec(monkeypatch):
    counts = _count_computations(monkeypatch)
    text = catalog_text("im2form-zero")
    first = _results_for_spec(parse_spec(text), None, 7)
    after_first = Counter(counts)
    second = _results_for_spec(parse_spec(text), None, 7)
    assert second == first
    assert counts == after_first + after_first


NOT_LIE = """
[patch]
coords = x1, x2

[bundle.A]
frame = a1, a2

[bracket.A]
bundle = A
a1, a2 = a1

[connection.nabla]
bundle = A

[dorfman.Delta]
e = A
standard-of = nabla

[checks]
xfail lie = A
section4 = A, Delta
ta-generators = A, Delta
"""


def test_lines_on_a_non_lie_bracket_share_one_check(monkeypatch):
    counts = _count_computations(monkeypatch)
    lie, section4, generators = _results_for_spec(parse_spec(NOT_LIE), None, 7)
    assert lie["as_expected"] and lie["reports"][0]["witnesses"]
    assert counts["lie A"] == 1
    expected = ["BundleError: the bracket does not define a Lie algebroid; "
                "see check_lie for witnesses"]
    for result in (section4, generators):
        [rep] = result["reports"]
        assert (rep["status"], rep["details"], rep["witnesses"]) == ("error", expected, [])


# -- each operator value is computed once per check --------------------------


def _im2form_zero_objects():
    spec = parse_spec(catalog_text("im2form-zero"))
    return checks._lad(spec, 7, spec.lookup("bracket", "A")), spec.lookup("dorfman", "Delta")


def _count_pairs(monkeypatch, module, name):
    """Wraps module.name(..., x, y, **kwargs) to count its calls per pair of
    sections x, y, the arguments before them (bracket, connection, algebroid
    data) by identity.  x and y count by bundle and coefficients, as the
    table of LieAlgebroidData hands out one object for equal values."""
    counts = Counter()
    real = getattr(module, name)

    def counting(*args, **kwargs):
        *owners, x, y = args
        counts[tuple(map(id, owners)), (x.bundle, x.coeffs, y.bundle, y.coeffs)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return counts


def test_generator_table_is_built_once_per_algebra(monkeypatch):
    lad, delta = _im2form_zero_objects()
    anchors, brackets = Counter(), Counter()
    real_anchor = prolong.GeneratorAlgebra._theta_generator
    real_bracket = prolong.GeneratorAlgebra._bracket_generators

    def anchor(self, key):
        anchors[key] += 1
        return real_anchor(self, key)

    def bracket(self, k1, k2):
        brackets[k1, k2] += 1
        return real_bracket(self, k1, k2)

    monkeypatch.setattr(prolong.GeneratorAlgebra, "_theta_generator", anchor)
    monkeypatch.setattr(prolong.GeneratorAlgebra, "_bracket_generators", bracket)
    assert prolong.ta_generator_check(lad, delta).passed
    generators = lad.a_bundle.rank + lad.sigma_bundle.rank
    assert len(anchors) == generators and set(anchors.values()) == {1}
    assert len(brackets) == generators ** 2 and set(brackets.values()) == {1}


def test_perturbed_generator_table_fails_ta_generators(monkeypatch):
    lad, delta = _im2form_zero_objects()
    real = prolong.GeneratorAlgebra._bracket_generators

    def perturbed(self, k1, k2):
        # [a1~, a2~] moved by w1 times the first core generator
        value = real(self, k1, k2)
        if (k1, k2) == (0, 1):
            value = value + self.bundle.frame_section(lad.a_bundle.rank).scale(self.tp.fiber(0))
        return value

    monkeypatch.setattr(prolong.GeneratorAlgebra, "_bracket_generators", perturbed)
    report = prolong.ta_generator_check(lad, delta)
    assert report.status == "fail" and len(report.witnesses) == 23
    first = report.witnesses[0]
    assert (first.identity, first.inputs, first.difference) == (
        "table-antisymmetric", "(a1~; a2~)", "w1*a1!")


def test_ruth_compat_applies_delta_once_per_pair(monkeypatch):
    spec = parse_spec(catalog_text("im2form-zero"))
    lad = checks._lad(spec, 7, spec.lookup("bracket", "A"))
    triple = checks._triple(spec, 7, *spec.resolve("dirac", ["Delta", "U", "K"]))
    counts = _count_pairs(monkeypatch, DorfmanConnection, "apply")
    assert laops.check_ruth_compat(lad, triple.delta, triple).passed
    assert counts and max(counts.values()) == 1


def test_dorfman_like_check_brackets_each_pair_once(monkeypatch):
    # A + T*M has r = 4 frame sections on im2form-zero, and the check
    # brackets frame pairs only: the r^2 = 16 that symmetrization reads
    # (every other case is derived) and the frame Jacobiators of
    # jacobi-leibniz.  Every frame bracket [e_q, e_t] is zero there, so the
    # nested [e_p, [e_q, e_t]] add the 4 pairs (e_p, 0) and the outer
    # [[e_i, e_j], e_t] the 4 pairs (0, e_t): 24 pairs, each bracketed once
    lad, delta = _im2form_zero_objects()
    counts = _count_pairs(monkeypatch, laops, "dorfman_like_bracket")
    assert laops.check_dlike(lad, delta).passed
    assert len(counts) == 16 + 4 + 4 and max(counts.values()) == 1


def test_basic_identities_evaluate_each_pair_once(monkeypatch):
    # nabla^bas_a t is evaluated for the 2 frame sections a of A and the
    # 4 frame targets t of each of TM + A* and A + T*M, and basic_v on the
    # images (rho,rho*) sigma of the 4 frame sigma, which on im2form-zero
    # (rho the identity of TM) are the frame sections Dx1, Dx2, a1s and a2s
    # themselves: 2 * 4 pairs each, every other case derived
    lad, delta = _im2form_zero_objects()
    counts_v = _count_pairs(monkeypatch, laops, "basic_v")
    counts_sigma = _count_pairs(monkeypatch, laops, "basic_sigma")
    assert laops.check_basic_identities(lad, delta).passed
    assert len(counts_v) == 2 * 4 and max(counts_v.values()) == 1
    assert len(counts_sigma) == 2 * 4 and max(counts_sigma.values()) == 1


CURVED = """
[patch]
coords = x1, x2

[bundle.E]
frame = e1

[connection.nabla]
bundle = E
x2, e1 = x1*e1

[dorfman.Delta]
e = E
standard-of = nabla
keep-bracket = yes
shift Dx1, e1 = 3*x2*dx2

[checks]
xfail curvature = Delta
xfail splitting-theorems = Delta
"""


def _battery_evaluations(monkeypatch):
    """Counts the evaluations of battery-table entries: the calls of
    DorfmanConnection.apply and AnchoredBracket.bracket whose arguments are,
    by value, sections of the battery of their bundles, per operator, owner
    and pair of battery positions.  A call on a value of an earlier call
    (Delta_q applied to Delta_q' b, or Delta applied to a bracket) is a
    nested term, not a table entry, even where that value equals a battery
    section.  Owners and values are kept alive, so that no two share an id."""
    counts, kept, results, positions = Counter(), [], set(), {}

    def position(sec):
        if sec.bundle not in positions:
            positions[sec.bundle] = {s.coeffs: p
                                     for p, s in enumerate(sec.bundle.battery.sections)}
        return positions[sec.bundle].get(sec.coeffs)

    for cls, name in ((DorfmanConnection, "apply"), (algebroid.AnchoredBracket, "bracket")):
        def counting(owner, x, y, name=name, real=getattr(cls, name)):
            p, q = position(x), position(y)
            if None not in (p, q) and id(x) not in results and id(y) not in results:
                counts[name, id(owner), p, q] += 1
            value = real(owner, x, y)
            kept.append((owner, value))
            results.add(id(value))
            return value

        monkeypatch.setattr(cls, name, counting)
    return counts


def test_curvature_tensoriality_applies_delta_once_per_pair(monkeypatch):
    # every application to two battery sections is read from the battery table
    delta = parse_spec(CURVED).lookup("dorfman", "Delta")
    counts = _battery_evaluations(monkeypatch)
    report = delta.check_curvature_tensorial()
    assert not report.passed and report.witnesses
    applied = [n for (name, *_), n in counts.items() if name == "apply"]
    assert applied and max(applied) == 1


def test_curvature_nested_terms_are_evaluated_once_per_position(monkeypatch):
    # Delta_{q_x} Delta_{q_y} t_z is applied once per frame position (x, y, z)
    # when the frame curvatures are built: the first term of R(q_x, q_y) t_z and
    # the second of R(q_y, q_x) t_z.  The check derives its scaled cases and
    # applies Delta to nothing
    delta = parse_spec(CURVED).lookup("dorfman", "Delta")
    q_batt, b_batt = delta.battery_table.rows, delta.battery_table.cols
    rows = {id(sec): x for x, sec in enumerate(q_batt.sections)}
    entries, nested, applied = {}, Counter(), []  # entries: id of Delta_{s_y} t_z -> (y, z)
    real_apply, real_entry = DorfmanConnection.apply, DorfmanConnection.battery_apply

    def battery_apply(self, y, z):
        value = real_entry(self, y, z)
        entries.setdefault(id(value), (y, z))
        return value

    def counting(self, v, s):
        if not (v.is_zero() or s.is_zero()):
            applied.append(1)
            if id(v) in rows and id(s) in entries:
                nested[rows[id(v)], *entries[id(s)]] += 1
        return real_apply(self, v, s)

    monkeypatch.setattr(DorfmanConnection, "battery_apply", battery_apply)
    monkeypatch.setattr(DorfmanConnection, "apply", counting)
    delta.frame_curvature(0, 1)
    built, positions = len(applied), Counter(nested)
    report = delta.check_curvature_tensorial()
    assert not report.passed and report.witnesses
    assert nested == positions and max(nested.values()) == 1
    assert set(nested) <= {(x, y, z) for x in q_batt.frames for y in q_batt.frames
                           for z in b_batt.frames}
    # 24 applications with two nonzero operands build the frame curvatures; the
    # check reads Delta_{q_j} d_B phi off the table entries Delta_{q_j} t_k
    assert (built, len(applied) - built) == (24, 0)


def test_curvature_bracket_terms_are_evaluated_once_per_position(monkeypatch):
    # Delta_{[[q_i, q_j]]} t_k is applied once per frame position (i, j, k),
    # when the frame curvatures are built; the check pairs the brackets with
    # t_k and applies Delta to none.  An application is counted by the
    # position of the bracket last read, since a zero bracket is one shared
    # section for many positions
    delta = parse_spec(CURVED).lookup("dorfman", "Delta")
    q_frames, cols = delta.battery_table.rows.frames, delta.battery_table.cols
    last, applied = [], Counter()
    real_bracket, real_apply = algebroid.AnchoredBracket.battery_bracket, DorfmanConnection.apply

    def battery_bracket(self, a, c):
        value = real_bracket(self, a, c)
        last[:] = [(a, c, value)]
        return value

    def counting(self, v, s):
        if last and v is last[0][2]:
            a, c, _ = last[0]
            applied.update((a, c, t) for t in cols.frames if s is cols.sections[t])
        return real_apply(self, v, s)

    monkeypatch.setattr(algebroid.AnchoredBracket, "battery_bracket", battery_bracket)
    monkeypatch.setattr(DorfmanConnection, "apply", counting)
    delta.frame_curvature(0, 0)
    built = Counter(applied)
    report = delta.check_curvature_tensorial()
    assert not report.passed and report.witnesses
    assert applied == built and max(applied.values()) == 1
    assert set(applied) == {(a, c, t) for a in q_frames for c in q_frames for t in cols.frames}


DORFMAN_LINES = ("dorfman-axioms", "duality", "curvature", "skew", "splitting-theorems")


def test_dorfman_lines_evaluate_each_battery_entry_once_per_spec(monkeypatch):
    # the five lines share the battery tables of Delta and of its dull bracket;
    # a second parse evaluates its own entries again
    counts = _battery_evaluations(monkeypatch)
    text = catalog_text("line-bundle-r2")
    per_spec = []
    for _ in range(2):
        spec = parse_spec(text)
        seen = set(counts)
        for name in DORFMAN_LINES:
            assert all(r.passed for r in run_check(spec, name, ["Delta"], 7))
        per_spec.append({key: n for key, n in counts.items() if key not in seen})
    first, second = per_spec
    for entries in per_spec:
        for operator in ("apply", "bracket"):
            assert max(n for (name, *_), n in entries.items() if name == operator) == 1
    assert len(second) == len(first)


@pytest.mark.parametrize("name,lifts", [("rank1-r3", 41), ("rank2-r3", 55)])
def test_splitting_theorems_lifts_no_scaled_case_on_the_scaling_workload(monkeypatch, name,
                                                                         lifts):
    # over R^3 (5 battery functions) with B = E + T*M of rank r (4 or 5) and
    # Q of the same rank: the r * 5 battery sections of B, the r^2 frame values
    # Delta_{q_i} b_m and d_B phi for each battery function, r^2 + 5r + 5 core
    # lifts; the scaled cases of bracket-linear-core lift nothing, since their
    # defects A and B vanish (420 and 650 lifts when each case was lifted)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    [text] = [spec.text for spec in workloads.generate("scaling-r3", 7) if spec.name == name]
    spec = parse_spec(text)
    calls = []
    real = prolong.lift_core
    monkeypatch.setattr(prolong, "lift_core", lambda *args: calls.append(1) or real(*args))
    assert all(r.passed for r in run_check(spec, "splitting-theorems", ["Delta"], 7))
    assert len(calls) == lifts


@pytest.mark.parametrize("line,cases", [
    ("duality", {"duality": (100, 3125)}),
    ("curvature", {"curvature-tensorial": (1250, 625), "curvature-jacobiator": (0, 3200)})])
def test_dorfman_lines_record_vanishing_blocks_in_bulk(monkeypatch, line, cases):
    # (record calls, cases recorded in bulk) per report of a line on the
    # seed-7 scaling-r3 rank-2 text, where every case passes: of duality only
    # the literal roundtrip and forms-rule cases reach record; the linear-in-q1
    # and linear-in-q2 cases of curvature-tensorial alternate, so each reaches
    # record, and its linear-in-b cases go in bulk (3,225, 1,875 and 3,200
    # record calls when each case was one)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    [text] = [spec.text for spec in workloads.generate("scaling-r3", 7) if spec.name == "rank2-r3"]
    counts = _count_computations(monkeypatch)
    assert all(r.passed for r in run_check(parse_spec(text), line, ["Delta"], 7))
    assert {name: (counts["record", name], counts["passes", name]) for name in cases} == cases


def test_catalog_bundle_comparisons_are_settled_by_identity(monkeypatch, capsys):
    # a Patch and a Bundle are equal only to themselves, and each patch builds
    # one bundle per atoms tuple, so every bundle comparison is an `is` test:
    # neither class defines __eq__, and verify-all --seed 7 calls none
    assert "__eq__" not in vars(Bundle) and "__eq__" not in vars(Patch)
    calls = []
    real = Bundle.__eq__
    monkeypatch.setattr(Bundle, "__eq__", lambda self, other: calls.append(1) or real(self, other))
    assert main(["verify-all", "--seed", "7"]) == 0
    capsys.readouterr()
    assert calls == []


def test_battery_tables_make_no_reference_cycle():
    # with the cyclic collector off, the connection and its dull bracket go
    # as soon as the last reference to their spec does
    gc.disable()
    try:
        spec = parse_spec(catalog_text("line-bundle-r2"))
        delta = spec.lookup("dorfman", "Delta")
        refs = [weakref.ref(delta), weakref.ref(delta.bracket)]
        del delta
        assert all(r["as_expected"] for r in _results_for_spec(spec, None, 7))
        del spec
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_basic_curvature_check_evaluates_each_term_once(monkeypatch):
    lad, delta = _im2form_zero_objects()
    counts = {name: _count_pairs(monkeypatch, laops, name)
              for name in ("omega", "basic_v", "lie_der_v")}
    assert laops.check_basic_curvature(lad, delta).passed
    assert counts["omega"] and max(counts["omega"].values()) == 1
    assert counts["lie_der_v"] and max(counts["lie_der_v"].values()) == 1
    assert max(counts["basic_v"].values(), default=0) <= 1


# the module functions of laops that compute the values of the table
OPERATORS = ("omega", "lie_der_sigma", "lie_der_v", "dorfman_like_bracket", "basic_v",
             "basic_sigma")


def _value(arg):
    """An argument as a count key: a section by its coefficients, any other
    argument (the algebroid data, the connection) by identity."""
    return arg.coeffs if isinstance(arg, bundle.Section) else id(arg)


def _operator_values(monkeypatch):
    """Counts the calls of each laops operator per tuple of argument values."""
    counts = Counter()
    for name in OPERATORS:
        def counting(*args, name=name, real=getattr(laops, name)):
            counts[name, tuple(map(_value, args))] += 1
            return real(*args)

        monkeypatch.setattr(laops, name, counting)
    return counts


def test_one_spec_computes_each_operator_value_once(monkeypatch):
    # all 12 lines of im2form-zero on one parse: Omega, L_a, the Dorfman-like
    # bracket and nabla^bas are computed once per argument value, and so is
    # every other value the table holds (rho(a), [a, b], (rho,rho*) sigma,
    # Delta_v sigma and the dull bracket)
    operators = _operator_values(monkeypatch)
    table = Counter()
    real = laops.LieAlgebroidData._once

    def once(self, key, compute, *args):
        def counted(*inner):
            table[key[0], tuple(map(_value, args))] += 1
            return compute(*inner)
        return real(self, key, counted, *args)

    monkeypatch.setattr(laops.LieAlgebroidData, "_once", once)
    results = _results_for_spec(parse_spec(catalog_text("im2form-zero")), None, 7)
    assert len(results) == 12 and all(r["as_expected"] for r in results)
    assert {name for name, _ in operators} == set(OPERATORS)
    assert max(operators.values()) == 1
    assert {kind for kind, _ in table} == {"rho", "bracket", "image", "dorfman", "dull", "omega",
                                          "lie_sigma", "lie_v", "dlike", "basic_v",
                                          "basic_sigma"}
    assert max(table.values()) == 1


def test_a_new_parse_computes_its_own_table(monkeypatch):
    # the table lives on the algebroid data of one parsed spec, so a second
    # parse of the same text computes every value again
    operators = _operator_values(monkeypatch)
    totals = []
    for _ in range(2):
        spec = parse_spec(catalog_text("im2form-zero"))
        before = sum(operators.values())
        assert all(r.passed for r in run_check(spec, "section4", ["A", "Delta"], 7))
        totals.append(sum(operators.values()) - before)
    assert totals[0] and totals[0] == totals[1]


@pytest.mark.parametrize("entry,name,args,calls", [
    # C = TM + T*M on R^2: a battery of n = 4 * 5 sections over r = 4 frame
    # sections; the table values [s_p, e_j] of the frame columns, which the
    # metric identity reads, and [e_i, s_q] of the frame rows, which
    # right-Leibniz reads, 2 r n - r^2 of them (the r^2 frame pairs lie in
    # both), from which the symmetrized and anchor identities derive the
    # cases with a battery function in each slot; and r^3 nested and outer
    # Jacobi terms (the scaled third slots are derived from them)
    ("bott-foliation", "courant-axioms", ["C"], (2 * 4 * 20 - 4 ** 2) + 2 * 4 ** 3),
    # A of rank 2 on R^2: the r^2 frame values that antisymmetry and Jacobi
    # read, r^3 nested and outer Jacobi terms for r = 2, plus six random
    # Jacobiators of six brackets each, less the five inner brackets
    # [r_k, r_k+1] that two consecutive windows share
    ("im2form-zero", "lie", ["A"], 2 ** 2 + 2 * 2 ** 3 + 6 * 6 - 5),
    # Q and B of rank r = 3 on R^2: the r^2 table entries Delta_{q_j} t_k and
    # [[q_i, q_j]], the r^3 nested terms and r^3 bracket terms of the frame
    # curvatures, from which curvature-tensorial derives its scaled cases,
    # then the r^3 nested and r^3 outer terms of the frame Jacobiators, whose
    # r^2 frame brackets are read already
    ("line-bundle-r2", "curvature", ["Delta"], 2 * 3 ** 2 + 2 * 3 ** 3 + 2 * 3 ** 3),
], ids=["courant-axioms", "lie", "curvature"])
def test_bracket_axiom_lines_evaluate_each_bracket_once(monkeypatch, entry, name, args, calls):
    spec = parse_spec(catalog_text(entry))
    counted = []
    real = bundle.leibniz

    def counting(*leibniz_args, **kwargs):
        counted.append(1)
        return real(*leibniz_args, **kwargs)

    for module in (algebroid, courant, dorfman):
        monkeypatch.setattr(module, "leibniz", counting)
    reports = run_check(spec, name, args, 7)
    assert reports and all(report.status == "pass" for report in reports)
    assert len(counted) == calls  # 272, 51 and 126


def _anchor_applications(monkeypatch, name, args):
    """Runs one im2form-zero line and counts how often the anchor of A is
    applied to each section value (by its coefficients)."""
    spec = parse_spec(catalog_text("im2form-zero"))
    anchor = spec.lookup("bracket", "A").anchor
    applied = Counter()
    real = HomSection.apply

    def counting(self, section):
        if self is anchor:
            applied[section.coeffs] += 1
        return real(self, section)

    monkeypatch.setattr(HomSection, "apply", counting)
    [report] = run_check(spec, name, args, 7)
    assert report.status == "pass"
    return applied


def test_identity_lemmas_apply_the_anchor_once_per_section(monkeypatch):
    applied = _anchor_applications(monkeypatch, "identity-lemmas", ["A", "Delta", "U", "K"])
    assert applied and max(applied.values()) == 1


@pytest.mark.parametrize("name,args", [("la-dirac", ["A", "Delta", "U", "K"]),
                                       ("ta-generators", ["A", "Delta"])],
                         ids=["la-dirac", "ta-generators"])
def test_anchor_is_applied_once_per_section(monkeypatch, name, args):
    # the anchor of each A frame element is read off the bracket's frame
    # table or from the table of the algebroid data
    applied = _anchor_applications(monkeypatch, name, args)
    assert applied and max(applied.values()) == 1


@pytest.mark.parametrize("name", ["identity-lemmas", "ruth-compat"])
def test_basic_connection_lines_evaluate_each_bracket_once(monkeypatch, name):
    # L_a v reads the brackets [a, e_k] from the table of the algebroid data,
    # which also serves every other bracket of these lines; the data is built
    # first, so the count leaves out the brackets of its own check_lie
    spec = parse_spec(catalog_text("im2form-zero"))
    checks._lad(spec, 7, spec.lookup("bracket", "A"))
    counts = _count_pairs(monkeypatch, algebroid.AnchoredBracket, "bracket")
    [report] = run_check(spec, name, ["A", "Delta", "U", "K"], 7)
    assert report.status == "pass"
    assert counts and max(counts.values()) == 1  # 137 and 55 brackets


# the kernels that subtract a difference which is often zero on both sides;
# the total-space checks of prolong (verify_splitting_theorems,
# canonical_form_check, ta_generator_check) are not among them: they
# subtract with `-`, which hands back the left operand of a zero subtrahend.
# The axiom-(c) solve of from_dull and the dual bracket is _axiom_c_table,
# the Jacobiators that curvature_vs_jacobiator pairs are frame_jacobiators,
# and L_a xi of lie_der_v is `leibniz` through a Dorfman connection
DIFFERENCE_KERNELS = {"vf_bracket_comps", "courant_dorfman_form_part", "leibniz",
                      "record_metric", "check_basic_identities",
                      "check_identity_lemmas", "DorfmanConnection.curvature_vs_jacobiator",
                      "frame_jacobiators", "_axiom_c_table", "roundtrip_check",
                      "build_manin_pair", "two_form_of_oneform", "im2form_standard_iso"}


def test_kernels_form_no_difference_of_two_zeros(monkeypatch, capsys):
    # each kernel leaves out a zero subtrahend, so verify-all --seed 7 calls
    # ScalarPoly.__sub__ on two zero operands from none of them, and any
    # other such call returns its left operand without building a zero
    calls, callers = [], Counter()
    real = ScalarPoly.__sub__

    def counting(self, other):
        calls.append(1)
        result = real(self, other)
        if isinstance(other, ScalarPoly) and self.is_zero() and other.is_zero():
            callers[sys._getframe(1).f_code.co_qualname.split(".<locals>")[0]] += 1
            assert result is self
        return result

    monkeypatch.setattr(ScalarPoly, "__sub__", counting)
    assert main(["verify-all", "--seed", "7"]) == 0
    capsys.readouterr()
    assert calls and not DIFFERENCE_KERNELS & callers.keys(), callers


def test_verify_all_renders_each_battery_function_once_per_patch(monkeypatch, capsys):
    # the texts of the battery functions are rendered when a patch builds its
    # battery, never by a check: every object that verify-all renders is kept
    # alive, so ids name objects, and each battery function is rendered once
    patches, renders, kept = [], Counter(), []
    real_init, real_str = Patch.__post_init__, ScalarPoly.__str__

    def keeping(self):
        patches.append(self)
        real_init(self)

    def counting(self):
        kept.append(self)
        renders[id(self)] += 1
        return real_str(self)

    monkeypatch.setattr(Patch, "__post_init__", keeping)
    monkeypatch.setattr(ScalarPoly, "__str__", counting)
    assert main(["verify-all", "--seed", "7"]) == 0
    capsys.readouterr()
    batteries = [vars(base)["battery"] for base in patches if "battery" in vars(base)]
    assert batteries
    assert [renders[id(phi)] for battery in batteries for phi, _ in battery] == \
        [1] * sum(map(len, batteries))


def test_verify_all_reads_frame_products_from_the_bundle_battery(monkeypatch, capsys):
    # a frame section times a battery function is an entry of Bundle.battery,
    # built once per bundle: no check outside bundle.py rebuilds one with scale
    rebuilt = Counter()
    real = bundle.Section.scale

    def counting(self, factor):
        frames = vars(self.bundle).get("_frame_sections", ())
        functions = vars(self.bundle.patch).get("battery", ())
        caller = sys._getframe(1).f_code
        module = Path(caller.co_filename).name
        if (module != "bundle.py" and any(self is sec for sec in frames)
                and any(factor is phi for phi, _ in functions)):
            rebuilt[f"{module}: {caller.co_name}"] += 1
        return real(self, factor)

    monkeypatch.setattr(bundle.Section, "scale", counting)
    assert main(["verify-all", "--seed", "7"]) == 0
    capsys.readouterr()
    assert rebuilt == Counter()


def test_frame_curvatures_are_built_once_per_spec(monkeypatch):
    # R(q_i, q_j) is the only endomorphism of B assembled by these two lines
    spec = parse_spec(CURVED)
    delta = spec.lookup("dorfman", "Delta")
    built = []
    real = HomSection.from_columns

    def counting(source, target, columns):
        if source == target == delta.b:
            built.append(columns)
        return real(source, target, columns)

    monkeypatch.setattr(HomSection, "from_columns", staticmethod(counting))
    results = _results_for_spec(spec, None, 7)
    assert [result["as_expected"] for result in results] == [True, True]
    assert len(built) == delta.q.rank ** 2


def test_python_m_runs_the_command_line():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "courant_lab", "catalog"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == catalog_names()


def test_one_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = tmp_path / "spec.clab"
    path.write_text(NOT_LIE)
    calls = [["run", "--check", "lie", "--format", "json", str(path)], ["run", str(path)]]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    alone = [subprocess.run([sys.executable, "-m", "courant_lab", *argv],
                            capture_output=True, text=True, env=env) for argv in calls]
    for argv, result in zip(calls, alone):
        assert main(argv) == result.returncode, result.stderr
        assert capsys.readouterr().out == result.stdout
    assert json.loads(alone[0].stdout)["results"][0]["check"] == "lie"
    assert len(json.loads(alone[0].stdout)["results"]) == 1
    assert main([]) == 2
    assert capsys.readouterr().out.startswith("usage: courant-lab")
