"""Acceptance suite: one test per criterion, exact equality throughout.

Every criterion prints a single pass/fail line (run pytest with -s to see
them) together with the measured wall time; the stated per-criterion
budgets are expectations, not asserted bounds.
"""

import json
import subprocess
import sys
import time

from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import (Bundle, HomSection, Section, SubBundle,
                                 patch, vf_bracket)
from courant_lab.catalog import catalog_text
from courant_lab.checks import run_check
from courant_lab.courant import (build_manin_pair, check_c_iso,
                                 im2form_standard_iso, roundtrip_check)
from courant_lab.dirac import VBTriple, check_dirac, dirac_verdicts
from courant_lab.dorfman import (Connection, DorfmanConnection,
                                 canonical_predual, im2form_dorfman,
                                 pr_tm_hom, standard_dorfman)
from courant_lab.laops import (LieAlgebroidData, check_basic_curvature,
                               check_basic_identities, check_identity_lemmas,
                               check_la_dirac, check_ruth_compat)
from courant_lab.prolong import (canonical_form_check, check_geometric_dirac,
                                 lift_linear, linear_poisson_check,
                                 ta_generator_check, total_courant,
                                 total_patch_of, vertical_hom,
                                 verify_splitting_theorems, _closure_residual)
from courant_lab.specfile import parse_spec
from builders import canonical_pairing, curvature, flat_connection

BASE = patch("x1", "x2")
PT = patch()


def _connection_curvature(conn, x, y, e):
    """R(X, Y) e = nabla_X nabla_Y e - nabla_Y nabla_X e - nabla_[X,Y] e."""
    return (conn.nabla(x, conn.nabla(y, e)) - conn.nabla(y, conn.nabla(x, e))
            - conn.nabla(vf_bracket(x, y), e))


def _verdict(label, ok, started):
    elapsed = time.time() - started
    print(f"{'PASS' if ok else 'FAIL'}  {label}  ({elapsed:.2f}s)")
    assert ok, label


def _ex_a():
    e = Bundle.vector(BASE, "E", ("eps",))
    conn = Connection(e, [[e.zero_section()], [e.section(eps="x1")]])
    return conn, standard_dorfman(conn)


def _ex_b():
    a = Bundle.vector(PT, "A", ("e1", "e2"))
    bracket = AnchoredBracket.from_pairs(a, HomSection.zero(a, Bundle.tangent(PT)),
                                         {(0, 1): a.section(e2=1)}, antisymmetrize=True)
    lad = LieAlgebroidData(bracket)
    predual = canonical_predual(a)
    symbols = [[predual.b.zero_section() for _ in range(predual.b.rank)]
               for _ in range(predual.q.rank)]
    helper = DorfmanConnection(
        predual, AnchoredBracket.from_pairs(predual.q, pr_tm_hom(predual.q)), symbols)
    delta = DorfmanConnection(predual, helper.dual_bracket(), symbols)
    triple = VBTriple(delta, SubBundle("U", lad.v_bundle.frame_sections()),
                      SubBundle("K", [], lad.sigma_bundle))
    return lad, delta, triple


def _ex_e():
    a = Bundle.vector(BASE, "a", ("a1", "a2"))
    anchor = HomSection(a, Bundle.tangent(BASE),
                        [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    delta = standard_dorfman(flat_connection(a))
    triple = VBTriple(delta, SubBundle("U", [delta.q.section(Dx1=1),
                                             delta.q.section(Dx2=1)]),
                      SubBundle("K", [delta.b.section(a1=1), delta.b.section(a2=1)]))
    return lad, delta, triple


def test_criterion_01_standard_dorfman_curvature():
    started = time.time()
    conn, delta = _ex_a()
    tm = Bundle.tangent(BASE)

    hom = curvature(delta, delta.q.section(Dx1=1), delta.q.section(Dx2=1))
    ok = hom.apply(delta.b.section(eps=1)) == delta.b.section(eps=1)

    def closed_form(v1, v2, s):
        x, xi = v1.component(tm), v1.component(conn.bundle.dual())
        y, eta = v2.component(tm), v2.component(conn.bundle.dual())
        e = s.component(conn.bundle)
        e_out = _connection_curvature(conn, x, y, e)

        def rstar(a, b, f):
            return (conn.nabla_dual(a, conn.nabla_dual(b, f))
                    - conn.nabla_dual(b, conn.nabla_dual(a, f))
                    - conn.nabla_dual(vf_bracket(a, b), f))

        comps = []
        for l in range(BASE.dim):
            z = tm.frame_section(l)
            comps.append(canonical_pairing(rstar(x, z, eta) - rstar(y, z, xi), e))
        return delta.b.join(e_out, Section(Bundle.cotangent(BASE), comps))

    for v1 in delta.q.frame_sections():
        for v2 in delta.q.frame_sections():
            value = curvature(delta, v1, v2)
            for s in delta.b.frame_sections():
                ok = ok and value.apply(s) == closed_form(v1, v2, s)
    _verdict("criterion 1: curvature of the standard connection, definition "
             "vs closed form", ok, started)


def test_criterion_02_curvature_pairs_as_jacobiator():
    started = time.time()
    _, delta = _ex_a()
    report = delta.curvature_vs_jacobiator()
    _verdict("criterion 2: <R(q1,q2)b, q3> equals the Jacobiator pairing",
             report.passed, started)


def test_criterion_03_splitting_theorems():
    started = time.time()
    _, delta = _ex_a()
    report = verify_splitting_theorems(delta)
    # the nontrivial value [d1~, d2~] = -y d/dy
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    l1 = lift_linear(tp, delta, delta.q.section(Dx1=1))
    l2 = lift_linear(tp, delta, delta.q.section(Dx2=1))
    out = total_courant(l1, l2)
    value_ok = (str(out.vf.coeffs[2]) == "-y1" and out.form.is_zero()
                and out.vf.coeffs[0].is_zero() and out.vf.coeffs[1].is_zero())
    _verdict("criterion 3: six pairing/bracket identities on the total space",
             report.passed and value_ok, started)


def test_criterion_04_dirac_triples():
    started = time.time()
    # EX-C
    e = Bundle.vector(BASE, "E", ("c1", "c2"))
    sigma = HomSection(e, Bundle.cotangent(BASE),
                       [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    delta_c = im2form_dorfman(sigma, flat_connection(e))
    triple_c = VBTriple(
        delta_c,
        SubBundle("U", [delta_c.q.section(Dx1=1) - delta_c.q.section(c1s=1),
                        delta_c.q.section(Dx2=1) - delta_c.q.section(c2s=1)]),
        SubBundle("K", [delta_c.b.section(c1=1, dx1=1),
                        delta_c.b.section(c2=1, dx2=1)]))
    ok = check_dirac(triple_c).passed and check_geometric_dirac(triple_c).passed
    # EX-D
    f = Bundle.vector(BASE, "F", ("eps",))
    delta_d = standard_dorfman(flat_connection(f))
    triple_d = VBTriple(delta_d,
                        SubBundle("U", [delta_d.q.section(Dx1=1),
                                        delta_d.q.section(epss=1)]),
                        SubBundle("K", [delta_d.b.section(dx2=1)]))
    ok = ok and check_dirac(triple_d).passed and check_geometric_dirac(triple_d).passed
    # EX-A full/zero triple fails both, with the curvature as the witness
    _, delta_a = _ex_a()
    triple_a = VBTriple(delta_a, SubBundle("U", delta_a.q.frame_sections()),
                        SubBundle("K", [], delta_a.b))
    algebraic = check_dirac(triple_a)
    geometric = check_geometric_dirac(triple_a)
    ok = ok and not algebraic.passed and not geometric.passed
    ok = ok and not dirac_verdicts(algebraic)["dirac"]
    # geometric closure residual of [d1~, d2~] is exactly the lifted curvature
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    u_lifts = [lift_linear(tp, delta_a, u) for u in triple_a.u_sub.sections]
    l1 = lift_linear(tp, delta_a, delta_a.q.section(Dx1=1))
    l2 = lift_linear(tp, delta_a, delta_a.q.section(Dx2=1))
    residual = _closure_residual(tp, triple_a, u_lifts, total_courant(l1, l2))
    hom = curvature(delta_a, delta_a.q.section(Dx1=1), delta_a.q.section(Dx2=1))
    e_cols = [hom.apply(delta_a.b.frame_section(0))]
    lifted_curv = vertical_hom(tp, delta_a, HomSection.from_columns(
        Bundle.vector(BASE, "E", ("eps",)), delta_a.b, e_cols))
    ok = ok and (residual.vf + lifted_curv.vf).is_zero() and \
        (residual.form + lifted_curv.form).is_zero()
    _verdict("criterion 4: Dirac verdicts agree algebraically and geometrically",
             ok, started)


def test_criterion_05_la_dirac_and_manin_pair():
    started = time.time()
    ok = True
    for maker in (_ex_b, _ex_e):
        lad, delta, triple = maker()
        ok = ok and check_la_dirac(lad, triple).passed
        mp, build_report = build_manin_pair(lad, triple)
        ok = ok and build_report.passed
        ok = ok and all("condition-c: pass" in line or not
                        line.startswith("condition-c") for line in build_report.details)
        ok = ok and mp.courant.check_axioms().passed
        ok = ok and check_c_iso(mp).passed
        ok = ok and roundtrip_check(lad, triple).passed
    lad_e, _, triple_e = _ex_e()
    mp_e, _ = build_manin_pair(lad_e, triple_e)
    sigma0 = HomSection.zero(lad_e.a_bundle, Bundle.cotangent(BASE))
    ok = ok and im2form_standard_iso(mp_e, sigma0).passed
    _verdict("criterion 5: LA-Dirac triples, their Courant algebroids and the "
             "roundtrip", ok, started)


def test_criterion_06_identity_suite():
    started = time.time()
    ok = True
    for maker in (_ex_b, _ex_e):
        lad, delta, triple = maker()
        ok = ok and check_basic_identities(lad, delta).passed
        ok = ok and check_basic_curvature(lad, delta).passed
        ok = ok and check_identity_lemmas(lad, delta, triple).passed
        ok = ok and check_ruth_compat(lad, delta, triple).passed
    _verdict("criterion 6: the full basic-connection identity suite", ok, started)


def test_criterion_07_appendix_checks():
    started = time.time()
    line = patch("x")
    a = Bundle.vector(line, "a", ("a1",))
    anchor = HomSection(a, Bundle.tangent(line), [[line.one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    ok = linear_poisson_check(lad).passed

    e = Bundle.vector(BASE, "E", ("c1", "c2"))
    sigma = HomSection(e, Bundle.cotangent(BASE),
                       [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    ok = ok and canonical_form_check(sigma, flat_connection(e)).passed

    # spot values: omega(d1~, c2^) = 0 and omega(d1~, c1^) = -1
    from courant_lab.bundle import two_form_of_oneform
    from courant_lab.poly import ScalarPoly

    tp = total_patch_of(e)
    theta = [tp.fiber(0), tp.fiber(1), tp.zero(), tp.zero()]
    w = two_form_of_oneform(tp.allvars, theta)
    ok = ok and w[0][3].is_zero() and w[0][2] == ScalarPoly.const(tp.allvars, -1)
    _verdict("criterion 7: dual-bundle sharp map and pullback canonical forms",
             ok, started)


def test_criterion_08_generator_calculus():
    started = time.time()
    lad_b, delta_b, _ = _ex_b()
    ok = ta_generator_check(lad_b, delta_b).passed
    t = Bundle.vector(BASE, "t", ("t1", "t2"))
    anchor = HomSection(t, Bundle.tangent(BASE),
                        [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    lad_t = LieAlgebroidData(AnchoredBracket.from_pairs(t, anchor))
    ok = ok and ta_generator_check(lad_t, standard_dorfman(flat_connection(t))).passed
    _verdict("criterion 8: generator table consistency and the five bracket "
             "identities", ok, started)


def test_criterion_09_negative_controls():
    started = time.time()
    ok = True
    expectations = {
        "broken-dorfman": ("dorfman-axioms", {"fail"}),
        "broken-bott": ("bott-dorfman", {"error", "fail"}),
        "broken-manin": ("recover-perturbed", {"error", "fail"}),
    }
    for entry, (check_name, statuses) in expectations.items():
        spec = parse_spec(catalog_text(entry))
        for name, args, expect_fail in spec.checks:
            if name != check_name:
                continue
            ok = ok and expect_fail
            reports = run_check(spec, name, args, 7)
            for report in reports:
                ok = ok and report.status in statuses
                ok = ok and bool(report.witnesses)
                ok = ok and all(w.difference not in ("", "0") for w in report.witnesses)
    _verdict("criterion 9: perturbed fixtures fail with symbolic witnesses, "
             "never crash", ok, started)


def test_criterion_10_determinism():
    started = time.time()
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "courant_lab.cli", "verify-all",
             "--format", "json"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    document = json.loads(outputs[0])
    ok = ok and document["summary"]["ok"] is True
    _verdict("criterion 10: verify-all output is byte-identical across runs",
             ok, started)
