from collections import Counter

import pytest

from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import Bundle, HomSection, SubBundle, patch
from courant_lab.courant import (CourantData, build_manin_pair, check_c_iso,
                                 im2form_standard_iso, recover_triple,
                                 roundtrip_check, standard_courant)
from courant_lab.dirac import VBTriple
from courant_lab.dorfman import (DorfmanConnection, canonical_predual, pr_tm_hom,
                                 standard_dorfman)
from courant_lab.laops import LieAlgebroidData
from builders import flat_connection

BASE = patch("x1", "x2")
PT = patch()


def zero_dorfman(a_bundle):
    predual = canonical_predual(a_bundle)
    symbols = [[predual.b.zero_section() for _ in range(predual.b.rank)]
               for _ in range(predual.q.rank)]
    helper = DorfmanConnection(
        predual, AnchoredBracket.from_pairs(predual.q, pr_tm_hom(predual.q)), symbols)
    return DorfmanConnection(predual, helper.dual_bracket(), symbols)


@pytest.fixture(scope="module")
def ex_b():
    a = Bundle.vector(PT, "A", ("e1", "e2"))
    bracket = AnchoredBracket.from_pairs(a, HomSection.zero(a, Bundle.tangent(PT)),
                                         {(0, 1): a.section(e2=1)}, antisymmetrize=True)
    lad = LieAlgebroidData(bracket)
    delta = zero_dorfman(a)
    triple = VBTriple(delta, SubBundle("U", lad.v_bundle.frame_sections()),
                      SubBundle("K", [], lad.sigma_bundle))
    return lad, triple


@pytest.fixture(scope="module")
def ex_e():
    a = Bundle.vector(BASE, "a", ("a1", "a2"))
    anchor = HomSection(a, Bundle.tangent(BASE),
                        [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    delta = standard_dorfman(flat_connection(a))
    triple = VBTriple(delta, SubBundle("U", [delta.q.section(Dx1=1),
                                             delta.q.section(Dx2=1)]),
                      SubBundle("K", [delta.b.section(a1=1), delta.b.section(a2=1)]))
    return lad, triple


def test_standard_courant_examples():
    c = standard_courant(BASE)
    assert c.bracket(c.bundle.section(Dx1=1), c.bundle.section(Dx2=1)).is_zero()
    assert c.bracket(c.bundle.section(Dx1=1), c.bundle.section(dx2="x1")) == \
        c.bundle.section(dx2=1)
    f = BASE.poly("x1*x2")
    assert c.pair(c.D(f), c.bundle.section(Dx1=1)) == BASE.coord("x2")


def test_standard_courant_axioms():
    assert standard_courant(BASE).check_axioms().passed


def test_rank_zero_courant_over_point():
    c = standard_courant(PT)
    assert c.bundle.rank == 0
    # no frame, so no case to evaluate: not-applicable, never a vacuous pass
    report = c.check_axioms()
    assert (report.status, report.witnesses) == ("not-applicable", [])
    assert report.details[-1] == "no cases evaluated"


def test_courant_symbols_are_immutable():
    c = standard_courant(BASE)
    with pytest.raises(TypeError):
        c.symbols[0][1] = c.bundle.section(dx1=1)
    with pytest.raises(TypeError):
        c.symbols[0] = c.symbols[1]
    shifted = c.shifted(0, 1, c.bundle.section(dx1=1))
    assert shifted.symbols[0][1] == c.bundle.section(dx1=1)
    assert c.symbols[0][1].is_zero()


def test_a_shift_shares_the_predual_and_rebuilds_its_frame_table():
    # the pairing and D are one PreDual, which a shift shares; the frame
    # table, which the original built already, is rebuilt from the moved symbols
    c = standard_courant(BASE)
    e1, e2 = c.bundle.frame_section(0), c.bundle.frame_section(1)
    assert c.bracket(e1, e2).is_zero()
    shifted = c.shifted(0, 1, c.bundle.section(dx1=1))
    assert shifted.predual is c.predual and shifted.d_matrix() is c.d_matrix()
    assert shifted.bracket(e1, e2) == c.bundle.section(dx1=1)
    assert c.bracket(e1, e2).is_zero()


def test_perturbed_bracket_fails_axioms():
    standard = standard_courant(BASE)
    c = standard.shifted(0, 1, standard.bundle.section(dx1=1))
    report = c.check_axioms()
    assert not report.passed
    kinds = {w.identity for w in report.witnesses}
    assert kinds & {"2-metric", "3-symmetrized"}


def test_manin_pair_ex_b(ex_b):
    lad, triple = ex_b
    mp, report = build_manin_pair(lad, triple)
    assert report.passed
    assert mp.courant.check_axioms().passed
    # C = g* + g with [[xi + a, eta + b]] = (L_a eta - L_b xi) + [a, b]
    a = lad.a_bundle
    e2s_cls = mp.normalize(lad.v_bundle.join(a.dual().section(e2s=1)),
                           lad.sigma_bundle.zero_section())
    e1_cls = mp.normalize(lad.v_bundle.zero_section(), lad.sigma_bundle.join(a.section(e1=1)))
    e2_cls = mp.normalize(lad.v_bundle.zero_section(), lad.sigma_bundle.join(a.section(e2=1)))
    assert mp.courant.bracket(e2s_cls, e1_cls) == e2s_cls
    assert mp.courant.bracket(e1_cls, e2_cls) == e2_cls


def test_c_iso_ex_b(ex_b):
    lad, triple = ex_b
    mp, _ = build_manin_pair(lad, triple)
    report = check_c_iso(mp)
    assert report.passed
    assert mp.c_bundle.rank == 4
    # the Gram matrix is the rank-4 hyperbolic pairing
    from courant_lab.linalg import determinant

    gram = [[entry.constant_value() for entry in row] for row in mp.courant.pairing]
    assert determinant(gram) != 0
    assert all(gram[i][i] == 0 for i in range(2))


def test_c_iso_degenerate_pairing_fails(ex_b):
    lad, triple = ex_b
    mp, _ = build_manin_pair(lad, triple)
    zero = lad.base.zero()
    mp.courant.pairing = [[zero for _ in row] for row in mp.courant.pairing]
    report = check_c_iso(mp)
    assert not report.passed


def test_roundtrip(ex_b, ex_e):
    for lad, triple in (ex_b, ex_e):
        assert roundtrip_check(lad, triple).passed


def test_recover_triple_errors_on_broken_core_bracket(ex_b):
    lad, triple = ex_b
    mp, _ = build_manin_pair(lad, triple)
    p = mp.u_sub.rank
    j = mp.c_bundle.rank - 1
    mp.courant = mp.courant.shifted(p, j, mp.c_bundle.frame_section(j))
    recovered, report = recover_triple(mp)
    assert recovered is None
    assert report.status == "error"
    assert any(w.identity == "a-manin-condition-c" for w in report.witnesses)


def test_manin_pair_gate_on_non_la_dirac(ex_e):
    lad, triple = ex_e
    bad = VBTriple(triple.delta, SubBundle("U", [triple.delta.q.section(Dx1=1)]),
                   triple.k_sub)
    mp, report = build_manin_pair(lad, bad)
    assert mp is None and report.status == "error"


def test_standard_iso_ex_e(ex_e):
    lad, triple = ex_e
    mp, _ = build_manin_pair(lad, triple)
    sigma0 = HomSection.zero(lad.a_bundle, Bundle.cotangent(BASE))
    assert im2form_standard_iso(mp, sigma0).passed


def test_courant_data_rejects_asymmetric_pairing():
    from courant_lab.bundle import BundleError

    c = standard_courant(BASE)
    bad = [list(row) for row in c.pairing]
    bad[0][1] = BASE.one() + BASE.one()
    with pytest.raises(BundleError):
        CourantData(c.bundle, c.anchor, bad, c.symbols)


def test_courant_axioms_apply_the_anchor_once_per_section(hom_apply_calls):
    # the metric axiom reads rho(e1) for every inner (e2, e3); it is taken once
    # per battery section e1.  The anchor-morphism axiom applies it once to
    # each bracket of a frame row or column, 2 r n - r^2 of them for r frame
    # sections and n battery sections, and once to D phi for each
    # non-constant battery function phi, from which it derives the rest.
    # Calls are counted by the battery position of their argument, since a
    # zero bracket is one shared section
    courant = standard_courant(BASE)
    hom_apply_calls.clear()  # the frame anchors, taken once as the structure is built
    assert courant.check_axioms().passed
    sections = courant.bundle.battery.sections
    counts = Counter(p for section in hom_apply_calls
                     for p, battery_section in enumerate(sections) if section is battery_section)
    assert sorted(counts) == list(range(len(sections))) and max(counts.values()) == 1
    r, n = courant.bundle.rank, len(sections)
    functions = courant.bundle.battery.functions
    assert len(hom_apply_calls) == n + (2 * r * n - r ** 2) + len(functions) - 1
