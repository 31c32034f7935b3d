from collections import Counter

import pytest

from courant_lab import laops
from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import (Bundle, BundleError, HomSection, Section, SubBundle, dual_pair,
                                patch, vf_apply, vf_bracket)
from courant_lab.catalog import catalog_text
from courant_lab.dirac import VBTriple
from courant_lab.dorfman import (Connection, DorfmanConnection,
                                 canonical_predual, pr_tm_hom, standard_dorfman)
from courant_lab.laops import (LieAlgebroidData, basic_curvature,
                               check_basic_curvature,
                               check_basic_identities, check_dlike,
                               check_identity_lemmas, check_la_dirac,
                               check_omega_properties, check_ruth_compat,
                               dorfman_like_bracket, k_algebroid, lie_der_v,
                               omega)
from courant_lab.specfile import parse_spec
from builders import flat_connection

PT = patch()
BASE = patch("x1", "x2")


def zero_dorfman(a_bundle):
    predual = canonical_predual(a_bundle)
    symbols = [[predual.b.zero_section() for _ in range(predual.b.rank)]
               for _ in range(predual.q.rank)]
    return DorfmanConnection.with_dual_bracket(predual, pr_tm_hom(predual.q), symbols)


@pytest.fixture(scope="module")
def ex_b():
    a = Bundle.vector(PT, "A", ("e1", "e2"))
    bracket = AnchoredBracket.from_pairs(a, HomSection.zero(a, Bundle.tangent(PT)),
                                         {(0, 1): a.section(e2=1)}, antisymmetrize=True)
    lad = LieAlgebroidData(bracket)
    delta = zero_dorfman(a)
    u = SubBundle("U", lad.v_bundle.frame_sections())
    k = SubBundle("K", [], lad.sigma_bundle)
    return lad, delta, VBTriple(delta, u, k)


@pytest.fixture(scope="module")
def ex_e():
    a = Bundle.vector(BASE, "a", ("a1", "a2"))
    anchor = HomSection(a, Bundle.tangent(BASE),
                        [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    delta = standard_dorfman(flat_connection(a))
    u = SubBundle("U", [delta.q.section(Dx1=1), delta.q.section(Dx2=1)])
    k = SubBundle("K", [delta.b.section(a1=1), delta.b.section(a2=1)])
    return lad, delta, VBTriple(delta, u, k)


def test_omega_vanishes_over_point(ex_b):
    lad, delta, _ = ex_b
    for v in lad.v_bundle.frame_sections():
        for a in lad.a_bundle.frame_sections():
            assert omega(lad, delta, v, a).is_zero()


def test_omega_flat_tangent(ex_e):
    lad, delta, _ = ex_e
    v = lad.v_bundle.join(Bundle.tangent(BASE).section(Dx1=1))
    assert omega(lad, delta, v, lad.a_bundle.section(a2=1)).is_zero()


def test_omega_with_dual_slot_only(ex_e):
    # Omega_{(0,xi)} a = (0, <nabla*_. xi, a> - d<xi, a>)
    lad, delta, _ = ex_e
    xi = lad.a_bundle.dual().section(a1s="x1")
    value = omega(lad, delta, lad.v_bundle.join(xi), lad.a_bundle.section(a1=1))
    assert value.is_zero()  # flat case: the two terms coincide
    curved = standard_dorfman(Connection(
        lad.a_bundle, [[lad.a_bundle.zero_section(), lad.a_bundle.zero_section()],
                       [lad.a_bundle.section(a1="x1"), lad.a_bundle.zero_section()]]))
    xi1 = lad.a_bundle.dual().section(a1s=1)
    value = omega(lad, curved, lad.v_bundle.join(xi1), lad.a_bundle.section(a1=1))
    # <nabla*_X a1s, a1> = -x1 dx2(X); <xi, a1> constant kills the d term
    assert value == -lad.sigma_bundle.join(Bundle.cotangent(BASE).section(dx2="x1"))


def test_omega_properties(ex_b, ex_e):
    for lad, delta, _ in (ex_b, ex_e):
        assert check_omega_properties(lad, delta).passed


def test_lie_derivative_examples(ex_b):
    lad, _, _ = ex_b
    a = lad.a_bundle
    # L_{e1} e2* = -e2*
    out = lie_der_v(lad, a.section(e1=1), lad.v_bundle.join(a.dual().section(e2s=1)))
    assert out == -lad.v_bundle.join(a.dual().section(e2s=1))
    # abelian-direction: L_{e2} e1* = <e1*, [e2, .]> = 0... check via formula
    out2 = lie_der_v(lad, a.section(e2=1), lad.v_bundle.join(a.dual().section(e1s=1)))
    assert out2.is_zero()


def test_lie_der_v_matches_its_definition_on_the_catalog_batteries():
    # the oracle is the definition, L_a (X, xi) = ([rho(a), X], L_a xi) with
    # <L_a xi, e_k> = rho(a)(xi_k) - <xi, [a, e_k]>, over every battery pair
    # of the catalog's Lie algebroids; lie_der_v reads L_a xi from a
    # Dorfman connection on (A, A*) instead
    checked = 0
    for entry, name in (("im2form-zero", "A"), ("point-bialgebroid", "A"),
                        ("coadjoint-point", "g")):
        lad = LieAlgebroidData(parse_spec(catalog_text(entry)).lookup("bracket", name))
        a_bundle, base = lad.a_bundle, lad.base
        for a in a_bundle.battery.sections:
            rho_a = lad.bracket.rho(a)
            brackets = [lad.bracket.bracket(a, e_k) for e_k in a_bundle.frame_sections()]
            for v in lad.v_bundle.battery.sections:
                x, xi = v.component(Bundle.tangent(base)), v.component(a_bundle.dual())
                comps = [vf_apply(base, rho_a.nonzero(), xi_k) - dual_pair(xi, brackets[k])
                         for k, xi_k in enumerate(xi.coeffs)]
                expected = lad.v_bundle.join(vf_bracket(rho_a, x), Section(a_bundle.dual(), comps))
                value = lad.lie_der_v(a, v)
                assert value == expected and str(value) == str(expected)
                checked += 1
    assert checked == 10 * 20 + 2 * 2 + 2 * 2


def test_lie_der_v_applies_the_anchor_once(ex_e, hom_apply_calls):
    lad, _, _ = ex_e
    lad = LieAlgebroidData(lad.bracket, lad.lie_report)  # with an empty table
    a = lad.a_bundle.section(a1="x2", a2=1)
    v = lad.v_bundle.section(Dx1="x1", a1s="x1*x2", a2s="x2")
    out = lad.lie_der_v(a, v)
    assert not out.is_zero()
    # equal arguments read the same value from the table
    assert lad.lie_der_v(lad.a_bundle.section(a1="x2", a2=1), v) is out
    assert hom_apply_calls == [a]


def test_dorfman_like_bracket_values(ex_b, ex_e):
    lad, _, _ = ex_b
    a = lad.a_bundle
    value = dorfman_like_bracket(lad, lad.sigma_bundle.join(a.section(e1=1)),
                                 lad.sigma_bundle.join(a.section(e2=1)))
    assert value == lad.sigma_bundle.join(a.section(e2=1))
    lad_e, _, _ = ex_e
    ct = Bundle.cotangent(BASE)
    s1 = lad_e.sigma_bundle.join(lad_e.a_bundle.section(a1=1))
    s2 = lad_e.sigma_bundle.join(lad_e.a_bundle.section(a2=1), ct.section(dx2="x1"))
    assert dorfman_like_bracket(lad_e, s1, s2) == lad_e.sigma_bundle.join(ct.section(dx2=1))


def test_dlike_identities(ex_b, ex_e):
    for lad, delta, _ in (ex_b, ex_e):
        assert check_dlike(lad, delta).passed


def test_basic_connection_values(ex_b, ex_e):
    lad, delta, _ = ex_b
    a = lad.a_bundle
    out = lad.basic_v(delta, a.section(e1=1), lad.v_bundle.join(a.dual().section(e2s=1)))
    assert out == -lad.v_bundle.join(a.dual().section(e2s=1))
    assert lad.basic_v(delta, a.zero_section(),
                       lad.v_bundle.join(a.dual().section(e1s=1))).is_zero()
    lad_e, delta_e, _ = ex_e
    # flat tangent case: nabla^bas reduces to the Lie derivative
    a1 = lad_e.a_bundle.section(a1=1)
    sig = lad_e.sigma_bundle.join(lad_e.a_bundle.section(a2="x1"))
    assert lad_e.basic_sigma(delta_e, a1, sig) == lad_e.lie_der_sigma(a1, sig)


def test_basic_identities(ex_b, ex_e):
    for lad, delta, _ in (ex_b, ex_e):
        assert check_basic_identities(lad, delta).passed


def test_basic_curvature(ex_b, ex_e):
    for lad, delta, _ in (ex_b, ex_e):
        assert check_basic_curvature(lad, delta).passed
    lad, delta, _ = ex_b
    frames = lad.a_bundle.frame_sections()
    for a in frames:
        for b in frames:
            for v in lad.v_bundle.frame_sections():
                assert basic_curvature(lad, delta, a, b, v).is_zero()


def test_la_dirac(ex_b, ex_e):
    for lad, delta, triple in (ex_b, ex_e):
        report = check_la_dirac(lad, triple)
        assert report.passed
        assert any("implied-basic-preserves-U: pass" in line for line in report.details)


def test_la_dirac_negative_condition_4(ex_b):
    lad, delta, _ = ex_b
    # K = span{e1}: L_{e2}(e1,0) = ([e2,e1],0) = (-e2,0) leaves K
    u = SubBundle("U", [lad.v_bundle.section(e2s=1)])
    k = SubBundle("K", [lad.sigma_bundle.section(e1=1)])
    report = check_la_dirac(lad, VBTriple(delta, u, k))
    assert not report.passed
    assert any(w.identity == "4-basic-preserves-K" for w in report.witnesses)


def test_identity_lemmas(ex_b, ex_e):
    for lad, delta, triple in (ex_b, ex_e):
        assert check_identity_lemmas(lad, delta, triple).passed


def test_identity_lemmas_perturbed(ex_e):
    lad, delta, triple = ex_e
    # shifting symbols without updating the dual bracket breaks axiom (c);
    # the unconditional lemma survives, the mixed-pairing identity does not
    symbols = [list(row) for row in delta.symbols]
    symbols[0][0] = symbols[0][0] + delta.b.section(dx1="x2")
    broken = DorfmanConnection(delta.predual, delta.bracket, symbols)
    report = check_identity_lemmas(lad, broken, VBTriple(broken, triple.u_sub,
                                                         triple.k_sub))
    failed = {w.identity for w in report.witnesses}
    assert "basic-vs-dorfman-like" not in failed
    assert "mixed-pairing" in failed


def test_k_algebroid(ex_b, ex_e):
    lad, delta, triple = ex_b
    bracket, report = k_algebroid(lad, triple)
    assert report.passed
    assert bracket.bundle.rank == 0  # K = 0: the zero algebroid
    lad_e, delta_e, triple_e = ex_e
    bracket_e, report_e = k_algebroid(lad_e, triple_e)
    assert report_e.passed
    # K is the tangent algebroid in disguise: structure functions vanish
    assert all(s.is_zero() for row in bracket_e.structure for s in row)
    assert bracket_e.check_lie().passed


def test_k_algebroid_not_applicable(ex_e):
    lad, delta, _ = ex_e
    bad = VBTriple(delta, SubBundle("U", [delta.q.section(Dx1=1)]),
                   SubBundle("K", [], delta.b))
    bracket, report = k_algebroid(lad, bad)
    assert bracket is None
    assert report.status == "not-applicable"


def test_ruth_compat(ex_b, ex_e):
    for lad, delta, triple in (ex_b, ex_e):
        assert check_ruth_compat(lad, delta, triple).passed


def test_ruth_compat_perturbed(ex_e):
    lad, delta, triple = ex_e
    # a shift on a T*M column leaves the duality intact but breaks the
    # L_X structure the mixed identities rely on
    symbols = [list(row) for row in delta.symbols]
    symbols[0][2] = symbols[0][2] + delta.b.section(a1="x1")
    helper = DorfmanConnection(delta.predual, delta.bracket, symbols)
    broken = DorfmanConnection(delta.predual, helper.dual_bracket(), symbols)
    report = check_ruth_compat(lad, broken,
                               VBTriple(broken, triple.u_sub, triple.k_sub))
    assert not report.passed
    assert report.witnesses and all(w.difference != "0" for w in report.witnesses)


def test_lie_algebroid_data_rejects_non_lie():
    a = Bundle.vector(PT, "A", ("e1", "e2"))
    dull = AnchoredBracket.from_pairs(a, HomSection.zero(a, Bundle.tangent(PT)),
                                      {(0, 0): a.section(e2=1)})
    with pytest.raises(BundleError):
        LieAlgebroidData(dull)


def test_lie_algebroid_bundles_are_built_once(ex_b):
    lad = ex_b[0]
    assert lad.v_bundle is lad.v_bundle and lad.sigma_bundle is lad.sigma_bundle
    assert lad.v_bundle == Bundle.tangent(PT) + lad.a_bundle.dual()
    assert lad.sigma_bundle == lad.a_bundle + Bundle.cotangent(PT)


def test_basic_identities_apply_the_anchor_only_in_lie_derivatives(ex_e, hom_apply_calls,
                                                                   monkeypatch):
    # the anchor is applied once per value of a, by the table that hands
    # rho(a) to L_a; the duality defect reads the frame anchors of A instead
    # of applying the anchor per (v, sigma)
    lad, delta, _ = ex_e
    lad = LieAlgebroidData(lad.bracket, lad.lie_report)  # with an empty table
    lie_args = set()
    for name in ("lie_der_v", "lie_der_sigma"):
        real = getattr(laops, name)

        def counting(lad, a, t, real=real):
            lie_args.add(a.coeffs)
            return real(lad, a, t)

        monkeypatch.setattr(laops, name, counting)
    assert check_basic_identities(lad, delta).passed
    applied = Counter(s.coeffs for s in hom_apply_calls if s.bundle == lad.a_bundle)
    assert applied and max(applied.values()) == 1 and set(applied) <= lie_args
