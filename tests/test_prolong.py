import pytest

from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import Bundle, HomSection, SubBundle, patch
from courant_lab.dirac import VBTriple, dirac_verdicts, check_dirac
from courant_lab.dorfman import (Connection, DorfmanConnection,
                                 canonical_predual, im2form_dorfman,
                                 pr_tm_hom, standard_dorfman)
from courant_lab.laops import LieAlgebroidData
from courant_lab.prolong import (GeneratorAlgebra, canonical_form_check,
                                 check_geometric_dirac, lift_core, lift_linear,
                                 linear_poisson_check, ta_generator_check,
                                 total_courant, total_pairing, total_patch_of,
                                 verify_splitting_theorems)

BASE = patch("x1", "x2")
PT = patch()


@pytest.fixture(scope="module")
def ex_a():
    e = Bundle.vector(BASE, "E", ("eps",))
    conn = Connection(e, [[e.zero_section()], [e.section(eps="x1")]])
    return standard_dorfman(conn)


def test_lift_examples(ex_a):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    l1 = lift_linear(tp, ex_a, ex_a.q.section(Dx1=1))
    assert [str(c) for c in l1.vf] == ["1", "0", "0"]
    assert all(c.is_zero() for c in l1.form)
    l2 = lift_linear(tp, ex_a, ex_a.q.section(Dx2=1))
    assert str(l2.vf[1]) == "1" and str(l2.vf[2]) == "-x1*y1"
    core = lift_core(tp, ex_a.b.section(eps=1))
    assert str(core.vf[2]) == "1" and all(c.is_zero() for c in core.form)


def test_total_bracket_example(ex_a):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    l1 = lift_linear(tp, ex_a, ex_a.q.section(Dx1=1))
    l2 = lift_linear(tp, ex_a, ex_a.q.section(Dx2=1))
    out = total_courant(l1, l2)
    assert str(out.vf[2]) == "-y1"
    assert all(c.is_zero() for c in out.form)


def test_total_pairing_identities(ex_a):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    v = ex_a.q.section(Dx2="x2", epss=1)
    s = ex_a.b.section(eps="x1", dx1=1)
    lifted, core = lift_linear(tp, ex_a, v), lift_core(tp, ex_a.b.section(eps="x1", dx1=1))
    assert total_pairing(lifted, core) == tp.embed(ex_a.predual.pair(v, s))
    assert total_pairing(core, core).is_zero()


def test_splitting_theorems(ex_a):
    assert verify_splitting_theorems(ex_a).passed


def test_splitting_theorems_break_under_wrong_symbols(ex_a):
    symbols = [list(row) for row in ex_a.symbols]
    symbols[0][0] = symbols[0][0] + ex_a.b.section(eps="x2")
    broken = DorfmanConnection(ex_a.predual, ex_a.bracket, symbols)
    report = verify_splitting_theorems(broken)
    assert not report.passed


def test_geometric_dirac_agreement():
    e = Bundle.vector(BASE, "E", ("c1", "c2"))
    sigma = HomSection(e, Bundle.cotangent(BASE),
                       [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    delta = im2form_dorfman(sigma, Connection.flat(e))
    u = SubBundle("U", [delta.q.section(Dx1=1) - delta.q.section(c1s=1),
                        delta.q.section(Dx2=1) - delta.q.section(c2s=1)])
    k = SubBundle("K", [delta.b.section(c1=1, dx1=1), delta.b.section(c2=1, dx2=1)])
    triple = VBTriple(delta, u, k)
    report = check_geometric_dirac(triple)
    assert report.passed


def test_geometric_dirac_fail_matches_algebraic(ex_a):
    triple = VBTriple(ex_a, SubBundle("U", ex_a.q.frame_sections()),
                      SubBundle("K", [], ex_a.b))
    geo = check_geometric_dirac(triple)
    assert not geo.passed
    # both verdicts agree (and the matching sub-check passes)
    assert any("matches-algebraic: pass" in line for line in geo.details)
    assert any(w.identity == "closure" for w in geo.witnesses)
    assert not dirac_verdicts(check_dirac(triple))["dirac"]


def test_linear_poisson_tangent_line():
    a = Bundle.vector(patch("x"), "a", ("a1",))
    anchor = HomSection(a, Bundle.tangent(patch("x")), [[patch("x").one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    assert linear_poisson_check(lad).passed


def test_linear_poisson_lie_algebra():
    g = Bundle.vector(PT, "g", ("e1", "e2"))
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(
        g, HomSection.zero(g, Bundle.tangent(PT)),
        {(0, 1): g.section(e2=1)}, antisymmetrize=True))
    assert linear_poisson_check(lad).passed


def test_canonical_form_identity_sigma():
    e = Bundle.vector(BASE, "E", ("c1", "c2"))
    sigma = HomSection(e, Bundle.cotangent(BASE),
                       [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    assert canonical_form_check(sigma, Connection.flat(e)).passed


def test_canonical_form_zero_and_generic():
    e = Bundle.vector(BASE, "L", ("eps",))
    zero_sigma = HomSection.zero(e, Bundle.cotangent(BASE))
    assert canonical_form_check(zero_sigma, Connection.flat(e)).passed
    sigma = HomSection(e, Bundle.cotangent(BASE),
                       [[BASE.poly("x2")], [BASE.poly("x1*x1")]])
    conn = Connection(e, [[e.zero_section()], [e.section(eps="x1")]])
    assert canonical_form_check(sigma, conn).passed


def _zero_dorfman(a_bundle):
    predual = canonical_predual(a_bundle)
    symbols = [[predual.b.zero_section() for _ in range(predual.b.rank)]
               for _ in range(predual.q.rank)]
    helper = DorfmanConnection(
        predual, AnchoredBracket.from_pairs(predual.q, pr_tm_hom(predual.q)), symbols)
    return DorfmanConnection(predual, helper.dual_bracket(), symbols)


def test_ta_generators_point_algebra():
    g = Bundle.vector(PT, "g", ("e1", "e2"))
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(
        g, HomSection.zero(g, Bundle.tangent(PT)),
        {(0, 1): g.section(e2=1)}, antisymmetrize=True))
    delta = _zero_dorfman(g)
    assert ta_generator_check(lad, delta).passed
    alg = GeneratorAlgebra(lad, delta)
    # [Sigma_e1, Sigma_e2] = Sigma_{[e1,e2]} = Sigma_e2 since R^bas = 0
    out = alg.bracket(alg.sigma_gen(g.section(e1=1)), alg.sigma_gen(g.section(e2=1)))
    assert alg.is_zero(alg.sub(out, alg.sigma_gen(g.section(e2=1))))
    # [sigma!, tau!] = 0 always
    for m1 in range(lad.sigma_bundle.rank):
        for m2 in range(lad.sigma_bundle.rank):
            value = alg.bracket({(alg.CORE, m1): alg.tp.one()},
                                {(alg.CORE, m2): alg.tp.one()})
            assert alg.is_zero(value)


def test_ta_generators_tangent_plane():
    a = Bundle.vector(BASE, "t", ("t1", "t2"))
    anchor = HomSection(a, Bundle.tangent(BASE),
                        [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    delta = standard_dorfman(Connection.flat(a))
    assert ta_generator_check(lad, delta).passed
    alg = GeneratorAlgebra(lad, delta)
    out = alg.bracket(alg.sigma_gen(a.section(t1=1)),
                      alg.dagger_of(lad.to_sigma(a=a.section(t2=1))))
    assert alg.is_zero(out)  # (nabla^bas_{t1}(t2, 0))! = ([t1, t2], 0)! = 0


def test_tilde_expansion_consistent_with_anchor():
    # Theta(tilde(phi a)) must equal the hat of L_{phi a}, which is encoded
    # by the anchor table; probed through the anchor morphism on products
    a = Bundle.vector(BASE, "t", ("t1", "t2"))
    anchor = HomSection(a, Bundle.tangent(BASE),
                        [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    delta = standard_dorfman(Connection.flat(a))
    alg = GeneratorAlgebra(lad, delta)
    phi_a = a.section(t1="x2")
    elem = alg.tilde_of(phi_a)
    vf = alg.theta(elem)
    # on pullback functions: pi*(rho(phi a) psi)
    psi = alg.tp.embed(BASE.poly("x1*x1"))
    from courant_lab.bundle import vf_apply

    assert vf_apply(alg.tp.allvars, vf, psi) == alg.tp.embed(BASE.poly("2*x2*x1"))
    # on the linear function of tau = (t2, 0): l_{L_{phi a} tau}
    tau = lad.to_sigma(a=a.section(t2=1))
    from courant_lab.laops import lie_der_sigma

    lied = lie_der_sigma(lad, phi_a, tau)
    ell = alg.tp.zero()
    for j, v in enumerate(lad.v_bundle.frame_sections()):
        ell = ell + alg.tp.fiber(j) * alg.tp.embed(delta.predual.pair(v, tau))
    expected = alg.tp.zero()
    for j, v in enumerate(lad.v_bundle.frame_sections()):
        expected = expected + alg.tp.fiber(j) * alg.tp.embed(delta.predual.pair(v, lied))
    assert vf_apply(alg.tp.allvars, vf, ell) == expected
