from collections import Counter
from pathlib import Path

import pytest

from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import (Bundle, HomSection, Section, SubBundle, dual_pair,
                                patch, vf_apply, vf_bracket)
from courant_lab.catalog import catalog_names, catalog_text
from courant_lab.courant import standard_courant
from courant_lab.dirac import shift_dorfman
from courant_lab.dorfman import (Connection, DorfmanConnection, bott_dorfman,
                                 im2form_dorfman, lie_derivative_dorfman,
                                 pr_tm_hom, standard_dorfman, zero_predual)
from courant_lab.specfile import parse_spec
from builders import curvature, flat_connection, identity_map, skew_symmetrization

BASE = patch("x1", "x2")
E = Bundle.vector(BASE, "E", ("eps",))


@pytest.fixture(scope="module")
def ex_a():
    """Rank-1 bundle over the plane, nabla_{d1} eps = 0, nabla_{d2} eps = x1 eps."""
    conn = Connection(E, [[E.zero_section()], [E.section(eps="x1")]])
    return standard_dorfman(conn)


def test_apply_examples(ex_a):
    d = ex_a
    assert d.apply(d.q.section(Dx2=1), d.b.section(eps=1)) == d.b.section(eps="x1")
    # rule (a): <(0,eps*),(eps,0)> = 1 contributes d_B(x1) = (0, dx1)
    out = d.apply(d.q.section(epss="x1"), d.b.section(eps=1))
    assert out == d.b.section(dx1=1) - d.b.section(dx2="x1^2 + 0")
    assert d.apply(d.q.section(Dx1="x2", epss=1), d.b.zero_section()).is_zero()


def test_zero_operands_return_the_shared_zero_section(ex_a):
    # every Leibniz term has a factor from each operand, so a section with no
    # nonzero coefficient, however it was built, is answered with the zero
    # section of the target itself
    q, b, dull = ex_a.q, ex_a.b, ex_a.bracket
    v, s = q.section(Dx1="x2", epss=1), b.section(eps="x1", dx2=1)
    zero_q, zero_b = Section(q, [BASE.zero()] * q.rank), Section(b, [BASE.zero()] * b.rank)
    assert ex_a.apply(zero_q, s) is b.zero_section()
    assert ex_a.apply(v, zero_b) is b.zero_section()
    assert dull.bracket(v, zero_q) is q.zero_section()
    assert dull.bracket(zero_q, v) is q.zero_section()


def test_check_axioms(ex_a):
    assert ex_a.check_axioms().passed


def test_trivial_pairing_connection_is_dorfman():
    t = Bundle.tangent(patch("x"))
    tm = AnchoredBracket.from_pairs(t, identity_map(t))
    b = Bundle.vector(patch("x"), "B", ("b1",))
    symbols = [[b.section(b1="x")]]
    delta = DorfmanConnection(zero_predual(tm.bundle, b), tm, symbols)
    assert delta.check_axioms().passed


def test_dorfman_symbols_are_immutable(ex_a):
    with pytest.raises(TypeError):
        ex_a.symbols[0][0] = ex_a.b.section(dx1=1)
    with pytest.raises(TypeError):
        ex_a.symbols[0] = ex_a.symbols[1]
    assert ex_a.check_axioms().passed


def test_perturbed_symbols_fail_axiom_c(ex_a):
    symbols = [list(row) for row in ex_a.symbols]
    symbols[0][0] = symbols[0][0] + ex_a.b.section(dx1=1)
    broken = DorfmanConnection(ex_a.predual, ex_a.bracket, symbols)
    report = broken.check_axioms()
    assert not report.passed
    assert any(w.identity == "axiom-c" for w in report.witnesses)


def test_dual_bracket_formula(ex_a):
    # [[ (X,xi), (Y,eta) ]] = ([X,Y], nabla*_X eta - nabla*_Y xi)
    d = ex_a
    value = d.bracket.bracket(d.q.section(Dx2=1), d.q.section(epss=1))
    assert value == -d.q.section(epss="x1")


def test_apply_reads_the_frame_anchors_of_its_bracket(ex_a, hom_apply_calls):
    value = ex_a.apply(ex_a.q.section(Dx2="x1", epss="x2"), ex_a.b.section(eps="x1", dx1=1))
    assert not value.is_zero()
    assert hom_apply_calls == []


@pytest.mark.parametrize("check", ["check_duality", "check_axioms"])
def test_identity_loops_apply_the_anchor_once_per_section(ex_a, hom_apply_calls, check):
    # axiom (c) reads rho(v) for every inner (w, s); rho(v) is taken once per v
    assert getattr(ex_a, check)().passed
    counts = Counter(id(section) for section in hom_apply_calls)
    assert counts and max(counts.values()) == 1


def _same_connection(one, two):
    assert one.symbols == two.symbols
    assert one.bracket.structure == two.bracket.structure
    assert one.bracket.anchor.matrix == two.bracket.anchor.matrix


def test_with_dual_bracket_matches_the_two_step_construction_on_the_catalog():
    checked = 0
    for name in catalog_names():
        for delta in parse_spec(catalog_text(name)).objects["dorfman"].values():
            if not delta.predual.canonical:
                continue  # a zero pairing determines no dual bracket
            anchor = delta.bracket.anchor
            helper = DorfmanConnection(delta.predual, AnchoredBracket.from_pairs(delta.q, anchor),
                                       delta.symbols)
            two_step = DorfmanConnection(delta.predual, helper.dual_bracket(), delta.symbols)
            _same_connection(
                DorfmanConnection.with_dual_bracket(delta.predual, anchor, delta.symbols),
                two_step)
            checked += 1
    assert checked == 9  # the ten [dorfman.*] sections but the zero-pairing one


def test_with_dual_bracket_matches_the_two_step_construction_on_a_shift(ex_a):
    shifts = {(0, 0): ex_a.b.section(eps="x2", dx1=1), (2, 0): ex_a.b.section(dx2="x1")}
    symbols = [list(row) for row in ex_a.symbols]
    for (i, j), shift in shifts.items():
        symbols[i][j] = symbols[i][j] + shift
    helper = DorfmanConnection(ex_a.predual, ex_a.bracket, symbols)
    two_step = DorfmanConnection(ex_a.predual, helper.dual_bracket(), symbols)
    shifted = shift_dorfman(ex_a, shifts)
    _same_connection(shifted, two_step)
    assert shifted.bracket.structure != ex_a.bracket.structure


GOLDEN = Path(__file__).parent / "golden"


def test_the_axiom_c_solve_roundtrips_on_every_canonical_connection():
    # from_dull solves axiom (c) for Delta and the dual bracket solves it for
    # the bracket; over every catalog and golden connection with a canonical
    # pre-dual each direction undoes the other, also for the kept-bracket
    # shifts, whose bracket is not the dual bracket of their symbols
    texts = [catalog_text(name) for name in catalog_names()]
    texts += [path.read_text() for path in sorted(GOLDEN.glob("*.spec"))]
    checked = 0
    for text in texts:
        for delta in parse_spec(text).objects["dorfman"].values():
            if not delta.predual.canonical:
                continue  # a zero pairing determines no dual bracket
            recovered = DorfmanConnection.from_dull(delta.dual_bracket(), delta.predual)
            assert recovered.symbols == delta.symbols
            dual = DorfmanConnection.from_dull(delta.bracket, delta.predual).dual_bracket()
            assert dual.structure == delta.bracket.structure
            assert dual.anchor is delta.bracket.anchor
            checked += 1
    assert checked == 9 + 3  # the nine catalog connections and three golden ones


def test_duality_roundtrip(ex_a):
    assert ex_a.check_duality().passed
    rebuilt = DorfmanConnection.from_dull(ex_a.dual_bracket(), ex_a.predual)
    for i in range(ex_a.q.rank):
        for j in range(ex_a.b.rank):
            assert rebuilt.symbols[i][j] == ex_a.symbols[i][j]


def test_curvature_examples(ex_a):
    d = ex_a
    hom = curvature(d, d.q.section(Dx1=1), d.q.section(Dx2=1))
    assert hom.apply(d.b.section(eps=1)) == d.b.section(eps=1)
    # closed form for the standard connection: (R(X,Y)e, 0) on (e, 0) inputs
    conn = Connection(E, [[E.zero_section()], [E.section(eps="x1")]])
    x, y = Bundle.tangent(BASE).section(Dx1=1), Bundle.tangent(BASE).section(Dx2=1)
    e = E.section(eps=1)
    # R(X, Y) e = nabla_X nabla_Y e - nabla_Y nabla_X e - nabla_[X,Y] e
    r_nabla = (conn.nabla(x, conn.nabla(y, e)) - conn.nabla(y, conn.nabla(x, e))
               - conn.nabla(vf_bracket(x, y), e))
    assert hom.apply(d.b.section(eps=1)).component(E) == r_nabla
    # curvature kills (0, theta)
    assert hom.apply(d.b.section(dx1=1)).is_zero()
    assert hom.apply(d.b.section(dx2="x2")).is_zero()
    assert d.check_curvature_tensorial().passed
    assert d.curvature_vs_jacobiator().passed


def test_curvature_jacobiator_applies_each_frame_curvature_once_per_frame_section(
        hom_apply_calls):
    # R(q_i, q_j) is applied to the B-frame only, and vanishes-on-forms reads
    # the images of its T*M frame that the pairing loop formed
    d = standard_dorfman(Connection(E, [[E.zero_section()], [E.section(eps="x1")]]))
    for i in range(d.q.rank):
        for j in range(d.q.rank):
            d.frame_curvature(i, j)
    hom_apply_calls.clear()
    report = d.curvature_vs_jacobiator()
    assert report.passed and "vanishes-on-forms: pass" in report.details
    assert len(hom_apply_calls) == d.q.rank ** 2 * d.b.rank


def test_flat_connection_gives_flat_curvature():
    flat = standard_dorfman(flat_connection(E))
    for v1 in flat.q.frame_sections():
        for v2 in flat.q.frame_sections():
            assert curvature(flat, v1, v2).is_zero()
    assert flat.bracket.check_lie().passed


def test_skew_examples(ex_a):
    assert all(skew_symmetrization(ex_a, v1, v2).is_zero()
               for v1 in ex_a.q.frame_sections() for v2 in ex_a.q.frame_sections())
    assert ex_a.check_skew().passed
    # a dull bracket with [[(0,eps*),(0,eps*)]] = (0,eps*) has Skew = 2 eps*
    q = ex_a.q
    table = {(2, 2): q.section(epss=1)}
    dull = AnchoredBracket.from_pairs(q, pr_tm_hom(q), table)
    delta = DorfmanConnection.from_dull(dull, ex_a.predual)
    sym = skew_symmetrization(delta, q.section(epss=1), q.section(epss=1))
    assert sym == q.section(epss=2)
    assert not all(skew_symmetrization(delta, v1, v2).is_zero()
                   for v1 in q.frame_sections() for v2 in q.frame_sections())
    # skew vanishes iff the dual bracket is antisymmetric
    assert not all((dull.structure[i][j] + dull.structure[j][i]).is_zero()
                   for i in range(q.rank) for j in range(q.rank))


def test_lie_derivative_dorfman():
    pt = patch()
    g = Bundle.vector(pt, "g", ("e1", "e2"))
    br = AnchoredBracket.from_pairs(g, HomSection.zero(g, Bundle.tangent(pt)),
                                    {(0, 1): g.section(e2=1)}, antisymmetrize=True)
    delta = lie_derivative_dorfman(br)
    assert delta.check_axioms().passed
    # <L_{e1} e2*, e2> = -<e2*, [e1, e2]> = -1
    out = delta.apply(g.section(e1=1), g.dual().section(e2s=1))
    assert out == -g.dual().section(e2s=1)
    # flat since aff(1) is a Lie algebra and the pairing is nondegenerate
    for q1 in g.frame_sections():
        for q2 in g.frame_sections():
            assert curvature(delta, q1, q2).is_zero()


def test_bott_dorfman_quotient():
    courant = standard_courant(BASE)
    k_sub = SubBundle("K", [courant.bundle.section(Dx1=1)], courant.bundle)
    delta, report = bott_dorfman(courant, k_sub)
    assert report.passed
    # Delta_X (Ybar, betabar) = (L_X Y, L_X beta) on classes
    q, b = delta.q, delta.b
    assert b.frame == ("w1", "w2", "w3")  # classes of Dx2, dx1, dx2
    assert delta.apply(q.section(K1=1), b.section(w1="x1")) == b.section(w1=1)
    assert delta.apply(q.section(K1=1), b.section(w3="x1")) == b.section(w3=1)
    assert delta.apply(q.section(K1=1), b.section(w2="x2")).is_zero()


def test_bott_dorfman_rejects_non_isotropic():
    courant = standard_courant(BASE)
    bad = SubBundle("K", [courant.bundle.section(Dx1=1, dx1=1)], courant.bundle)
    delta, report = bott_dorfman(courant, bad)
    assert delta is None
    assert report.status == "error"
    assert any(w.identity == "isotropic" and w.difference == "2" for w in report.witnesses)


def test_bott_dorfman_rejects_non_closed():
    # brackets of constant sections vanish for the standard structure, so
    # closedness can only break after perturbing a frame symbol
    standard = standard_courant(BASE)
    courant = standard.shifted(0, 1, standard.bundle.section(dx1=1))
    bad = SubBundle("K", [courant.bundle.section(Dx1=1),
                          courant.bundle.section(Dx2=1)], courant.bundle)
    delta, report = bott_dorfman(courant, bad)
    assert delta is None
    assert report.status == "error"
    assert any(w.identity == "bracket-closed" for w in report.witnesses)


def test_nabla_dual_reads_its_own_table(monkeypatch):
    # <nabla*_X xi, e_l> = X<xi, e_l> - <xi, nabla_X e_l>, without calling nabla
    p = Bundle.vector(BASE, "P", ("p1", "p2"))
    conn = Connection(p, [[p.section(p2="x2"), p.section(p1="x1*x2", p2=3)],
                          [p.zero_section(), p.section(p1="x1^2")]])
    x = Bundle.tangent(BASE).section(Dx1="x2", Dx2="1 + x1")
    xi = p.dual().section(p1s="x1", p2s="x2^2 - 1")
    x_terms = list(enumerate(x.coeffs))
    expected = Section(p.dual(), tuple(
        vf_apply(BASE, x_terms, xi.coeffs[l]) - dual_pair(xi, conn.nabla(x, e_l))
        for l, e_l in enumerate(p.frame_sections())))
    calls = []
    real = Connection.nabla
    monkeypatch.setattr(Connection, "nabla", lambda *args: calls.append(args) or real(*args))
    assert conn.nabla_dual(x, xi) == expected
    assert calls == []


def test_im2form_axioms():
    e2 = Bundle.vector(BASE, "P", ("p1", "p2"))
    sigma = HomSection(e2, Bundle.cotangent(BASE),
                       [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.poly("x1")]])
    conn = Connection(e2, [[e2.section(p2="x2"), e2.zero_section()],
                           [e2.zero_section(), e2.zero_section()]])
    delta = im2form_dorfman(sigma, conn)
    assert delta.check_axioms().passed
    # the associated splitting is Lagrangian
    assert all(skew_symmetrization(delta, v1, v2).is_zero()
               for v1 in delta.q.frame_sections() for v2 in delta.q.frame_sections())
