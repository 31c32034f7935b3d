import pytest

from courant_lab import algebroid
from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import Bundle, HomSection, Section, SubBundle, patch, vf_bracket
from courant_lab.dorfman import Connection, standard_dorfman
from builders import curvature, identity_map

BASE = patch("x1", "x2")
PT = patch()
T = Bundle.tangent(BASE)


def aff1():
    g = Bundle.vector(PT, "g", ("e1", "e2"))
    anchor = HomSection.zero(g, Bundle.tangent(PT))
    return AnchoredBracket.from_pairs(g, anchor, {(0, 1): g.section(e2=1)},
                                      antisymmetrize=True)


def test_lie_algebra_frame_values():
    br = aff1()
    g = br.bundle
    assert br.bracket(g.section(e1=1), g.section(e2=1)) == g.section(e2=1)
    assert br.bracket(g.section(e2=1), g.section(e2=1)).is_zero()


def test_leibniz_extension_matches_vf_bracket():
    tm = AnchoredBracket.from_pairs(T, identity_map(T))
    x = tm.bundle.section(Dx2="x1")
    y = tm.bundle.section(Dx1=1)
    assert tm.bracket(x, y) == vf_bracket(x, y)
    assert tm.bracket(x, y) == -tm.bundle.section(Dx2=1)


def test_anchor_compat_reports():
    assert AnchoredBracket.from_pairs(T, identity_map(T)).check_anchor_compat().passed
    assert aff1().check_anchor_compat().passed
    # the dual bracket of a standard connection is anchored by pr_TM
    e = Bundle.vector(BASE, "E", ("eps",))
    delta = standard_dorfman(Connection(e, [[e.zero_section()], [e.section(eps="x1")]]))
    assert delta.bracket.check_anchor_compat().passed


def test_check_lie():
    assert aff1().check_lie().passed
    assert AnchoredBracket.from_pairs(T, identity_map(T)).check_lie().passed


def test_structure_is_immutable():
    br = aff1()
    g = br.bundle
    with pytest.raises(TypeError):
        br.structure[0][1] = g.section(e1=1)
    with pytest.raises(TypeError):
        br.structure[0] = br.structure[1]
    assert br.bracket(g.section(e1=1), g.section(e2=1)) == g.section(e2=1)


def test_check_lie_is_computed_once_per_seed():
    br = aff1()
    assert br.check_lie(3) is br.check_lie(3)
    assert br.check_lie(4) is not br.check_lie(3)
    assert br.check_lie(4).to_dict() == aff1().check_lie(4).to_dict()


def test_rank_0_bracket_is_trivially_lie_without_random_sections(monkeypatch):
    # the induced bracket on a rank-0 subbundle has no section to test
    drawn = []
    monkeypatch.setattr(algebroid, "random_sections", lambda *args: drawn.append(args) or [])
    zero = AnchoredBracket.induced(SubBundle("F", [], T), [], [])
    report = zero.check_lie(7)
    assert (report.status, report.details, report.witnesses) == (
        "pass", ["rank 0: trivially a Lie algebroid"], [])
    assert drawn == []


def test_nonflat_dual_bracket_fails_lie_with_jacobiator_witness():
    e = Bundle.vector(BASE, "E", ("eps",))
    delta = standard_dorfman(Connection(e, [[e.zero_section()], [e.section(eps="x1")]]))
    report = delta.bracket.check_lie()
    assert not report.passed
    assert any(w.identity == "jacobi" for w in report.witnesses)
    # the Jacobiator pairs exactly as the curvature (cross-module identity)
    q = delta.q
    q1, q2 = q.section(Dx1=1), q.section(Dx2=1)
    for q3 in q.frame_sections():
        triple = (delta.bracket.bracket(delta.bracket.bracket(q1, q2), q3)
                  + delta.bracket.bracket(q2, delta.bracket.bracket(q1, q3))
                  - delta.bracket.bracket(q1, delta.bracket.bracket(q2, q3)))
        hom = curvature(delta, q1, q2)
        for b in delta.b.frame_sections():
            assert delta.predual.pair(q3, hom.apply(b)) == delta.predual.pair(triple, b)


def test_structure_functions_not_assumed_antisymmetric():
    g = Bundle.vector(PT, "g", ("e1", "e2"))
    anchor = HomSection.zero(g, Bundle.tangent(PT))
    dull = AnchoredBracket.from_pairs(g, anchor, {(0, 0): g.section(e2=1)})
    assert not all((dull.structure[i][j] + dull.structure[j][i]).is_zero()
                   for i in range(2) for j in range(2))
    assert not dull.check_lie().passed


def test_restrict_to_subbundle():
    tm = AnchoredBracket.from_pairs(T, identity_map(T))
    sub = SubBundle("F", [tm.bundle.section(Dx1=1)], tm.bundle)
    restricted = tm.restrict(sub)
    assert restricted.bundle.rank == 1
    assert restricted.check_lie().passed


def _restriction_by_hand(bracket, sub):
    """The anchor matrix and structure functions of the induced bracket,
    assembled entry by entry."""
    small = sub.as_bundle()
    anchor_cols = [bracket.rho(sec) for sec in sub.sections]
    matrix = tuple(tuple(col.coeffs[i] for col in anchor_cols)
                   for i in range(bracket.anchor.target.rank))
    table = tuple(tuple(Section(small, tuple(sub.coords(bracket.bracket(s1, s2))))
                        for s2 in sub.sections) for s1 in sub.sections)
    return matrix, table


@pytest.mark.parametrize("case", ["line-field", "rank-0", "aff1-rebased"])
def test_induced_bracket_matches_the_restriction_by_hand(case):
    if case == "aff1-rebased":
        bracket = aff1()
        g = bracket.bundle
        sub = SubBundle("G", [g.section(e1=1, e2=1), g.section(e2=1)])
    else:
        bracket = AnchoredBracket.from_pairs(T, identity_map(T))
        sections = [T.section(Dx1=1)] if case == "line-field" else []
        sub = SubBundle("F", sections, T)
    matrix, table = _restriction_by_hand(bracket, sub)
    values = [[bracket.bracket(s1, s2) for s2 in sub.sections] for s1 in sub.sections]
    induced = AnchoredBracket.induced(sub, [bracket.rho(sec) for sec in sub.sections], values)
    for built in (induced, bracket.restrict(sub)):
        assert built.bundle == sub.as_bundle()
        assert built.anchor.matrix == matrix
        assert built.structure == table
    if case == "aff1-rebased":
        # [e1 + e2, e2] = e2, the second frame section of G
        assert induced.structure[0][1] == induced.bundle.section(G2=1)
