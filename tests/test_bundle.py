import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from courant_lab import bundle
from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import (Bundle, BundleError, FrameTable, HomSection, Section, SubBundle,
                                annihilator, d_scalar,
                                db_canonical, dual_pair, leibniz, lie_derivative_form,
                                nonzero_terms, pairing_matrix, patch, random_sections, vf_apply,
                                vf_bracket)
from courant_lab.dorfman import standard_dorfman
from courant_lab.poly import ScalarPoly
from builders import canonical_pairing, flat_connection, identity_map

BASE = patch("x1", "x2")
E = Bundle.vector(BASE, "E", ("eps",))
TM = Bundle.tangent(BASE)
CT = Bundle.cotangent(BASE)
Q = TM + E.dual()       # TM + E*
B = E + CT              # E + T*M


def test_frames_and_ranks():
    assert Q.frame == ("Dx1", "Dx2", "epss")
    assert B.frame == ("eps", "dx1", "dx2")
    assert Q.rank == 3 and B.rank == 3


def test_summands_are_the_bundles_of_their_atoms():
    assert Q.section(Dx1=1, epss="x1").component(E.dual()) == E.dual().section(epss="x1")
    assert B.section(eps=1, dx2=1).component(CT) == CT.section(dx2=1)
    assert list(B.positions(CT)) == [1, 2] and list(Q.positions(TM)) == [0, 1]
    assert list(B.positions(E)) == [0] and list(Q.positions(E.dual())) == [2]
    with pytest.raises(BundleError, match="T\\*M is not a summand of TM\\+E\\*"):
        Q.positions(CT)
    with pytest.raises(BundleError, match="E\\+T\\*M is not a summand of E\\+T\\*M"):
        B.zero_section().component(B)  # a sum is not its own summand


# two named summands over one patch, as the generator bundle lin + core, and
# TM + T*M, which is both TM + E* and E + T*M for E = TM
LIN = Bundle.vector(BASE, "lin", ("a~",))
CORE = Bundle.vector(BASE, "core", ("a!", "dx1!"))
SUMS = [(Q, [TM, E.dual()]), (B, [E, CT]), (LIN + CORE, [LIN, CORE]), (TM + CT, [TM, CT])]


def test_join_of_the_components_is_the_section():
    for total, summands in SUMS:
        for s in total.battery.sections:
            parts = [s.component(summand) for summand in summands]
            assert [p.bundle for p in parts] == summands
            assert total.join(*parts) == s


def test_zero_components_and_joins_are_the_shared_zero():
    for total, summands in SUMS:
        zero = total.zero_section()
        for summand in summands:
            assert zero.component(summand) is summand.zero_section()
        assert total.join() is zero
        assert total.join(*(summand.zero_section() for summand in summands)) is zero
    assert B.section(dx1="x2").component(E) is E.zero_section()


@pytest.mark.parametrize("left,right,repeated", [
    (CT, CT, "T*M"), (TM + E, TM, "TM"), (E, Q + E, "E"), (Q, E.dual(), "E*")],
    ids=["T*M+T*M", "TM+E+TM", "E+TM+E*+E", "TM+E*+E*"])
def test_a_sum_that_repeats_a_summand_is_refused(left, right, repeated):
    # a summand is named by its bundle, which a repeated one could not tell apart
    with pytest.raises(BundleError, match=re.escape(f"repeats the summand {repeated}") + "$"):
        left + right


def test_join_takes_each_summand_once():
    with pytest.raises(BundleError):
        B.join(TM.section(Dx1=1))  # not a summand of E + T*M
    with pytest.raises(BundleError):
        B.join(B.section(eps=1))  # a sum is not its own summand
    with pytest.raises(BundleError):
        B.join(E.section(eps=1), E.section(eps="x1"))
    with pytest.raises(BundleError):
        (LIN + CORE).join(CORE.zero_section(), LIN.zero_section(), CORE.zero_section())


def test_point_patch_is_legal():
    pt = patch()
    assert Bundle.tangent(pt).rank == 0
    g = Bundle.vector(pt, "g", ("e1",))
    assert (g + Bundle.cotangent(pt)).rank == 1


def test_canonical_pairing_examples():
    # <(d1, 0), (eps, 0)> = 0: cross terms vanish
    assert canonical_pairing(Q.section(Dx1=1), B.section(eps=1)).is_zero()
    # <(0, eps*), (eps, 0)> = 1: dual frame
    assert canonical_pairing(Q.section(epss=1), B.section(eps=1)) == BASE.one()
    # <(x1 d1, eps*), (eps, x2 dx1)> = 1 + x1 x2
    value = canonical_pairing(Q.section(Dx1="x1", epss=1),
                              B.section(eps=1, dx1="x2"))
    assert value == BASE.poly("1 + x1*x2")


def test_pairing_mismatch_rejected():
    with pytest.raises(BundleError):
        canonical_pairing(Q.section(Dx1=1), E.section(eps=1))
    # every summand of the right bundle must be the dual of one on the left
    with pytest.raises(BundleError, match="is not the dual of"):
        pairing_matrix(E, E.dual() + CT)


def test_db_examples():
    assert db_canonical(B, BASE.coord("x1")) == B.section(dx1=1)
    assert db_canonical(B, BASE.const(3)).is_zero()
    assert db_canonical(B, BASE.poly("x1*x2")) == B.section(dx1="x2", dx2="x1")


def test_vf_bracket_examples():
    assert vf_bracket(TM.section(Dx1=1), TM.section(Dx2=1)).is_zero()
    assert vf_bracket(TM.section(Dx2="x1"), TM.section(Dx1=1)) == -TM.section(Dx2=1)


def test_lie_derivative_examples():
    assert lie_derivative_form(TM.section(Dx1=1), CT.section(dx2="x1")) == CT.section(dx2=1)
    # L_{[X,Y]} = L_X L_Y - L_Y L_X on 1-forms
    xs = [TM.section(Dx1="x2"), TM.section(Dx2="x1*x1"), TM.section(Dx1=1, Dx2="x2")]
    thetas = [CT.section(dx1="x1*x2"), CT.section(dx2="x2")]
    for x in xs:
        for y in xs:
            for theta in thetas:
                lhs = lie_derivative_form(vf_bracket(x, y), theta)
                rhs = (lie_derivative_form(x, lie_derivative_form(y, theta))
                       - lie_derivative_form(y, lie_derivative_form(x, theta)))
                assert lhs == rhs


def test_cartan_identity():
    # L_X theta = i_X d theta + d(i_X theta), also where X or theta has zero components
    from courant_lab.bundle import (column_apply, column_table, courant_dorfman_form_part,
                                    dual_pair, two_form_of_oneform)
    xs = [TM.section(Dx1="x2", Dx2="x1"), TM.section(Dx2="x1*x1"), TM.zero_section()]
    thetas = [CT.section(dx1="x1*x2", dx2="x2"), CT.section(dx1="x2"), CT.zero_section()]
    for x in xs:
        for theta in thetas:
            lie = lie_derivative_form(x, theta)
            w = two_form_of_oneform(BASE.coords, theta.coeffs)
            # (i_X d theta)_j = sum_i X^i w[i][j], the transpose of w times X
            contraction = column_apply(column_table(list(zip(*w)), BASE.dim), x.nonzero(),
                                       BASE.zero())
            inner = dual_pair(x, theta)
            d_inner = d_scalar(BASE, inner)
            for a, b, c in zip(lie.coeffs, contraction, d_inner.coeffs):
                assert a == b + c
            # the form part of the Courant-Dorfman bracket: L_Y eta - i_X d theta
            for y in xs:
                for eta in thetas:
                    assert courant_dorfman_form_part(y.nonzero(), theta.nonzero(), x.nonzero(),
                                                     eta.nonzero(), BASE) == \
                        [a - b for a, b in zip(lie_derivative_form(y, eta).coeffs, contraction)]


def test_annihilator_examples():
    # U = span{(d1,0),(d2,0)} -> U0 = span{(eps,0)}
    ann = annihilator([Q.section(Dx1=1), Q.section(Dx2=1)], B)
    assert len(ann) == 1 and ann[0] == B.section(eps=1)
    # whole bundle -> zero
    assert annihilator(Q.frame_sections(), B) == []
    # graph(-sigma*) for sigma = id over R^2 -> graph(sigma)
    E2 = Bundle.vector(BASE, "F", ("c1", "c2"))
    Q2, B2 = Bundle.tangent(BASE) + E2.dual(), E2 + CT
    u = [Q2.section(Dx1=1) - Q2.section(c1s=1), Q2.section(Dx2=1) - Q2.section(c2s=1)]
    ann2 = SubBundle("ann", annihilator(u, B2), B2)
    graph = SubBundle("graph", [B2.section(c1=1, dx1=1), B2.section(c2=1, dx2=1)], B2)
    assert ann2.same_subspace(graph)


def test_double_annihilator():
    u = [Q.section(Dx1=1), Q.section(epss=2)]
    u_sub = SubBundle("U", u, Q)
    back = SubBundle("UU", annihilator(annihilator(u, B), Q), Q)
    assert back.same_subspace(u_sub)


def test_annihilator_rejects_nonconstant():
    with pytest.raises(BundleError):
        annihilator([Q.section(Dx1="x1")], B)


def test_membership_and_residual():
    k = SubBundle("K", [B.section(eps=1, dx1=1)], B)
    assert k.contains(B.section(eps="x1*x2", dx1="x1*x2"))
    bad = B.section(eps=1)
    assert not k.contains(bad)
    assert not k.residual(bad).is_zero()
    coords = k.coords(B.section(eps="x2", dx1="x2"))
    assert coords == [BASE.coord("x2")]


def test_subbundle_projection_decomposes_every_section():
    # a rational frame: every section is its frame part plus its transverse
    # part, the residual, and is a member exactly when that part is zero
    k = SubBundle("K", [B.section(eps=Fraction(1, 2), dx1=1),
                        B.section(dx1=Fraction(2, 3), dx2=-1)], B)
    member = k.include([BASE.coord("x1"), BASE.const(Fraction(1, 3))])
    for s in random_sections(B, 4, random.Random(3)) + [member, B.zero_section()]:
        head, rest = k.split(s.nonzero(), BASE.zero())
        transverse = B.zero_section()
        for coeff, w in zip(rest, k.complement_sections):
            transverse = transverse + w.scale(coeff)
        assert k.include(head) + transverse == s
        assert k.residual(s) == transverse
        assert k.contains(s) == transverse.is_zero()
        if k.contains(s):
            assert k.coords(s) == head
    assert k.coords(member) == [BASE.coord("x1"), BASE.const(Fraction(1, 3))]
    with pytest.raises(BundleError):
        k.residual(E.section(eps=1))


def test_pairing_bilinear_over_polys():
    v = Q.section(Dx1="x1")
    s = B.section(dx1="x2")
    phi = BASE.poly("x1 + 2")
    assert canonical_pairing(v.scale(phi), s) == phi * canonical_pairing(v, s)
    assert canonical_pairing(v, s.scale(phi)) == phi * canonical_pairing(v, s)


def test_vf_apply_with_zero_components_equals_the_full_sum():
    phi = BASE.poly("x1^2*x2 + 3*x2")
    for comps in ([BASE.zero(), BASE.poly("x1 - 1")], [BASE.poly("x2"), BASE.zero()],
                  [BASE.zero(), BASE.zero()], [BASE.poly("x2"), BASE.poly("x1 - 1")]):
        full = BASE.zero()
        for comp, name in zip(comps, BASE.coords):
            full = full + comp * phi.partial(name)
        assert vf_apply(BASE, enumerate(comps), phi) == full
        assert vf_apply(BASE, nonzero_terms(comps), phi) == full
    assert vf_apply(BASE, [(1, BASE.poly("x1 - 1"))], phi) == \
        BASE.poly("(x1 - 1)*(x1^2 + 3)")


def test_vf_apply_on_a_zero_function_multiplies_nothing(monkeypatch):
    products = []
    real = ScalarPoly.__mul__

    def counting(self, other):
        products.append((self, other))
        return real(self, other)

    monkeypatch.setattr(ScalarPoly, "__mul__", counting)
    monkeypatch.setattr(ScalarPoly, "__rmul__", counting)
    comps = [BASE.poly("x2"), BASE.poly("x1 - 1")]
    # a vanishing result is the patch's shared zero, not a new polynomial
    assert vf_apply(BASE, enumerate(comps), BASE.zero()) is BASE.zero()
    assert vf_apply(BASE, enumerate(comps), BASE.const(3)) is BASE.zero()
    assert products == []


def test_leibniz_differentiates_each_operand_coefficient_once(monkeypatch):
    # the bracket [x, y] of vector fields needs rho_i(y_j) and rho_j(x_i) for
    # every (i, j); each coefficient's partials are computed once and reread
    def sections():
        return TM.section(Dx1="x1*x2", Dx2="x2^2 + 1"), TM.section(Dx1="x1^2", Dx2="x1 - x2")

    expected = vf_bracket(*sections())
    x, y = sections()
    frame = FrameTable([[TM.zero_section()] * TM.rank for _ in range(TM.rank)],
                       [d.coeffs for d in TM.frame_sections()])
    fills, reads, kept = Counter(), Counter(), []
    real = ScalarPoly.gradient

    def counting(self):
        kept.append(self)
        reads[id(self)] += 1
        try:
            self._gradient
        except AttributeError:
            fills[id(self)] += 1
        return real(self)

    monkeypatch.setattr(ScalarPoly, "gradient", counting)
    assert leibniz(x, y, frame, TM, bracket=True) == expected
    operands = {id(c) for c in x.coeffs + y.coeffs}
    assert set(fills) == set(reads) == operands
    assert max(fills.values()) == 1 and max(reads.values()) > 1


def test_zero_one_and_tangent_bundles_are_shared_per_patch():
    p = patch("y1", "y2")
    assert p.zero() is p.zero() and p.one() is p.one()
    assert Bundle.tangent(p) is Bundle.tangent(p)
    assert Bundle.cotangent(p) is Bundle.cotangent(p)
    f = Bundle.vector(p, "F", ("f1", "f2"))
    assert f.zero_section() is f.zero_section()
    # an equal patch has its own objects, equal only to themselves; its zero
    # polynomial is a value and stays equal to this one
    twin = patch("y1", "y2")
    assert twin != p and Bundle.tangent(twin) != Bundle.tangent(p)
    assert twin.zero() == p.zero()
    scaled = f.section(f1="y1").scale(p.poly("y2"))
    assert scaled.coeffs == (p.poly("y1*y2"), p.zero()) and scaled.coeffs[1] is p.zero()


def test_dual_bundle_is_shared():
    for b in (E, Q, B, CT, Bundle.vector(BASE, "F", ("f1", "f2"))):
        assert b.dual() is b.dual()
        assert b.dual().dual() is b
    assert Q.dual() is TM.dual() + E


def test_each_patch_builds_one_bundle_per_atoms():
    p = patch("y1", "y2")
    first = Bundle.tangent(p) + Bundle.cotangent(p)
    assert Bundle.tangent(p) + Bundle.cotangent(p) is first
    assert Bundle.vector(p, "F", ("f1",)) is Bundle.vector(p, "F", ["f1"])
    assert first.dual() is Bundle.tangent(p).dual() + Bundle.cotangent(p).dual()
    # an equal patch builds its own bundles, equal only to themselves, so
    # sections with equal coefficients over the two are unequal
    twin = patch("y1", "y2")
    other = Bundle.tangent(twin) + Bundle.cotangent(twin)
    assert other is not first and other != first
    assert first.zero_section().coeffs == other.zero_section().coeffs
    assert Section(first, first.zero_section().coeffs) != other.zero_section()


def test_sections_over_equal_patches_do_not_mix():
    # two equal patches are two base manifolds: every operation refuses to
    # mix their sections, though their bundles read alike
    p, twin = patch("y1", "y2"), patch("y1", "y2")
    tangent = Bundle.tangent(p)
    x, y = tangent.section(Dy1="y2"), Bundle.tangent(twin).section(Dy1="y2")
    message = r"sections of different bundles \(build both over one Patch\): TM vs TM"
    with pytest.raises(BundleError, match=message):
        x + y
    with pytest.raises(BundleError, match=message):
        x - y
    with pytest.raises(BundleError):
        tangent + Bundle.cotangent(twin)
    with pytest.raises(BundleError):
        identity_map(tangent).apply(y)
    with pytest.raises(BundleError):
        AnchoredBracket.from_pairs(tangent, identity_map(tangent)).bracket(x, y)
    here, there = (standard_dorfman(flat_connection(Bundle.vector(base, "E", ("eps",))))
                   for base in (p, twin))
    with pytest.raises(BundleError):
        here.apply(here.q.section(Dy1=1), there.b.section(eps=1))
    with pytest.raises(BundleError):
        here.apply(there.q.section(Dy1=1), here.b.section(eps=1))


def test_adding_the_shared_zero_section_returns_the_operand():
    s = Q.section(Dx1="x1*x2", epss="x2 - 1")
    zero = Q.zero_section()
    assert s + zero is s and s - zero is s
    # an equal zero that is not the shared one is added as any section
    assert s + Section(Q, zero.coeffs) == s
    with pytest.raises(BundleError):
        s + B.zero_section()


def test_transpose_is_the_adjoint_map():
    f = Bundle.vector(BASE, "F", ("f1", "f2"))
    sigma = HomSection(f, CT, [[BASE.poly("x1"), BASE.one()],
                               [BASE.zero(), BASE.poly("x1*x2 - 1")]])
    sigma_star = sigma.transpose()
    assert sigma_star.source == TM and sigma_star.target == f.dual()
    # <sigma* X, e> = <sigma e, X>
    for x in TM.battery.sections:
        for e in f.battery.sections:
            assert dual_pair(sigma_star.apply(x), e) == dual_pair(sigma.apply(e), x)
    back = sigma_star.transpose()
    assert (back.source, back.target, back.matrix) == (sigma.source, sigma.target, sigma.matrix)


@pytest.mark.parametrize("base,frame,texts", [
    (BASE, ("f1", "f2"), ["1", "x1", "x2", "x1*x2", "x1^2"]),
    (patch("y1", "y2", "y3"), ("l",), ["1", "y1", "y2", "y1*y2", "y1^2"]),
    (patch("t"), ("l",), ["1", "t", "t^2"])])
def test_bundle_battery_layout(base, frame, texts):
    # frame section l times battery function f is entry pos(l, f), labelled
    # by the frame name for f = 0 and by "(text)*name" otherwise
    b = Bundle.vector(base, "F", frame)
    batt = b.battery
    assert [text for _, text in base.battery] == texts
    assert batt.functions == tuple(phi for phi, _ in base.battery)
    assert batt.texts == tuple(texts)
    assert len(batt.sections) == len(batt.labels) == b.rank * len(texts)
    for l, section in enumerate(b.frame_sections()):
        assert batt.frames[l] == batt.pos(l, 0)
        assert batt.labels[batt.pos(l, 0)] == frame[l]
        for f, (phi, text) in enumerate(base.battery):
            assert batt.sections[batt.pos(l, f)] == section.scale(phi)
            if f:
                assert batt.labels[batt.pos(l, f)] == f"({text})*{frame[l]}"
    assert b.battery is batt and b.dual().dual().battery is batt
    assert base.battery is base.battery
    assert all(isinstance(field, tuple) for field in batt)


def _ring_random_poly(base, rng, degree):
    """random_poly as a chain of ring operations on checked constants and
    coordinates: the reference for its one-constructor build."""
    poly = base.const(Fraction(rng.randint(-2, 2)))
    for _ in range(2):
        term = base.const(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        for _ in range(rng.randint(0, degree)):
            if base.coords:
                term = term * base.coord(rng.choice(base.coords))
        poly = poly + term
    return poly


@pytest.mark.parametrize("dim", range(4))
def test_random_poly_matches_the_ring_operation_reference(dim):
    base = patch(*(f"x{i + 1}" for i in range(dim)))
    for degree in range(4):
        for seed in range(200):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            poly = bundle.random_poly(base, rng, degree)
            assert poly == _ring_random_poly(base, reference_rng, degree), (seed, degree)
            assert rng.getstate() == reference_rng.getstate(), (seed, degree)
