import pytest

from courant_lab.bundle import (Bundle, BundleError, SubBundle,
                                annihilator, canonical_pairing, d_scalar,
                                db_canonical, lie_derivative_form, patch,
                                vf_apply, vf_bracket)

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
    # L_X theta = i_X d theta + d(i_X theta)
    from courant_lab.bundle import dual_pair, interior_two_form, two_form_of_oneform
    x = TM.section(Dx1="x2", Dx2="x1")
    theta = CT.section(dx1="x1*x2", dx2="x2")
    lie = lie_derivative_form(x, theta)
    w = two_form_of_oneform(BASE.coords, theta.coeffs)
    contraction = interior_two_form(x.coeffs, w)
    inner = dual_pair(x, theta)
    d_inner = d_scalar(BASE, inner)
    for a, b, c in zip(lie.coeffs, contraction, d_inner.coeffs):
        assert a == b + c


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
        assert vf_apply(BASE.coords, comps, phi) == full
    assert vf_apply(BASE.coords, [BASE.zero(), BASE.poly("x1 - 1")], phi) == \
        BASE.poly("(x1 - 1)*(x1^2 + 3)")


def test_zero_one_and_tangent_bundles_are_shared_per_patch():
    p = patch("y1", "y2")
    assert p.zero() is p.zero() and p.one() is p.one()
    assert Bundle.tangent(p) is Bundle.tangent(p)
    assert Bundle.cotangent(p) is Bundle.cotangent(p)
    f = Bundle.vector(p, "F", ("f1", "f2"))
    assert f.zero_section() is f.zero_section()
    # an equal patch has its own objects, equal to these
    twin = patch("y1", "y2")
    assert Bundle.tangent(twin) == Bundle.tangent(p) and twin.zero() == p.zero()
    scaled = f.section(f1="y1").scale(p.poly("y2"))
    assert scaled.coeffs == (p.poly("y1*y2"), p.zero()) and scaled.coeffs[1] is p.zero()
