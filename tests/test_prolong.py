from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import (COTM, TM, Bundle, HomSection, SubBundle, pairing_matrix,
                                patch)
from courant_lab.catalog import catalog_text
from courant_lab.cli import _results_for_spec
from courant_lab.dirac import VBTriple, dirac_verdicts, check_dirac
from courant_lab.dorfman import (Connection, DorfmanConnection,
                                 canonical_predual, im2form_dorfman,
                                 pr_tm_hom, standard_dorfman)
from courant_lab.laops import LieAlgebroidData
from courant_lab.poly import ScalarPoly
from courant_lab import prolong
from courant_lab.prolong import (GeneratorAlgebra, LiftedSection, TotalPatch,
                                 canonical_form_check,
                                 check_geometric_dirac, lift_core, lift_linear,
                                 linear_poisson_check, ta_generator_check,
                                 total_courant, total_pairing, total_patch_of,
                                 verify_splitting_theorems)
from courant_lab.specfile import parse_spec
from builders import flat_connection

BASE = patch("x1", "x2")
PT = patch()


@pytest.fixture(scope="module")
def ex_a():
    e = Bundle.vector(BASE, "E", ("eps",))
    conn = Connection(e, [[e.zero_section()], [e.section(eps="x1")]])
    return standard_dorfman(conn)


def test_total_patch_shares_its_polynomials():
    tp = total_patch_of(Bundle.vector(BASE, "F", ("f1", "f2")))
    assert tp.allvars is tp.allvars
    assert tp.zero() is tp.zero() and tp.one() is tp.one()
    assert tp.fiber(1) is tp.fiber(1)
    assert tp.zero().vars is tp.allvars and tp.fiber(0).vars is tp.allvars


def test_total_patch_fiber_names_avoid_the_base_coordinates():
    # the prefix's letter repeats until no fiber name is a coordinate
    assert total_patch_of(Bundle.vector(BASE, "F", ("f1", "f2"))).fiber_coords == ("y1", "y2")
    clashing = patch("x1", "y2", "yy1")
    assert total_patch_of(Bundle.vector(clashing, "F", ("f1", "f2"))).fiber_coords == (
        "yyy1", "yyy2")
    assert total_patch_of(Bundle.vector(clashing, "F", ("f1",)), prefix="w").fiber_coords == (
        "w1",)


def _ta_generators_only():
    text = catalog_text("im2form-zero")
    return text[:text.index("[checks]")] + "[checks]\nta-generators = A, Delta\n"


# a base coordinate named like a fiber of the total space the check lifts to:
# y for splitting-theorems and geometric-dirac, p for linear-poisson, w for
# ta-generators
@pytest.mark.parametrize("text", [
    catalog_text("line-bundle-r2").replace("x2", "y1"),
    (Path(__file__).parent / "golden" / "tangent-poisson.spec").read_text().replace("x1", "p1"),
    _ta_generators_only().replace("x2", "w1"),
], ids=["splitting-theorems", "linear-poisson", "ta-generators"])
def test_lifted_checks_run_over_a_coordinate_named_like_a_fiber(text):
    results = _results_for_spec(parse_spec(text), None, 7)
    assert results and all(r["as_expected"] for r in results), results


def test_total_patch_linear_is_the_explicit_sum():
    tp = total_patch_of(Bundle.vector(BASE, "F", ("f1", "f2")))
    for coeffs in ([BASE.poly("x1"), BASE.poly("1 - x2")], [BASE.zero(), BASE.poly("x1*x2")],
                   [BASE.zero(), BASE.zero()]):
        explicit = tp.zero()
        for k, c in enumerate(coeffs):
            explicit = explicit + tp.embed(c) * tp.fiber(k)
        assert tp.linear(coeffs) == explicit
    assert str(tp.linear([BASE.poly("x1"), BASE.one()])) == "x1*y1 + y2"


def test_lift_examples(ex_a):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    l1 = lift_linear(tp, ex_a, ex_a.q.section(Dx1=1))
    assert [str(c) for c in l1.vf.coeffs] == ["1", "0", "0"]
    assert all(c.is_zero() for c in l1.form.coeffs)
    l2 = lift_linear(tp, ex_a, ex_a.q.section(Dx2=1))
    assert str(l2.vf.coeffs[1]) == "1" and str(l2.vf.coeffs[2]) == "-x1*y1"
    core = lift_core(tp, ex_a, ex_a.b.section(eps=1))
    assert str(core.vf.coeffs[2]) == "1" and all(c.is_zero() for c in core.form.coeffs)


def test_total_bracket_example(ex_a):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    l1 = lift_linear(tp, ex_a, ex_a.q.section(Dx1=1))
    l2 = lift_linear(tp, ex_a, ex_a.q.section(Dx2=1))
    out = total_courant(l1, l2)
    assert str(out.vf.coeffs[2]) == "-y1"
    assert all(c.is_zero() for c in out.form.coeffs)


def test_total_pairing_identities(ex_a):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    v = ex_a.q.section(Dx2="x2", epss=1)
    s = ex_a.b.section(eps="x1", dx1=1)
    lifted, core = lift_linear(tp, ex_a, v), lift_core(tp, ex_a, s)
    assert total_pairing(lifted, core) == tp.embed(ex_a.predual.pair(v, s))
    assert total_pairing(core, core).is_zero()


def test_total_pairing_multiplies_no_zero_component(ex_a, monkeypatch):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    lifted = lift_linear(tp, ex_a, ex_a.q.section(Dx2="x2", epss=1))
    core = lift_core(tp, ex_a, ex_a.b.section(eps="x1", dx1=1))
    expected = total_pairing(lifted, core)
    products = []
    real = ScalarPoly.__mul__

    def counting(self, other):
        products.append((self, other))
        return real(self, other)

    monkeypatch.setattr(ScalarPoly, "__mul__", counting)
    assert total_pairing(lifted, core) == expected and not expected.is_zero()
    assert products and all(a._terms and b._terms for a, b in products)



# -- the sparse total-space kernels against the dense formulas -----------------

TOTAL = TotalPatch(("x1", "x2"), ("y1", "y2"))


def _poly(terms):
    """sum n/d * prod v^e over (n, d, exponents): coefficients over 1, 2 and 3."""
    total = TOTAL.zero()
    for num, den, exps in terms:
        term = TOTAL.patch.const(Fraction(num, den))
        for name, e in zip(TOTAL.allvars, exps):
            term = term * TOTAL.patch.coord(name) ** e
        total = total + term
    return total


def _with_zeros(vf, form, kind):
    """The section with this vf and form, or zero in place of one or both."""
    n = len(TOTAL.base_coords)
    return LiftedSection(
        TOTAL.field(TM, base=vf[:n], fiber=vf[n:]) if kind in ("both", "vf") else TOTAL.field(TM),
        TOTAL.field(COTM, base=form[:n], fiber=form[n:]) if kind in ("both", "form")
        else TOTAL.field(COTM))


POLYS = st.lists(st.tuples(st.sampled_from((-3, -2, -1, 1, 2, 3)), st.sampled_from((1, 2, 3)),
                           st.tuples(*[st.integers(0, 2)] * TOTAL.dim)),
                 min_size=1, max_size=2).map(_poly)
# each component is zero half the time, and a whole vf or form now and then
COMPONENTS = st.lists(st.one_of(st.just(TOTAL.zero()), POLYS),
                      min_size=TOTAL.dim, max_size=TOTAL.dim)
LIFTED = st.builds(_with_zeros, COMPONENTS, COMPONENTS,
                   st.sampled_from(("both", "both", "vf", "form", "zero")))


def _dense_pairing(s1, s2):
    return sum((a * b + c * d for a, b, c, d in zip(s1.form.coeffs, s2.vf.coeffs,
                                                    s2.form.coeffs, s1.vf.coeffs)),
               TOTAL.zero())


def _dense_courant(s1, s2):
    """[X1, X2]^j = X1(X2^j) - X2(X1^j) and L_{X1} theta2 - i_{X2} d theta1,
    from partial derivatives over every component."""
    names = TOTAL.allvars
    x1, t1, x2, t2 = s1.vf.coeffs, s1.form.coeffs, s2.vf.coeffs, s2.form.coeffs
    vf, form = [], []
    for j, v in enumerate(names):
        vf.append(sum((x1[i] * x2[j].partial(u) - x2[i] * x1[j].partial(u)
                       for i, u in enumerate(names)), TOTAL.zero()))
        lie = sum((x1[i] * t2[j].partial(u) + t2[i] * x1[i].partial(v)
                   for i, u in enumerate(names)), TOTAL.zero())
        contraction = sum((x2[i] * (t1[j].partial(u) - t1[i].partial(v))
                           for i, u in enumerate(names)), TOTAL.zero())
        form.append(lie - contraction)
    return vf, form


@settings(max_examples=150, deadline=None, derandomize=True)
@given(LIFTED, LIFTED, POLYS)
def test_sparse_total_kernels_match_the_dense_formulas(s1, s2, phi):
    # total_pairing and total_courant read views and touch nonzero
    # components only; the reference sums over every component
    for a, b in ((s1, s2), (s2, s1), (s1.scale(phi), s2), (s1 - s2, s1)):
        assert total_pairing(a, b) == _dense_pairing(a, b)
        out = total_courant(a, b)
        assert [list(out.vf.coeffs), list(out.form.coeffs)] == list(_dense_courant(a, b))
        for sec in (a, b, out):
            assert sec.is_zero() == all(c.is_zero() for c in sec.vf.coeffs + sec.form.coeffs)
    assert all(c == phi * a for c, a in zip(s1.scale(phi).vf.coeffs, s1.vf.coeffs))
    assert all(c == a - b for c, a, b in zip((s1 - s2).form.coeffs, s1.form.coeffs,
                                             s2.form.coeffs))


def test_lifted_section_ops_multiply_and_subtract_no_zero_component(ex_a, monkeypatch):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    lifted = lift_linear(tp, ex_a, ex_a.q.section(Dx2="x2", epss=1))
    core = lift_core(tp, ex_a, ex_a.b.section(eps="x1", dx1=1))
    factor = tp.embed(BASE.coord("x1")) + tp.fiber(0)
    expected = [(lifted.scale(factor).vf, lifted.scale(factor).form),
                ((lifted - core).vf, (lifted - core).form),
                ((core - lifted).vf, (core - lifted).form)]
    products, differences = [], []
    real_mul, real_sub = ScalarPoly.__mul__, ScalarPoly.__sub__

    def counting_mul(self, other):
        products.append((self, other))
        return real_mul(self, other)

    def counting_sub(self, other):
        differences.append(other)
        return real_sub(self, other)

    monkeypatch.setattr(ScalarPoly, "__mul__", counting_mul)
    monkeypatch.setattr(ScalarPoly, "__sub__", counting_sub)
    scaled, diff, back = lifted.scale(factor), lifted - core, core - lifted
    assert [(scaled.vf, scaled.form), (diff.vf, diff.form), (back.vf, back.form)] == expected
    assert lifted.scale(tp.zero()).is_zero()
    assert products and all(a._terms and b._terms for a, b in products)
    assert differences and all(b._terms for b in differences)


def test_splitting_theorems(ex_a):
    assert verify_splitting_theorems(ex_a).passed


def test_splitting_theorems_bracket_only_frame_lifts(monkeypatch):
    # on line-bundle-r2, Q = TM + E* and B = E + T*M have rank 3: total_courant
    # runs once on each frame pair of the core-core, linear-core and
    # linear-linear identities, 3 * 3^2 calls, and the cases with a battery
    # function in a slot are derived from them
    delta = parse_spec(catalog_text("line-bundle-r2")).objects["dorfman"]["Delta"]
    frames = set(delta.q.frame_sections()) | set(delta.b.frame_sections())
    frame_lifts, calls = [], []  # kept alive, so ids name them
    real_core, real_linear, real_courant = (prolong.lift_core, prolong.lift_linear,
                                            prolong.total_courant)

    def lifting(real):
        def lift(tp, delta, section, *args):
            lifted = real(tp, delta, section, *args)
            if section in frames:
                frame_lifts.append(lifted)
            return lifted
        return lift

    def counting(s1, s2):
        calls.append((s1, s2))
        return real_courant(s1, s2)

    monkeypatch.setattr(prolong, "lift_core", lifting(real_core))
    monkeypatch.setattr(prolong, "lift_linear", lifting(real_linear))
    monkeypatch.setattr(prolong, "total_courant", counting)
    assert verify_splitting_theorems(delta).passed
    assert len(calls) == len({(id(s1), id(s2)) for s1, s2 in calls}) == 3 * 3 ** 2
    lifted = {id(s) for s in frame_lifts}
    assert all(id(s1) in lifted and id(s2) in lifted for s1, s2 in calls)


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
    delta = im2form_dorfman(sigma, flat_connection(e))
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
    line = patch("x")
    a = Bundle.vector(line, "a", ("a1",))
    anchor = HomSection(a, Bundle.tangent(line), [[line.one()]])
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
    assert canonical_form_check(sigma, flat_connection(e)).passed


def test_canonical_form_zero_and_generic():
    e = Bundle.vector(BASE, "L", ("eps",))
    zero_sigma = HomSection.zero(e, Bundle.cotangent(BASE))
    assert canonical_form_check(zero_sigma, flat_connection(e)).passed
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
    assert (out - alg.sigma_gen(g.section(e2=1))).is_zero()
    # [sigma!, tau!] = 0 always; the core generators follow the linear ones
    r = lad.a_bundle.rank
    for m1 in range(lad.sigma_bundle.rank):
        for m2 in range(lad.sigma_bundle.rank):
            value = alg.bracket(alg.bundle.frame_section(r + m1),
                                alg.bundle.frame_section(r + m2))
            assert value.is_zero()


def test_ta_generators_tangent_plane():
    a = Bundle.vector(BASE, "t", ("t1", "t2"))
    anchor = HomSection(a, Bundle.tangent(BASE),
                        [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    delta = standard_dorfman(flat_connection(a))
    assert ta_generator_check(lad, delta).passed
    alg = GeneratorAlgebra(lad, delta)
    # partner[j] is the frame element of A + T*M dual to the j-th of TM + A*
    p = pairing_matrix(lad.v_bundle, lad.sigma_bundle)
    assert [row.index(1) for row in p] == alg.partner == [2, 3, 0, 1]
    out = alg.bracket(alg.sigma_gen(a.section(t1=1)),
                      alg.dagger_of(lad.sigma_bundle.join(a.section(t2=1))))
    assert out.is_zero()  # (nabla^bas_{t1}(t2, 0))! = ([t1, t2], 0)! = 0


def test_tilde_expansion_consistent_with_anchor():
    # Theta(tilde(phi a)) must equal the hat of L_{phi a}, which is encoded
    # by the anchor table; probed through the anchor morphism on products
    a = Bundle.vector(BASE, "t", ("t1", "t2"))
    anchor = HomSection(a, Bundle.tangent(BASE),
                        [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(a, anchor))
    delta = standard_dorfman(flat_connection(a))
    alg = GeneratorAlgebra(lad, delta)
    phi_a = a.section(t1="x2")
    elem = alg.tilde_of(phi_a)
    vf = alg.theta(elem)
    # on pullback functions: pi*(rho(phi a) psi)
    psi = alg.tp.embed(BASE.poly("x1*x1"))
    from courant_lab.bundle import vf_apply

    assert vf_apply(alg.tp.patch, vf.nonzero(), psi) == alg.tp.embed(BASE.poly("2*x2*x1"))
    # on the linear function of tau = (t2, 0): l_{L_{phi a} tau}
    tau = lad.sigma_bundle.join(a.section(t2=1))
    from courant_lab.laops import lie_der_sigma

    lied = lie_der_sigma(lad, phi_a, tau)
    ell = alg.tp.zero()
    for j, v in enumerate(lad.v_bundle.frame_sections()):
        ell = ell + alg.tp.fiber(j) * alg.tp.embed(delta.predual.pair(v, tau))
    expected = alg.tp.zero()
    for j, v in enumerate(lad.v_bundle.frame_sections()):
        expected = expected + alg.tp.fiber(j) * alg.tp.embed(delta.predual.pair(v, lied))
    assert vf_apply(alg.tp.patch, vf.nonzero(), ell) == expected


# -- the lifted printer on the shapes no golden prints ---------------------------
# expected strings captured from the printer of the dense lifted sections


def _witnesses(report, prefix=""):
    return [(w.identity, w.inputs, w.difference) for w in report.witnesses
            if w.identity.startswith(prefix)]


def test_printer_on_vector_field_only_differences(monkeypatch):
    # sharp maps against a wrong rho(a) and a wrong bracket [a, e_l]
    line = patch("x")
    a = Bundle.vector(line, "a", ("a1",))
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(
        a, HomSection(a, Bundle.tangent(line), [[line.poly("x")]])))
    bracket, rho = lad.bracket.battery_bracket, lad.bracket.rho
    monkeypatch.setattr(lad.bracket, "battery_bracket",
                        lambda p, t: bracket(p, t).scale(line.poly("x + 2")))
    monkeypatch.setattr(lad.bracket, "rho", lambda s: rho(s).scale(line.poly("3")))
    assert _witnesses(linear_poisson_check(lad)) == [
        ("sharp-of-linear", "a1", "((-2*x)*d/dx; 0)"),
        ("sharp-of-linear", "(x)*a1", "((-2*x^2)*d/dx + (x^2*p1 + x*p1)*d/dp1; 0)"),
        ("sharp-of-linear", "(x^2)*a1",
         "((-2*x^3)*d/dx + (2*x^3*p1 + 2*x^2*p1)*d/dp1; 0)")]
    # generator anchors against a wrong basic connection
    t = Bundle.vector(BASE, "t", ("t1", "t2"))
    lad = LieAlgebroidData(AnchoredBracket.from_pairs(t, HomSection(
        t, Bundle.tangent(BASE), [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])))
    basic_v = lad.basic_v
    monkeypatch.setattr(lad, "basic_v", lambda d, b, v: basic_v(d, b, v)
                        + lad.v_bundle.frame_section(2).scale(BASE.poly("x2")))
    report = ta_generator_check(lad, standard_dorfman(flat_connection(t)))
    assert _witnesses(report, "anchor") == [
        ("anchor-of-sigma", name, "((x2*w1 + x2*w2 + x2*w3 + x2*w4)*d/dw3; 0)")
        for name in ("t1", "t2")]


def test_printer_on_form_only_differences(monkeypatch):
    # flat maps against a wrong Lie derivative
    e = Bundle.vector(BASE, "L", ("eps",))
    sigma = HomSection(e, Bundle.cotangent(BASE), [[BASE.poly("x2")], [BASE.poly("x1*x1")]])
    conn = Connection(e, [[e.zero_section()], [e.section(eps="x1")]])
    lie = prolong.lie_derivative_form
    monkeypatch.setattr(prolong, "lie_derivative_form",
                        lambda x, theta: lie(x, theta).scale(BASE.poly("x1 + 1")))
    assert _witnesses(canonical_form_check(sigma, conn)) == [
        ("flat-of-linear", "Dx1", "(0; (-2*x1^2*y1)*dx2)"),
        ("flat-of-linear", "Dx2", "(0; (-x1*y1)*dx1)")]


def test_printer_on_both_parts(ex_a):
    tp = total_patch_of(Bundle.vector(BASE, "E", ("eps",)))
    lifted = lift_linear(tp, ex_a, ex_a.q.section(Dx2="x2", epss=1))
    core = lift_core(tp, ex_a, ex_a.b.section(eps="x1", dx1=1))
    assert str(lifted) == "((x2)*d/dx2 + (-x1*x2*y1)*d/dy1; (x1*y1)*dx2 + (1)*dy1)"
    assert str(core) == "((x1)*d/dy1; (1)*dx1)"
    assert str(lifted - core) == \
        "((x2)*d/dx2 + (-x1*x2*y1 - x1)*d/dy1; (-1)*dx1 + (x1*y1)*dx2 + (1)*dy1)"
