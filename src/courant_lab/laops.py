"""The Lie-algebroid layer: Omega, basic connections and curvature,
the Dorfman-like bracket on A + T*M, LA-Dirac triples and the identity
lemmas feeding the Manin-pair construction.

Throughout, A is a Lie algebroid with anchor rho, Delta a Dorfman
connection over the canonical pre-dual of A, and

    Omega_{(X,xi)} a = Delta_{(X,xi)}(a, 0) - (0, d<xi, a>).

The basic connections are

    nabla^bas_a v     = (rho, rho*)(Omega_v a) + L_a v        on TM + A*,
    nabla^bas_a sigma = Omega_{(rho,rho*) sigma} a + L_a sigma  on A + T*M,

and the basic curvature is

    R^bas(a,b) v = -Omega_v [a,b] + L_a(Omega_v b) - L_b(Omega_v a)
                   + Omega_{nabla^bas_b v} a - Omega_{nabla^bas_a v} b.

LieAlgebroidData owns the bundles TM + A* and A + T*M (v_bundle,
sigma_bundle) and the pair map (rho, rho*) between them (pair_map, built
once); a summand of either is read through Section.component and written
through Bundle.join, as everywhere else, each named by the bundle that
fills it (a_bundle, its dual, Bundle.tangent, Bundle.cotangent).  So A
may be TM, and then TM + A* and A + T*M are both TM + T*M.  A sum A, or
A = T*M (TM + A* would repeat TM), ends in a BundleError that names it.

Each operator value is evaluated once per spec.  LieAlgebroidData, built
once per (bracket, seed) of a spec, keeps one table of rho(a), [a, b]_A,
(rho,rho*) sigma, Delta_v sigma, [[u, v]], Omega_v a, L_a sigma, L_a v,
the Dorfman-like bracket and nabla^bas_a v and sigma, keyed by the
operator, its Dorfman connection if any and the coefficients of the
arguments; a method computes a value on its first read.  L_a xi on A* is
Delta_a xi for lie_derivative_dorfman (lie_derivative).  So every line
naming the algebroid reads the same values, the anchor is applied to each
section value once, and a new parse starts with an empty table.  The Omega
and basic-curvature checks read phi a and phi v from the battery of their
bundle (Bundle.battery); the Dorfman-like and basic-connection checks
evaluate frame sections only and derive the battery cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Optional, Tuple

from .algebroid import AnchoredBracket, BatteryTable, record_jacobi, record_symmetrized
from .bundle import (Bundle, BundleError, HomSection, Section,
                     courant_dorfman_form_part, db_canonical, dual_pair, lie_derivative_form,
                     vf_apply, vf_bracket)
from .dirac import VBTriple
from .dorfman import DorfmanConnection, lie_derivative_dorfman, pr_tm_hom
from .poly import sum_of_products
from .report import Checker, CheckReport, NOT_APPLICABLE


def _coeffs(section: Section, bundle: Bundle) -> tuple:
    """The coefficients of a section of bundle, as part of a table key."""
    if section.bundle is not bundle:
        raise BundleError(f"expected a section of {bundle.label()}, "
                          f"got one of {section.bundle.label()}")
    return section.coeffs


@dataclass
class LieAlgebroidData:
    """A Lie algebroid with the pair map (rho, rho*) and its table of values.

    The pair map, the LA-Dirac gate of each triple and the table values are
    computed once and shared; the bracket, the triples and the Dorfman
    connections are immutable, so they stay valid.
    """

    bracket: AnchoredBracket
    lie_report: Optional[CheckReport] = field(repr=False, default=None)
    _la_dirac: Dict[VBTriple, CheckReport] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _values: Dict[tuple, Section] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lie_report is None:
            self.lie_report = self.bracket.check_lie()
        if not self.lie_report.passed:
            raise BundleError("the bracket does not define a Lie algebroid; "
                              "see check_lie for witnesses")

    @property
    def a_bundle(self) -> Bundle:
        return self.bracket.bundle

    @property
    def base(self):
        return self.a_bundle.patch

    @cached_property
    def v_bundle(self) -> Bundle:
        return Bundle.tangent(self.base) + self.a_bundle.dual()

    @cached_property
    def sigma_bundle(self) -> Bundle:
        return self.a_bundle + Bundle.cotangent(self.base)

    @cached_property
    def pair_map(self) -> HomSection:
        """(rho, rho*): A + T*M -> TM + A*, assembled blockwise."""
        # columns over the frame of A + T*M: (rho e_k, 0), then
        # (0, rho* dx_l) with <rho* theta, e_k> = <theta, rho(e_k)>
        anchor, tgt = self.bracket.anchor, self.v_bundle
        rho_star = anchor.transpose()
        columns = ([tgt.join(anchor.column(k)) for k in range(anchor.source.rank)]
                   + [tgt.join(rho_star.column(l)) for l in range(rho_star.source.rank)])
        return HomSection.from_columns(self.sigma_bundle, tgt, columns)

    @cached_property
    def lie_derivative(self) -> DorfmanConnection:
        """L_a on A*: the Dorfman connection on (A, A*) of the bracket."""
        return lie_derivative_dorfman(self.bracket)

    # -- the table of operator values ---------------------------------

    def _once(self, key: tuple, compute: Callable[..., Section], *args) -> Section:
        """compute(*args) on the first read of key, the stored value after."""
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = compute(*args)
        return value

    def rho(self, a: Section) -> Section:
        return self._once(("rho", _coeffs(a, self.a_bundle)), self.bracket.rho, a)

    def a_bracket(self, a: Section, b: Section) -> Section:
        return self._once(("bracket", _coeffs(a, self.a_bundle), _coeffs(b, self.a_bundle)),
                          self.bracket.bracket, a, b)

    def image(self, sigma: Section) -> Section:  # (rho,rho*) sigma
        return self._once(("image", _coeffs(sigma, self.sigma_bundle)),
                          self.pair_map.apply, sigma)

    def dorfman(self, delta: DorfmanConnection, v: Section, sigma: Section) -> Section:
        return self._once(("dorfman", delta, _coeffs(v, delta.q), _coeffs(sigma, delta.b)),
                          delta.apply, v, sigma)

    def dull_bracket(self, delta: DorfmanConnection, u: Section, v: Section) -> Section:
        return self._once(("dull", delta, _coeffs(u, self.v_bundle), _coeffs(v, self.v_bundle)),
                          delta.bracket.bracket, u, v)

    def omega(self, delta: DorfmanConnection, v: Section, a: Section) -> Section:
        return self._once(("omega", delta, _coeffs(v, self.v_bundle), _coeffs(a, self.a_bundle)),
                          omega, self, delta, v, a)

    def lie_der_sigma(self, a: Section, sigma: Section) -> Section:
        return self._once(("lie_sigma", _coeffs(a, self.a_bundle),
                           _coeffs(sigma, self.sigma_bundle)), lie_der_sigma, self, a, sigma)

    def lie_der_v(self, a: Section, v: Section) -> Section:
        return self._once(("lie_v", _coeffs(a, self.a_bundle), _coeffs(v, self.v_bundle)),
                          lie_der_v, self, a, v)

    def dorfman_like_bracket(self, s1: Section, s2: Section) -> Section:
        return self._once(("dlike", _coeffs(s1, self.sigma_bundle),
                           _coeffs(s2, self.sigma_bundle)), dorfman_like_bracket, self, s1, s2)

    def basic_v(self, delta: DorfmanConnection, a: Section, v: Section) -> Section:
        return self._once(("basic_v", delta, _coeffs(a, self.a_bundle), _coeffs(v, self.v_bundle)),
                          basic_v, self, delta, a, v)

    def basic_sigma(self, delta: DorfmanConnection, a: Section, sigma: Section) -> Section:
        return self._once(("basic_sigma", delta, _coeffs(a, self.a_bundle),
                           _coeffs(sigma, self.sigma_bundle)), basic_sigma, self, delta, a, sigma)


# -- the operators of the table: each reads its sub-terms from the table ----


def omega(lad: LieAlgebroidData, delta: DorfmanConnection, v: Section, a: Section) -> Section:
    """Omega_v a = Delta_v (a, 0) - (0, d<xi, a>)."""
    sigma = lad.sigma_bundle.join(a)
    pairing = delta.predual.pair(v, sigma)
    return lad.dorfman(delta, v, sigma) - db_canonical(lad.sigma_bundle, pairing)


def lie_der_sigma(lad: LieAlgebroidData, a: Section, sigma: Section) -> Section:
    """L_a (b, theta) = ([a, b], L_{rho(a)} theta)."""
    return lad.sigma_bundle.join(
        lad.a_bracket(a, sigma.component(lad.a_bundle)),
        lie_derivative_form(lad.rho(a), sigma.component(Bundle.cotangent(lad.base))))


def lie_der_v(lad: LieAlgebroidData, a: Section, v: Section) -> Section:
    """L_a (X, xi) = ([rho(a), X], L_a xi), L_a xi read through the table."""
    x = v.component(Bundle.tangent(lad.base))
    xi = v.component(lad.a_bundle.dual())
    return lad.v_bundle.join(vf_bracket(lad.rho(a), x), lad.dorfman(lad.lie_derivative, a, xi))


def dorfman_like_bracket(lad: LieAlgebroidData, s1: Section, s2: Section) -> Section:
    """[(a,theta),(b,omega)]_D = ([a,b], L_{rho(a)} omega - i_{rho(b)} d theta)."""
    cotangent = Bundle.cotangent(lad.base)
    a, theta = s1.component(lad.a_bundle), s1.component(cotangent)
    b, omg = s2.component(lad.a_bundle), s2.component(cotangent)
    form = courant_dorfman_form_part(lad.rho(a).nonzero(), theta.nonzero(),
                                     lad.rho(b).nonzero(), omg.nonzero(), lad.base)
    return lad.sigma_bundle.join(lad.a_bracket(a, b), Section(cotangent, tuple(form)))


def basic_v(lad: LieAlgebroidData, delta: DorfmanConnection, a: Section, v: Section) -> Section:
    """nabla^bas_a v = (rho,rho*)(Omega_v a) + L_a v on TM + A*."""
    return lad.pair_map.apply(lad.omega(delta, v, a)) + lad.lie_der_v(a, v)


def basic_sigma(lad: LieAlgebroidData, delta: DorfmanConnection,
                a: Section, sigma: Section) -> Section:
    """nabla^bas_a sigma = Omega_{(rho,rho*) sigma} a + L_a sigma on A + T*M."""
    return lad.omega(delta, lad.image(sigma), a) + lad.lie_der_sigma(a, sigma)


def basic_curvature(lad: LieAlgebroidData, delta: DorfmanConnection,
                    a: Section, b: Section, v: Section) -> Section:
    """R^bas(a,b) v = -Omega_v [a,b] + L_a(Omega_v b) - L_b(Omega_v a)
    + Omega_{nabla^bas_b v} a - Omega_{nabla^bas_a v} b, from the table."""
    return (-lad.omega(delta, v, lad.a_bracket(a, b))
            + lad.lie_der_sigma(a, lad.omega(delta, v, b))
            - lad.lie_der_sigma(b, lad.omega(delta, v, a))
            + lad.omega(delta, lad.basic_v(delta, b, v), a)
            - lad.omega(delta, lad.basic_v(delta, a, v), b))


def check_dlike(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    """Symmetrization and Leibniz-Jacobi identities of the bracket on A + T*M.

    With s1 = (a, theta), s2 = (b, omega), <s1, s2> = omega(rho a) + theta(rho b) and D =
    db_canonical, the bracket has the rules of `leibniz`: [s1, phi s2] = phi [s1, s2] +
    rho(a)(phi) s2 and [phi s1, s2] = phi [s1, s2] - rho(b)(phi) s1 + <s1, s2> D phi, by the
    Leibniz rules of [,]_A and of L_X omega in X and omega, and i_Y d(phi theta) = phi i_Y d
    theta + Y(phi) theta - theta(Y) d phi.  So both identities read frame pairs only:
    record_jacobi derives the scaled third slot and, on the canonical pre-dual of A (whose
    pairing is <,>), record_symmetrized the rest.
    """
    chk = Checker("dorfman-like", "symmetrized bracket is exact; Jacobi in Leibniz form")
    batt = lad.sigma_bundle.battery
    op = lad.dorfman_like_bracket
    table = BatteryTable(batt, batt)
    record_symmetrized(chk, "symmetrization", table, op, lambda p, q: db_canonical(
        lad.sigma_bundle, delta.predual.pair(lad.image(batt.sections[q]), batt.sections[p])),
        scaled=int(delta.predual.canonical))
    # the anchor of the bracket on A + T*M is rho pr_A = pr_TM (rho, rho*)
    record_jacobi(chk, "jacobi-leibniz", table, op,
                  anchor=pr_tm_hom(lad.v_bundle).compose(lad.pair_map))
    return chk.report()


# -- basic connections ----------------------------------------------------


def check_omega_properties(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    chk = Checker("omega", "scaling properties of the Omega map")
    v_batt, a_batt = lad.v_bundle.battery, lad.a_bundle.battery
    a_frames = lad.a_bundle.frame_sections()
    d_functions = [db_canonical(lad.sigma_bundle, phi) for phi in a_batt.functions]
    a_lifts = [lad.sigma_bundle.join(a) for a in a_frames]
    for i, v in enumerate(lad.v_bundle.frame_sections()):
        vname = lad.v_bundle.frame[i]
        x = v.component(Bundle.tangent(lad.base))
        xi = v.component(lad.a_bundle.dual())
        x_of = [vf_apply(lad.base, x.nonzero(), phi) for phi in a_batt.functions]
        for k, a in enumerate(a_frames):
            base_val = lad.omega(delta, v, a)
            aname = lad.a_bundle.frame[k]
            xi_a = dual_pair(xi, a)
            for f, (phi, text) in enumerate(zip(a_batt.functions, a_batt.texts)):
                scaled_val = base_val.scale(phi)
                chk.record("homogeneous-in-v", f"(({text})*{vname}; {aname})",
                           lad.omega(delta, v_batt.sections[v_batt.pos(i, f)], a) - scaled_val)
                correction = a_lifts[k].scale(x_of[f]) - d_functions[f].scale(xi_a)
                chk.record("derivation-in-a", f"({vname}; ({text})*{aname})",
                           lad.omega(delta, v, a_batt.sections[a_batt.pos(k, f)])
                           - scaled_val - correction)
    return chk.report()


def check_basic_identities(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    """Connection laws plus the duality defect and intertwining identities.

    nabla^bas is evaluated for frame a and frame t only (and on (rho,rho*) sigma for frame
    sigma); every case with a battery function is derived.  Let P = (rho,rho*), w = (X_w, xi_w)
    be t on TM + A* and P t for t = (b, theta) on A + T*M, g = <w, (a, 0)>, d_B = delta.predual.d,
    D = db_canonical, d_{A*} the d of lie_derivative, O = rho_Delta(w)(phi) (a, 0) - g D phi and
    T_a(phi; t) = g (d_B - D) phi, under P on TM + A*.  Then, assuming no axiom:
      nabla_{phi a} t - phi nabla_a t = P O + (-X_w(phi) rho(a), <a, xi_w> d_{A*} phi) on
        TM + A*, and O - X_w(phi) (a, 0) + theta(rho a) D phi on A + T*M;
      nabla_a (phi t) - phi nabla_a t - rho(a)(phi) t = T_a(phi; t);
      D(a; phi v; psi sigma) = phi psi D(a; v; sigma) + psi <T_a(phi; v), sigma>
        + phi <v, T_a(psi; sigma)>;
      I(a; psi sigma) = psi I(a; sigma).
    Proof: by the rules of `leibniz`, Delta_{phi w} s = phi Delta_w s + <w, s> d_B phi and
    Delta_w (phi s) = phi Delta_w s + rho_Delta(w)(phi) s; with D(phi g) = phi D g + g D phi,
    Omega_w (phi a) = phi Omega_w a + O and Omega_{phi w} a = phi Omega_w a + T.  L_{phi a} adds
    (-X(phi) rho(a), <a, xi> d_{A*} phi) to phi L_a (X, xi), by vf_bracket and the first rule
    for lie_derivative, and (-rho(b)(phi) a, theta(rho a) D phi) to phi L_a (b, theta), by the
    rule of [,]_A and L_{phi Y} theta = phi L_Y theta + theta(Y) d phi, where rho(b) = X_w.  L_a
    (phi t) adds rho(a)(phi) t, by the second rules.  In D the rho(a)(phi) and rho(a)(psi) terms
    are those of rho(a)(phi psi <v, sigma>), and Skew(phi v, psi w) = phi psi Skew(v, w) by the
    Leibniz rules of the dull bracket.  In I the rho(a)(psi) P sigma terms cancel, and what
    is left is T_a(psi; P sigma) - P T_a(psi; sigma); T reads sigma only through w = P sigma,
    so both are P(g (d_B - D) psi) with the same g = <P sigma, (a, 0)>, and they cancel too.
    No other term is assumed zero; on the canonical pre-dual rho_Delta(w) = X_w and d_B = D
    cancel them.
    """
    chk = Checker("basic-connections",
                  "basic connections: linearity, derivation law, duality defect, intertwining")
    base, pm, pair = lad.base, lad.pair_map, delta.predual.pair
    functions, texts = lad.a_bundle.battery.functions, lad.a_bundle.battery.texts
    a_frames = lad.a_bundle.frame_sections()
    v_batt, s_batt = lad.v_bundle.battery, lad.sigma_bundle.battery
    n_v = len(v_batt.sections)
    labels, targets = v_batt.labels + s_batt.labels, v_batt.sections + s_batt.sections
    ws = targets[:n_v] + tuple(lad.image(sigma) for sigma in s_batt.sections)
    # (rho_Delta(w)(phi), X_w(phi)) for each target and battery function
    acting = [[(vf_apply(base, rho_w, phi), vf_apply(base, x_w, phi)) for phi in functions]
              for rho_w, x_w in ((delta.bracket.rho(w).nonzero(),
                                  w.component(Bundle.tangent(base)).nonzero()) for w in ws)]
    d_phis = [db_canonical(lad.sigma_bundle, phi) for phi in functions]
    d_gaps = [delta.predual.d(phi) - d_phi for phi, d_phi in zip(functions, d_phis)]
    d_duals = [lad.lie_derivative.predual.d(phi) for phi in functions]
    tees = {}  # tees[k, t, f] = T_a(phi; t) for a = a_k
    for k, a in enumerate(a_frames):
        aname, a_lift, rho_a = lad.a_bundle.frame[k], lad.sigma_bundle.join(a), lad.rho(a)
        for t, (label_t, w) in enumerate(zip(labels, ws)):
            g, on_v = pair(w, a_lift), t < n_v
            h = (lad.lie_derivative.predual.pair(a, w.component(lad.a_bundle.dual())) if on_v
                 else dual_pair(targets[t].component(Bundle.cotangent(base)), rho_a))
            for f, text in enumerate(texts):
                rho_phi, x_phi = acting[t][f]
                o_part, tee = a_lift.scale(rho_phi) - d_phis[f].scale(g), d_gaps[f].scale(g)
                lin = (pm.apply(o_part) + lad.v_bundle.join(rho_a.scale(-x_phi), d_duals[f].scale(h))
                       if on_v else o_part - a_lift.scale(x_phi) + d_phis[f].scale(h))
                tees[k, t, f] = tee = pm.apply(tee) if on_v else tee
                chk.record("linear-in-a", f"(({text})*{aname}; {label_t})", lin)
                chk.record("derivation-in-t", f"({aname}; ({text})*{label_t})", tee)
    v_frames, s_frames = [targets[p] for p in v_batt.frames], [targets[n_v + p] for p in s_batt.frames]
    images = [ws[n_v + p] for p in s_batt.frames]
    products = [[phi * psi for psi in functions] for phi in functions]
    for k, a in enumerate(a_frames):
        aname, a_lift, rho_a = lad.a_bundle.frame[k], lad.sigma_bundle.join(a), lad.rho(a).nonzero()
        nabla_s = [lad.basic_sigma(delta, a, sigma) for sigma in s_frames]
        defects = [[] for _ in v_frames]  # defects[i][j] = D(a; v_i; sigma_j)
        for i, v in enumerate(v_frames):
            nabla_v = lad.basic_v(delta, a, v)
            for j, (sigma, image) in enumerate(zip(s_frames, images)):
                # Skew(v, (rho,rho*) sigma), paired with (a, 0)
                skew = lad.dull_bracket(delta, v, image) + lad.dull_bracket(delta, image, v)
                value = pair(nabla_v, sigma) + pair(v, nabla_s[j]) + pair(skew, a_lift)
                paired = pair(v, sigma)  # rho(a) of it, less a zero subtrahend
                rhs = vf_apply(base, rho_a, paired) if paired._terms else paired
                defects[i].append(value - rhs if rhs._terms else value)
        # <T_a(phi; v_i), sigma_j> and <v_i, T_a(psi; sigma_j)>
        t_v = [[[pair(tees[k, p, f], sigma) for sigma in s_frames] for f in range(len(texts))]
               for p in v_batt.frames]
        t_s = [[[pair(v, tees[k, n_v + p, g]) for v in v_frames] for g in range(len(texts))]
               for p in s_batt.frames]
        for p, label_v in enumerate(v_batt.labels):
            i, f = v_batt.factors(p)
            for q, label_s in enumerate(s_batt.labels):
                j, g = s_batt.factors(q)
                terms = [(x, y, 1) for x, y in ((products[f][g], defects[i][j]), (
                    functions[g], t_v[i][f][j]), (functions[f], t_s[j][g][i])) if y._terms]
                chk.record("duality-defect", f"({aname}; {label_v}; {label_s})",
                           sum_of_products(base.zero(), terms) if terms else base.zero())
        for j, image in enumerate(images):
            intertwined = lad.basic_v(delta, a, image) - lad.image(nabla_s[j])
            for g, psi in enumerate(functions):
                chk.record("intertwining", f"({aname}; {s_batt.labels[s_batt.pos(j, g)]})",
                           intertwined.scale(psi))
    return chk.report()


def check_basic_curvature(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    chk = Checker("basic-curvature",
                  "tensoriality of R^bas and its two composition identities")
    a_batt, v_batt = lad.a_bundle.battery, lad.v_bundle.battery
    pm = lad.pair_map
    a_frames, a_names = lad.a_bundle.frame_sections(), lad.a_bundle.frame
    v_frames = lad.v_bundle.frame_sections()
    # tensorial-a at (i, j) and tensorial-b at (j, i) scale the same a, so
    # the two read the same Omega, nabla^bas and L terms from the table
    for i, a in enumerate(a_frames):
        for j, b in enumerate(a_frames):
            for m, v in enumerate(v_frames):
                base_val = basic_curvature(lad, delta, a, b, v)
                inputs = f"({a_names[i]}; {a_names[j]}; {lad.v_bundle.frame[m]})"
                for f in range(1, len(a_batt.functions)):
                    text, scaled_val = a_batt.texts[f], base_val.scale(a_batt.functions[f])
                    chk.record("tensorial-a", inputs + f" scale a by {text}", basic_curvature(
                        lad, delta, a_batt.sections[a_batt.pos(i, f)], b, v) - scaled_val)
                    chk.record("tensorial-b", inputs + f" scale b by {text}", basic_curvature(
                        lad, delta, a, a_batt.sections[a_batt.pos(j, f)], v) - scaled_val)
                    chk.record("tensorial-v", inputs + f" scale v by {text}", basic_curvature(
                        lad, delta, a, b, v_batt.sections[v_batt.pos(m, f)]) - scaled_val)
    s_batt = lad.sigma_bundle.battery
    # nabla^bas_a nabla^bas_b t is the first composition term of (a, b, t)
    # and the second of (b, a, t); the table evaluates it once
    for i, a in enumerate(a_frames):
        for j, b in enumerate(a_frames):
            ab = lad.a_bracket(a, b)
            for label_s, sigma in zip(s_batt.labels, s_batt.sections):
                lhs = basic_curvature(lad, delta, a, b, lad.image(sigma))
                rhs = (lad.basic_sigma(delta, a, lad.basic_sigma(delta, b, sigma))
                       - lad.basic_sigma(delta, b, lad.basic_sigma(delta, a, sigma))
                       - lad.basic_sigma(delta, ab, sigma))
                chk.record("curvature-of-basic-sigma", f"({a_names[i]}; {a_names[j]}; {label_s})",
                           lhs - rhs)
            for label_v, v in zip(v_batt.labels, v_batt.sections):
                lhs = pm.apply(basic_curvature(lad, delta, a, b, v))
                rhs = (lad.basic_v(delta, a, lad.basic_v(delta, b, v))
                       - lad.basic_v(delta, b, lad.basic_v(delta, a, v))
                       - lad.basic_v(delta, ab, v))
                chk.record("curvature-of-basic-v", f"({a_names[i]}; {a_names[j]}; {label_v})",
                           lhs - rhs)
    return chk.report()


# -- LA-Dirac triples -------------------------------------------------------


def check_la_dirac(lad: LieAlgebroidData, triple: VBTriple) -> CheckReport:
    """The five LA-Dirac conditions, plus the implied U-preservation.

    (1) K is the annihilator of U; (2) (rho,rho*)(K) in U; (3) the
    restricted dull bracket is a Lie algebroid; (4) nabla^bas preserves
    Gamma(K); (5) the basic curvature maps U into K.  The preservation of
    Gamma(U) by the basic connection is evaluated as well and reported as
    implied by (1)-(4).  The report is computed once per (lad, triple).
    """
    report = lad._la_dirac.get(triple)
    if report is None:
        report = lad._la_dirac[triple] = _la_dirac_conditions(lad, triple)
    return report


def _la_dirac_conditions(lad: LieAlgebroidData, triple: VBTriple) -> CheckReport:
    delta, u_sub, k_sub = triple.delta, triple.u_sub, triple.k_sub
    chk = Checker("la-dirac", "LA-Dirac triple conditions (1)-(5)")
    pm = lad.pair_map

    u_ann = triple.u_annihilator
    for ki, k in enumerate(k_sub.sections):
        chk.record("1-K-is-annihilator", f"k{ki + 1}", u_ann.residual(k))
    chk.require("1-K-is-annihilator", f"rank K = {k_sub.rank}",
                k_sub.rank == u_ann.rank, "rank mismatch with the annihilator of U")

    for ki, k in enumerate(k_sub.sections):
        chk.record("2-pair-map-K-into-U", f"k{ki + 1}", u_sub.residual(pm.apply(k)))

    restricts = True
    for i, u1 in enumerate(u_sub.sections):
        for j, u2 in enumerate(u_sub.sections):
            value = delta.bracket.bracket(u1, u2)
            if not chk.record("3-U-lie-algebroid", f"[[u{i + 1}; u{j + 1}]] in U",
                              u_sub.residual(value)):
                restricts = False
    if restricts and u_sub.rank:
        chk.relay("3-U-lie-algebroid", triple.restricted_bracket.check_lie(triple.seed),
                  "restricted bracket")

    # R^bas(a, b) u reads nabla^bas_a u, which the implied check reads
    # again, and every condition reads rho(a) of the same frame elements
    a_frames, a_names = lad.a_bundle.frame_sections(), lad.a_bundle.frame
    for k_i, k in enumerate(k_sub.sections):
        for a_i, a in enumerate(a_frames):
            for phi, text in lad.base.battery:
                value = lad.basic_sigma(delta, a, k.scale(phi))
                chk.record("4-basic-preserves-K", f"({a_names[a_i]}; ({text})*k{k_i + 1})",
                           k_sub.residual(value))

    for i, a in enumerate(a_frames):
        for j, b in enumerate(a_frames):
            for u_i, u in enumerate(u_sub.sections):
                value = basic_curvature(lad, delta, a, b, u)
                chk.record("5-basic-curvature-into-K", f"({a_names[i]}; {a_names[j]}; u{u_i + 1})",
                           k_sub.residual(value))

    implied_ok = True
    for i, a in enumerate(a_frames):
        for u_i, u in enumerate(u_sub.sections):
            value = lad.basic_v(delta, a, u)
            if not u_sub.contains(value):
                implied_ok = False
                chk.require("implied-basic-preserves-U", f"({a_names[i]}; u{u_i + 1})",
                            False, str(u_sub.residual(value)))
    if implied_ok:
        chk.require("implied-basic-preserves-U", "all frame pairs", True)
    return chk.report()


def check_identity_lemmas(lad: LieAlgebroidData, delta: DorfmanConnection,
                          triple: Optional[VBTriple] = None) -> CheckReport:
    """The basic-connection identity lemmas.

    The first identity is unconditional; the other two assume an LA-Dirac
    triple, so their outcomes are only meaningful alongside the la-dirac
    report (a perturbed connection is expected to break them).
    """
    chk = Checker("identity-lemmas",
                  "nabla^bas vs the Dorfman-like bracket; the mixed pairing identity")
    pm = lad.pair_map
    s_frames = lad.sigma_bundle.frame_sections()
    s_batt = lad.sigma_bundle.battery
    s_parts = [s.component(lad.a_bundle) for s in s_frames]
    images = [lad.image(s2) for s2 in s_batt.sections]
    for i, s1 in enumerate(s_frames):
        for t, (label2, s2) in enumerate(zip(s_batt.labels, s_batt.sections)):
            lhs = lad.basic_sigma(delta, s_parts[i], s2)
            rhs = (-lad.dorfman_like_bracket(s2, s1)
                   + lad.dorfman(delta, images[t], s1))
            chk.record("basic-vs-dorfman-like",
                       f"({lad.sigma_bundle.frame[i]}; {label2})", lhs - rhs)
    if triple is not None:
        frame_images = [pm.apply(tau) for tau in s_frames]
        v_batt = lad.v_bundle.battery
        for label_v, v in zip(v_batt.labels, v_batt.sections):
            # basic[m] = nabla^bas_{pr_A e_m} v, on both sides of the identity
            basic = [lad.basic_v(delta, a, v) for a in s_parts]
            for i, tau in enumerate(s_frames):
                mixed = (pm.apply(lad.dorfman(delta, v, tau))
                         - lad.dull_bracket(delta, v, frame_images[i])
                         - basic[i])
                for j, sigma in enumerate(s_frames):
                    lhs = delta.predual.pair(mixed, sigma)
                    rhs = delta.predual.pair(basic[j], tau)
                    chk.record("mixed-pairing",
                               f"({label_v}; tau={lad.sigma_bundle.frame[i]}; "
                               f"sigma={lad.sigma_bundle.frame[j]})",
                               lhs - rhs if rhs._terms else lhs)
        k_sections = triple.k_sub.sections
        k_images = [pm.apply(k) for k in k_sections]
        k_parts = [k.component(lad.a_bundle) for k in k_sections]
        for u_i, u in enumerate(triple.u_sub.sections):
            for k_i, k in enumerate(k_sections):
                lhs = pm.apply(lad.dorfman(delta, u, k))
                rhs = (lad.dull_bracket(delta, u, k_images[k_i])
                       + lad.basic_v(delta, k_parts[k_i], u))
                chk.record("pair-map-of-closure", f"(u{u_i + 1}; k{k_i + 1})", lhs - rhs)
    else:
        chk.note("mixed-pairing: skipped (no triple supplied)")
    return chk.report()


def k_algebroid(lad: LieAlgebroidData, triple: VBTriple) -> Tuple[Optional[AnchoredBracket], CheckReport]:
    """The induced Lie algebroid on K and the morphism (rho, rho*): K -> U."""
    chk = Checker("k-algebroid",
                  "K with the Dorfman-like bracket is a Lie algebroid mapping into U")
    gate = check_la_dirac(lad, triple)
    if not gate.passed:
        chk.note("precondition la-dirac failed; not applicable")
        return None, chk.report(NOT_APPLICABLE)
    delta, k_sub, u_sub = triple.delta, triple.k_sub, triple.u_sub
    pm = lad.pair_map
    values = [[lad.dorfman_like_bracket(k1, k2) for k2 in k_sub.sections]
              for k1 in k_sub.sections]
    ok = True
    for i, row in enumerate(values):
        for j, value in enumerate(row):
            if not chk.require("bracket-closed", f"[k{i + 1}, k{j + 1}]_D in K",
                               k_sub.contains(value), str(k_sub.residual(value))):
                ok = False
    if not ok:
        return None, chk.report()
    anchors = [lad.rho(k.component(lad.a_bundle)) for k in k_sub.sections]
    k_bracket = AnchoredBracket.induced(k_sub, anchors, values)
    lie = k_bracket.check_lie(triple.seed)
    chk.require("lie", "induced bracket on K", lie.passed,
                "; ".join(w.difference for w in lie.witnesses) or "failed")
    # morphism: anchors match and the pair map intertwines the brackets
    for i, k in enumerate(k_sub.sections):
        chk.record("morphism-anchor", f"k{i + 1}",
                   anchors[i] - pm.apply(k).component(Bundle.tangent(lad.base)))
    for i, k1 in enumerate(k_sub.sections):
        for phi, text in lad.base.battery:
            for j, k2 in enumerate(k_sub.sections):
                lhs = delta.bracket.bracket(pm.apply(k1.scale(phi)), pm.apply(k2))
                rhs = pm.apply(lad.dorfman_like_bracket(k1.scale(phi), k2))
                chk.record("morphism-bracket", f"(({text})*k{i + 1}; k{j + 1})", lhs - rhs)
    return k_bracket, chk.report()


def check_ruth_compat(lad: LieAlgebroidData, delta: DorfmanConnection,
                      triple: VBTriple) -> CheckReport:
    """The two mixed compatibility identities of the LA-Dirac data.

    (1) For u, v in Gamma(U):
        nabla^bas_sigma [[u,v]] - [[nabla^bas_sigma u, v]] - [[u, nabla^bas_sigma v]]
          + nabla^bas_{Delta_u sigma} v - nabla^bas_{Delta_v sigma} u
        = -(rho,rho*) R(u,v) sigma.
    (2) For sigma_1, sigma_2 in Gamma(A+T*M) and u in Gamma(U):
        Delta_u [s1,s2]_D - [Delta_u s1, s2]_D - [s1, Delta_u s2]_D
          + Delta_{nabla^bas_{a1} u} s2 - Delta_{nabla^bas_{a2} u} s1
          + (0, d<s1, nabla^bas_{a2} u>) = -R^bas(a1, a2) u.
    """
    chk = Checker("ruth-compat", "mixed identities tying Delta to the basic data")
    u_secs = triple.u_sub.sections
    pm = lad.pair_map
    s_frames = lad.sigma_bundle.frame_sections()
    names = lad.sigma_bundle.frame
    # a_parts[t] = pr_A s_t over the battery, moved[i][t] = Delta_{u_i} s_t
    # serves both identities, and twice[i][j][t] = Delta_{u_i} Delta_{u_j} s_t
    # is the first term of R(u_i, u_j) s_t and the second of R(u_j, u_i) s_t
    s_batt = lad.sigma_bundle.battery
    a_parts = [s.component(lad.a_bundle) for s in s_batt.sections]
    moved = [[lad.dorfman(delta, u, s) for s in s_batt.sections] for u in u_secs]
    moved_parts = [[value.component(lad.a_bundle) for value in row] for row in moved]
    twice = [[[lad.dorfman(delta, u, s) for s in row] for row in moved] for u in u_secs]
    for i, u in enumerate(u_secs):
        for j, v in enumerate(u_secs):
            uv = lad.dull_bracket(delta, u, v)
            for m in range(len(s_frames)):
                for f, text in enumerate(s_batt.texts):
                    t = s_batt.pos(m, f)
                    a = a_parts[t]
                    lhs = (lad.basic_v(delta, a, uv)
                           - lad.dull_bracket(delta, lad.basic_v(delta, a, u), v)
                           - lad.dull_bracket(delta, u, lad.basic_v(delta, a, v))
                           + lad.basic_v(delta, moved_parts[i][t], v)
                           - lad.basic_v(delta, moved_parts[j][t], u))
                    curvature = (twice[i][j][t] - twice[j][i][t]
                                 - lad.dorfman(delta, uv, s_batt.sections[t]))
                    rhs = -pm.apply(curvature)
                    chk.record("identity-1", f"(u{i + 1}; u{j + 1}; ({text})*{names[m]})",
                               lhs - rhs)
    dlike = [[lad.dorfman_like_bracket(s1, s2) for s2 in s_batt.sections] for s1 in s_frames]
    for u_i, u in enumerate(u_secs):
        for i, (s1, p) in enumerate(zip(s_frames, s_batt.frames)):
            a1 = a_parts[p]
            nb1 = lad.basic_v(delta, a1, u)
            for t, (label2, s2) in enumerate(zip(s_batt.labels, s_batt.sections)):
                nb2 = lad.basic_v(delta, a_parts[t], u)
                lhs = (lad.dorfman(delta, u, dlike[i][t])
                       - lad.dorfman_like_bracket(moved[u_i][p], s2)
                       - lad.dorfman_like_bracket(s1, moved[u_i][t])
                       + lad.dorfman(delta, nb1, s2) - lad.dorfman(delta, nb2, s1)
                       + db_canonical(lad.sigma_bundle, delta.predual.pair(nb2, s1)))
                rhs = -basic_curvature(lad, delta, a1, a_parts[t], u)
                chk.record("identity-2", f"(u{u_i + 1}; {names[i]}; {label2})", lhs - rhs)
    return chk.report()
