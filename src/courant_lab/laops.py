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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

from .algebroid import AnchoredBracket, battery_sections
from .bundle import (Bundle, BundleError, HomSection, Section,
                     battery_functions, courant_dorfman_form_part,
                     db_canonical, dual_pair, lie_derivative_form, vf_apply,
                     vf_bracket)
from .dirac import VBTriple
from .dorfman import DorfmanConnection
from .report import Checker, CheckReport, NOT_APPLICABLE


@dataclass
class LieAlgebroidData:
    """A Lie algebroid together with the pair map (rho, rho*)."""

    bracket: AnchoredBracket
    lie_report: Optional[CheckReport] = field(repr=False, default=None)

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

    def pair_map(self) -> HomSection:
        """(rho, rho*): A + T*M -> TM + A*, assembled blockwise."""
        src, tgt = self.sigma_bundle, self.v_bundle
        anchor = self.bracket.anchor.matrix
        n, r = self.base.dim, self.a_bundle.rank
        zero = self.base.zero()
        matrix = [[zero] * src.rank for _ in range(tgt.rank)]
        a_sl = src.atom_slice(src.atom_index("V"))
        th_sl = src.atom_slice(src.atom_index("T*M"))
        tm_sl = tgt.atom_slice(tgt.atom_index("TM"))
        as_sl = tgt.atom_slice(tgt.atom_index("V*"))
        for l in range(n):
            for k in range(r):
                matrix[tm_sl.start + l][a_sl.start + k] = anchor[l][k]
                # <rho* theta, e_k> = <theta, rho(e_k)>
                matrix[as_sl.start + k][th_sl.start + l] = anchor[l][k]
        return HomSection(src, tgt, matrix)

    # -- section builders ---------------------------------------------

    def to_sigma(self, a: Optional[Section] = None, theta: Optional[Section] = None) -> Section:
        out = self.sigma_bundle.zero_section()
        if a is not None:
            out = out.with_part(self.sigma_bundle.atom_index("V"), a.coeffs)
        if theta is not None:
            out = out.with_part(self.sigma_bundle.atom_index("T*M"), theta.coeffs)
        return out

    def to_v(self, x: Optional[Section] = None, xi: Optional[Section] = None) -> Section:
        out = self.v_bundle.zero_section()
        if x is not None:
            out = out.with_part(self.v_bundle.atom_index("TM"), x.coeffs)
        if xi is not None:
            out = out.with_part(self.v_bundle.atom_index("V*"), xi.coeffs)
        return out

    def a_part(self, sigma: Section) -> Section:
        return Section(self.a_bundle, sigma.part(self.sigma_bundle.atom_index("V")))

    def theta_part(self, sigma: Section) -> Section:
        return Section(Bundle.cotangent(self.base),
                       sigma.part(self.sigma_bundle.atom_index("T*M")))

    def x_part(self, v: Section) -> Section:
        return Section(Bundle.tangent(self.base), v.part(self.v_bundle.atom_index("TM")))

    def xi_part(self, v: Section) -> Section:
        return Section(self.a_bundle.dual(), v.part(self.v_bundle.atom_index("V*")))


# -- the Omega map and the Lie derivatives ------------------------------


def omega(lad: LieAlgebroidData, delta: DorfmanConnection, v: Section, a: Section) -> Section:
    """Omega_v a = Delta_v (a, 0) - (0, d<xi, a>)."""
    sigma = lad.to_sigma(a=a)
    pairing = delta.predual.pair(v, sigma)
    return delta.apply(v, sigma) - db_canonical(lad.sigma_bundle, pairing)


def lie_der_sigma(lad: LieAlgebroidData, a: Section, sigma: Section) -> Section:
    """L_a (b, theta) = ([a, b], L_{rho(a)} theta)."""
    b = lad.a_part(sigma)
    theta = lad.theta_part(sigma)
    return lad.to_sigma(a=lad.bracket.bracket(a, b),
                        theta=lie_derivative_form(lad.bracket.rho(a), theta))


def lie_der_v(lad: LieAlgebroidData, a: Section, v: Section) -> Section:
    """L_a (X, xi) = ([rho(a), X], L_a xi), <L_a xi, b> = rho(a)<xi,b> - <xi,[a,b]>."""
    x = lad.x_part(v)
    xi = lad.xi_part(v)
    comps = []
    for k, ek in enumerate(lad.a_bundle.frame_sections()):
        value = lad.bracket.rho_d(a, xi.coeffs[k])
        value = value - dual_pair(xi, lad.bracket.bracket(a, ek))
        comps.append(value)
    new_xi = Section(lad.a_bundle.dual(), tuple(comps))
    return lad.to_v(x=vf_bracket(lad.bracket.rho(a), x), xi=new_xi)


def dorfman_like_bracket(lad: LieAlgebroidData, s1: Section, s2: Section) -> Section:
    """[(a,theta),(b,omega)]_D = ([a,b], L_{rho(a)} omega - i_{rho(b)} d theta)."""
    a, theta = lad.a_part(s1), lad.theta_part(s1)
    b, omg = lad.a_part(s2), lad.theta_part(s2)
    coords = lad.base.coords
    form = courant_dorfman_form_part(lad.bracket.rho(a).coeffs, theta.coeffs,
                                     lad.bracket.rho(b).coeffs, omg.coeffs, coords)
    return lad.to_sigma(a=lad.bracket.bracket(a, b),
                        theta=Section(Bundle.cotangent(lad.base), tuple(form)))


def check_dlike(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    """Symmetrization and Leibniz-Jacobi identities of the bracket on A + T*M."""
    chk = Checker("dorfman-like", "symmetrized bracket is exact; Jacobi in Leibniz form")
    pm = lad.pair_map()
    batt = battery_sections(lad.sigma_bundle)
    for label1, s1 in batt:
        for label2, s2 in batt:
            lhs = (dorfman_like_bracket(lad, s1, s2) + dorfman_like_bracket(lad, s2, s1))
            pairing = delta.predual.pair(pm.apply(s2), s1)
            rhs = db_canonical(lad.sigma_bundle, pairing)
            chk.record("symmetrization", f"({label1}; {label2})", lhs - rhs)
    frames = lad.sigma_bundle.frame_sections()
    names = lad.sigma_bundle.frame
    for i, s1 in enumerate(frames):
        for j, s2 in enumerate(frames):
            for label3, s3 in batt:
                lhs = dorfman_like_bracket(lad, s1, dorfman_like_bracket(lad, s2, s3))
                rhs = (dorfman_like_bracket(lad, dorfman_like_bracket(lad, s1, s2), s3)
                       + dorfman_like_bracket(lad, s2, dorfman_like_bracket(lad, s1, s3)))
                chk.record("jacobi-leibniz", f"({names[i]}; {names[j]}; {label3})", lhs - rhs)
    return chk.report()


# -- basic connections ----------------------------------------------------


def basic_v(lad: LieAlgebroidData, delta: DorfmanConnection, a: Section, v: Section) -> Section:
    """nabla^bas_a v = (rho,rho*)(Omega_v a) + L_a v on TM + A*."""
    return lad.pair_map().apply(omega(lad, delta, v, a)) + lie_der_v(lad, a, v)


def basic_sigma(lad: LieAlgebroidData, delta: DorfmanConnection,
                a: Section, sigma: Section) -> Section:
    """nabla^bas_a sigma = Omega_{(rho,rho*) sigma} a + L_a sigma on A + T*M."""
    return (omega(lad, delta, lad.pair_map().apply(sigma), a)
            + lie_der_sigma(lad, a, sigma))


def basic_any(lad: LieAlgebroidData, delta: DorfmanConnection,
              a: Section, t: Section) -> Section:
    if t.bundle == lad.v_bundle:
        return basic_v(lad, delta, a, t)
    if t.bundle == lad.sigma_bundle:
        return basic_sigma(lad, delta, a, t)
    raise BundleError("basic connection acts on TM+A* or A+T*M sections")


def check_omega_properties(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    chk = Checker("omega", "scaling properties of the Omega map")
    functions = battery_functions(lad.base)
    v_frames = lad.v_bundle.frame_sections()
    a_frames = lad.a_bundle.frame_sections()
    for i, v in enumerate(v_frames):
        vname = lad.v_bundle.frame[i]
        for k, a in enumerate(a_frames):
            base_val = omega(lad, delta, v, a)
            aname = lad.a_bundle.frame[k]
            for phi in functions:
                chk.record("homogeneous-in-v", f"(({phi})*{vname}; {aname})",
                           omega(lad, delta, v.scale(phi), a) - base_val.scale(phi))
                x = lad.x_part(v)
                xi = lad.xi_part(v)
                correction = (lad.to_sigma(a=a).scale(vf_apply(lad.base.coords, x.coeffs, phi))
                              - db_canonical(lad.sigma_bundle, phi).scale(dual_pair(xi, a)))
                chk.record("derivation-in-a", f"({vname}; ({phi})*{aname})",
                           omega(lad, delta, v, a.scale(phi))
                           - base_val.scale(phi) - correction)
    return chk.report()


def check_basic_identities(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    """Connection laws plus the duality defect and intertwining identities."""
    chk = Checker("basic-connections",
                  "basic connections: linearity, derivation law, duality defect, intertwining")
    functions = battery_functions(lad.base)
    pm = lad.pair_map()
    a_frames = lad.a_bundle.frame_sections()
    v_batt = battery_sections(lad.v_bundle)
    s_batt = battery_sections(lad.sigma_bundle)
    for k, a in enumerate(a_frames):
        aname = lad.a_bundle.frame[k]
        for label_t, t in v_batt + s_batt:
            base_val = basic_any(lad, delta, a, t)
            for phi in functions:
                chk.record("linear-in-a", f"(({phi})*{aname}; {label_t})",
                           basic_any(lad, delta, a.scale(phi), t) - base_val.scale(phi))
                chk.record("derivation-in-t", f"({aname}; ({phi})*{label_t})",
                           basic_any(lad, delta, a, t.scale(phi))
                           - base_val.scale(phi)
                           - t.scale(lad.bracket.rho_d(a, phi)))
    for k, a in enumerate(a_frames):
        aname = lad.a_bundle.frame[k]
        for label_v, v in v_batt:
            for label_s, sigma in s_batt:
                lhs = (delta.predual.pair(basic_v(lad, delta, a, v), sigma)
                       + delta.predual.pair(v, basic_sigma(lad, delta, a, sigma)))
                rhs = (lad.bracket.rho_d(a, delta.predual.pair(v, sigma))
                       - delta.skew_pair(v, pm.apply(sigma), a))
                chk.record("duality-defect", f"({aname}; {label_v}; {label_s})", lhs - rhs)
        for label_s, sigma in s_batt:
            chk.record("intertwining", f"({aname}; {label_s})",
                       basic_v(lad, delta, a, pm.apply(sigma))
                       - pm.apply(basic_sigma(lad, delta, a, sigma)))
    return chk.report()


def basic_curvature(lad: LieAlgebroidData, delta: DorfmanConnection,
                    a: Section, b: Section, v: Section) -> Section:
    return (-omega(lad, delta, v, lad.bracket.bracket(a, b))
            + lie_der_sigma(lad, a, omega(lad, delta, v, b))
            - lie_der_sigma(lad, b, omega(lad, delta, v, a))
            + omega(lad, delta, basic_v(lad, delta, b, v), a)
            - omega(lad, delta, basic_v(lad, delta, a, v), b))


def check_basic_curvature(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    chk = Checker("basic-curvature",
                  "tensoriality of R^bas and its two composition identities")
    functions = battery_functions(lad.base)
    pm = lad.pair_map()
    a_frames = lad.a_bundle.frame_sections()
    v_frames = lad.v_bundle.frame_sections()
    for i, a in enumerate(a_frames):
        for j, b in enumerate(a_frames):
            for m, v in enumerate(v_frames):
                base_val = basic_curvature(lad, delta, a, b, v)
                inputs = f"(a{i + 1}; a{j + 1}; v{m + 1})"
                for phi in functions[1:]:
                    chk.record("tensorial-a", inputs + f" scale a by {phi}",
                               basic_curvature(lad, delta, a.scale(phi), b, v)
                               - base_val.scale(phi))
                    chk.record("tensorial-b", inputs + f" scale b by {phi}",
                               basic_curvature(lad, delta, a, b.scale(phi), v)
                               - base_val.scale(phi))
                    chk.record("tensorial-v", inputs + f" scale v by {phi}",
                               basic_curvature(lad, delta, a, b, v.scale(phi))
                               - base_val.scale(phi))
    for i, a in enumerate(a_frames):
        for j, b in enumerate(a_frames):
            for label_s, sigma in battery_sections(lad.sigma_bundle):
                lhs = basic_curvature(lad, delta, a, b, pm.apply(sigma))
                rhs = (basic_sigma(lad, delta, a, basic_sigma(lad, delta, b, sigma))
                       - basic_sigma(lad, delta, b, basic_sigma(lad, delta, a, sigma))
                       - basic_sigma(lad, delta, lad.bracket.bracket(a, b), sigma))
                chk.record("curvature-of-basic-sigma", f"(a{i + 1}; a{j + 1}; {label_s})",
                           lhs - rhs)
            for label_v, v in battery_sections(lad.v_bundle):
                lhs = pm.apply(basic_curvature(lad, delta, a, b, v))
                rhs = (basic_v(lad, delta, a, basic_v(lad, delta, b, v))
                       - basic_v(lad, delta, b, basic_v(lad, delta, a, v))
                       - basic_v(lad, delta, lad.bracket.bracket(a, b), v))
                chk.record("curvature-of-basic-v", f"(a{i + 1}; a{j + 1}; {label_v})",
                           lhs - rhs)
    return chk.report()


# -- LA-Dirac triples -------------------------------------------------------


def check_la_dirac(lad: LieAlgebroidData, triple: VBTriple) -> CheckReport:
    """The five LA-Dirac conditions, plus the implied U-preservation.

    (1) K is the annihilator of U; (2) (rho,rho*)(K) in U; (3) the
    restricted dull bracket is a Lie algebroid; (4) nabla^bas preserves
    Gamma(K); (5) the basic curvature maps U into K.  The preservation of
    Gamma(U) by the basic connection is evaluated as well and reported as
    implied by (1)-(4).
    """
    delta, u_sub, k_sub = triple.delta, triple.u_sub, triple.k_sub
    chk = Checker("la-dirac", "LA-Dirac triple conditions (1)-(5)")
    pm = lad.pair_map()
    functions = battery_functions(lad.base)

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
        lie = delta.bracket.restrict(u_sub).check_lie()
        for witness in lie.witnesses:
            chk.require("3-U-lie-algebroid", witness.inputs, False, witness.difference)
        if lie.passed:
            chk.require("3-U-lie-algebroid", "restricted bracket", True)

    for k_i, k in enumerate(k_sub.sections):
        for a_i, a in enumerate(lad.a_bundle.frame_sections()):
            for phi in functions:
                value = basic_sigma(lad, delta, a, k.scale(phi))
                chk.record("4-basic-preserves-K", f"(a{a_i + 1}; ({phi})*k{k_i + 1})",
                           k_sub.residual(value))

    a_frames = lad.a_bundle.frame_sections()
    for i, a in enumerate(a_frames):
        for j, b in enumerate(a_frames):
            for u_i, u in enumerate(u_sub.sections):
                value = basic_curvature(lad, delta, a, b, u)
                chk.record("5-basic-curvature-into-K", f"(a{i + 1}; a{j + 1}; u{u_i + 1})",
                           k_sub.residual(value))

    implied_ok = True
    for i, a in enumerate(a_frames):
        for u_i, u in enumerate(u_sub.sections):
            value = basic_v(lad, delta, a, u)
            if not u_sub.contains(value):
                implied_ok = False
                chk.require("implied-basic-preserves-U", f"(a{i + 1}; u{u_i + 1})",
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
    pm = lad.pair_map()
    s_frames = lad.sigma_bundle.frame_sections()
    s_batt = battery_sections(lad.sigma_bundle)
    for i, s1 in enumerate(s_frames):
        for label2, s2 in s_batt:
            lhs = basic_sigma(lad, delta, lad.a_part(s1), s2)
            rhs = (-dorfman_like_bracket(lad, s2, s1)
                   + delta.apply(pm.apply(s2), s1))
            chk.record("basic-vs-dorfman-like",
                       f"({lad.sigma_bundle.frame[i]}; {label2})", lhs - rhs)
    if triple is not None:
        for label_v, v in battery_sections(lad.v_bundle):
            for i, tau in enumerate(s_frames):
                for j, sigma in enumerate(s_frames):
                    lhs = delta.predual.pair(
                        pm.apply(delta.apply(v, tau))
                        - delta.bracket.bracket(v, pm.apply(tau))
                        - basic_v(lad, delta, lad.a_part(tau), v), sigma)
                    rhs = delta.predual.pair(basic_v(lad, delta, lad.a_part(sigma), v), tau)
                    chk.record("mixed-pairing",
                               f"({label_v}; tau={lad.sigma_bundle.frame[i]}; "
                               f"sigma={lad.sigma_bundle.frame[j]})", lhs - rhs)
        for u_i, u in enumerate(triple.u_sub.sections):
            for k_i, k in enumerate(triple.k_sub.sections):
                lhs = pm.apply(delta.apply(u, k))
                rhs = (delta.bracket.bracket(u, pm.apply(k))
                       + basic_v(lad, delta, lad.a_part(k), u))
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
    pm = lad.pair_map()
    k_bundle = k_sub.as_bundle()
    tangent = Bundle.tangent(lad.base)
    anchor_cols = [lad.bracket.rho(lad.a_part(k)) for k in k_sub.sections]
    anchor = HomSection(k_bundle, tangent,
                        [[col.coeffs[i] for col in anchor_cols]
                         for i in range(tangent.rank)])
    table = []
    ok = True
    for i, k1 in enumerate(k_sub.sections):
        row = []
        for j, k2 in enumerate(k_sub.sections):
            value = dorfman_like_bracket(lad, k1, k2)
            if not chk.require("bracket-closed", f"[k{i + 1}, k{j + 1}]_D in K",
                               k_sub.contains(value), str(k_sub.residual(value))):
                ok = False
                row.append(k_bundle.zero_section())
            else:
                row.append(Section(k_bundle, tuple(k_sub.coords(value))))
        table.append(row)
    if not ok:
        return None, chk.report()
    k_bracket = AnchoredBracket(k_bundle, anchor, table)
    lie = k_bracket.check_lie()
    chk.require("lie", "induced bracket on K", lie.passed,
                "; ".join(w.difference for w in lie.witnesses) or "failed")
    # morphism: anchors match and the pair map intertwines the brackets
    for i, k in enumerate(k_sub.sections):
        chk.record("morphism-anchor", f"k{i + 1}",
                   lad.bracket.rho(lad.a_part(k)) - lad.x_part(pm.apply(k)))
    for i, k1 in enumerate(k_sub.sections):
        for phi in battery_functions(lad.base):
            for j, k2 in enumerate(k_sub.sections):
                lhs = delta.bracket.bracket(pm.apply(k1.scale(phi)), pm.apply(k2))
                rhs = pm.apply(dorfman_like_bracket(lad, k1.scale(phi), k2))
                chk.record("morphism-bracket", f"(({phi})*k{i + 1}; k{j + 1})", lhs - rhs)
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
    u_sub = triple.u_sub
    pm = lad.pair_map()
    s_frames = lad.sigma_bundle.frame_sections()
    functions = battery_functions(lad.base)
    for i, u in enumerate(u_sub.sections):
        for j, v in enumerate(u_sub.sections):
            for m, sigma in enumerate(s_frames):
                for phi in functions:
                    sig = sigma.scale(phi)
                    lhs = (basic_v(lad, delta, lad.a_part(sig),
                                   delta.bracket.bracket(u, v))
                           - delta.bracket.bracket(basic_v(lad, delta, lad.a_part(sig), u), v)
                           - delta.bracket.bracket(u, basic_v(lad, delta, lad.a_part(sig), v))
                           + basic_v(lad, delta, lad.a_part(delta.apply(u, sig)), v)
                           - basic_v(lad, delta, lad.a_part(delta.apply(v, sig)), u))
                    rhs = -pm.apply(delta.curvature_raw(u, v, sig))
                    chk.record("identity-1",
                               f"(u{i + 1}; u{j + 1}; ({phi})*{lad.sigma_bundle.frame[m]})",
                               lhs - rhs)
    for u_i, u in enumerate(u_sub.sections):
        for i, s1 in enumerate(s_frames):
            for label2, s2 in battery_sections(lad.sigma_bundle):
                a1 = lad.a_part(s1)
                a2 = lad.a_part(s2)
                nb1 = basic_v(lad, delta, a1, u)
                nb2 = basic_v(lad, delta, a2, u)
                lhs = (delta.apply(u, dorfman_like_bracket(lad, s1, s2))
                       - dorfman_like_bracket(lad, delta.apply(u, s1), s2)
                       - dorfman_like_bracket(lad, s1, delta.apply(u, s2))
                       + delta.apply(nb1, s2) - delta.apply(nb2, s1)
                       + db_canonical(lad.sigma_bundle, delta.predual.pair(nb2, s1)))
                rhs = -basic_curvature(lad, delta, a1, a2, u)
                chk.record("identity-2",
                           f"(u{u_i + 1}; {lad.sigma_bundle.frame[i]}; {label2})", lhs - rhs)
    return chk.report()
