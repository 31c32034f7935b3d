"""Brute-force total-space models: the geometric oracle.

Everything the algebraic modules claim about a Dorfman connection is
re-derived here on the total space of the bundle: functions on E become
polynomials in base and fiber variables, linear and core sections of
TE + T*E are materialized componentwise, and the Courant-Dorfman calculus
runs in full (n+r)-dimensional coordinates.  Agreement of the two routes
is the package's master invariant.

Sign conventions, fixed once: the two-form of a one-form theta is
evaluated as d theta(v, w) = v(theta(w)) - w(theta(v)) - theta([v, w]);
the pullback canonical two-form used below is exactly this differential
of sigma* theta_can, which makes omega(X~, e^) = -q*<sigma e, X> hold on
the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .algebroid import battery_sections
from .bundle import (Bundle, BundleError, HomSection, Section, SubBundle,
                     battery_functions, courant_dorfman_form_part, dual_pair,
                     lie_derivative_form, two_form_of_oneform, vf_apply,
                     vf_bracket, vf_bracket_comps)
from .dirac import VBTriple, check_dirac, dirac_verdicts
from .dorfman import Connection, DorfmanConnection
from .laops import (LieAlgebroidData, basic_curvature, basic_v, basic_sigma,
                    lie_der_sigma, lie_der_v, omega)
from .poly import ScalarPoly
from .report import Checker, CheckReport


@dataclass(frozen=True)
class TotalPatch:
    """Coordinates (x, y) on the total space of a trivialized bundle."""

    base_coords: Tuple[str, ...]
    fiber_coords: Tuple[str, ...]

    @property
    def allvars(self) -> Tuple[str, ...]:
        return self.base_coords + self.fiber_coords

    @property
    def dim(self) -> int:
        return len(self.allvars)

    def embed(self, phi: ScalarPoly) -> ScalarPoly:
        return phi.extend(self.allvars)

    def zero(self) -> ScalarPoly:
        return ScalarPoly.zero(self.allvars)

    def one(self) -> ScalarPoly:
        return ScalarPoly.one(self.allvars)

    def fiber(self, k: int) -> ScalarPoly:
        return ScalarPoly.var(self.allvars, self.fiber_coords[k])


def total_patch_of(bundle: Bundle, prefix: str = "y") -> TotalPatch:
    fibers = tuple(f"{prefix}{k + 1}" for k in range(bundle.rank))
    clash = set(fibers) & set(bundle.patch.coords)
    if clash:
        raise BundleError(f"fiber names collide with base coordinates: {clash}")
    return TotalPatch(bundle.patch.coords, fibers)


class LiftedSection:
    """A section of TE + T*E over E: a vector field and a 1-form in (x, y)."""

    __slots__ = ("total", "vf", "form")

    def __init__(self, total: TotalPatch, vf: Sequence[ScalarPoly],
                 form: Sequence[ScalarPoly]):
        if len(vf) != total.dim or len(form) != total.dim:
            raise BundleError("component count must match the total dimension")
        self.total = total
        self.vf = tuple(vf)
        self.form = tuple(form)

    def __add__(self, other: "LiftedSection") -> "LiftedSection":
        return LiftedSection(self.total,
                             [a + b for a, b in zip(self.vf, other.vf)],
                             [a + b for a, b in zip(self.form, other.form)])

    def __sub__(self, other: "LiftedSection") -> "LiftedSection":
        return LiftedSection(self.total,
                             [a - b for a, b in zip(self.vf, other.vf)],
                             [a - b for a, b in zip(self.form, other.form)])

    def __neg__(self) -> "LiftedSection":
        return LiftedSection(self.total, [-a for a in self.vf], [-a for a in self.form])

    def scale(self, factor: ScalarPoly) -> "LiftedSection":
        return LiftedSection(self.total, [factor * a for a in self.vf],
                             [factor * a for a in self.form])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.vf) and all(c.is_zero() for c in self.form)

    def __str__(self) -> str:
        names = self.total.allvars
        vf = " + ".join(f"({c})*d/d{v}" for c, v in zip(self.vf, names) if not c.is_zero())
        fm = " + ".join(f"({c})*d{v}" for c, v in zip(self.form, names) if not c.is_zero())
        return f"({vf or '0'}; {fm or '0'})"


# -- lifts -------------------------------------------------------------------


def lift_core(tp: TotalPatch, sigma: Section) -> LiftedSection:
    """(f, theta)^ : vertical part f_k(x) d/dy_k plus the pullback form."""
    b = sigma.bundle
    base = b.patch
    e_part = sigma.part(b.atom_index("V"))
    th_part = sigma.part(b.atom_index("T*M"))
    n = base.dim
    vf = [tp.zero()] * n + [tp.embed(c) for c in e_part]
    form = [tp.embed(c) for c in th_part] + [tp.zero()] * len(tp.fiber_coords)
    return LiftedSection(tp, vf, form)


def lift_linear(tp: TotalPatch, delta: DorfmanConnection, v: Section) -> LiftedSection:
    """The horizontal lift of v = (X, xi) through the connection.

    Evaluated on the tautological section with frozen fiber values:
    tangent part T e X minus the vertical lift of Delta_v(e, 0), cotangent
    part d l_xi minus the pullback of the T*M-component.
    """
    q, b = delta.q, delta.b
    base = q.patch
    n, r = base.dim, len(tp.fiber_coords)
    x_part = v.part(q.atom_index("TM"))
    xi_part = v.part(q.atom_index("V*"))
    e_idx, th_idx = b.atom_index("V"), b.atom_index("T*M")
    e_frames = [b.frame_section(j) for j in range(*_slice_indices(b, e_idx))]

    vf = [tp.embed(c) for c in x_part] + [tp.zero()] * r
    form = [tp.zero()] * (n + r)
    # d l_xi = sum d_i xi_k y_k dx_i + xi_k dy_k
    for k in range(r):
        xk = tp.embed(xi_part[k])
        form[n + k] = form[n + k] + xk
        for i in range(n):
            form[i] = form[i] + tp.embed(xi_part[k].partial(base.coords[i])) * tp.fiber(k)
    # - Delta_v(e, 0)^ with e the tautological section
    for l, ef in enumerate(e_frames):
        value = delta.apply(v, ef)
        e_out = value.part(e_idx)
        th_out = value.part(th_idx)
        yl = tp.fiber(l)
        for k in range(r):
            vf[n + k] = vf[n + k] - tp.embed(e_out[k]) * yl
        for i in range(n):
            form[i] = form[i] - tp.embed(th_out[i]) * yl
    return LiftedSection(tp, vf, form)


def _slice_indices(bundle: Bundle, atom_idx: int) -> Tuple[int, int]:
    sl = bundle.atom_slice(atom_idx)
    return sl.start, sl.stop


def vertical_hom(tp: TotalPatch, delta: DorfmanConnection, hom: HomSection) -> LiftedSection:
    """Phi^ for Phi: E -> E + T*M, evaluated on the tautological section."""
    b = delta.b
    e_idx, th_idx = b.atom_index("V"), b.atom_index("T*M")
    n, r = len(tp.base_coords), len(tp.fiber_coords)
    vf = [tp.zero()] * (n + r)
    form = [tp.zero()] * (n + r)
    for l in range(hom.source.rank):
        value = hom.column(l)
        e_out = value.part(e_idx)
        th_out = value.part(th_idx)
        yl = tp.fiber(l)
        for k in range(r):
            vf[n + k] = vf[n + k] + tp.embed(e_out[k]) * yl
        for i in range(n):
            form[i] = form[i] + tp.embed(th_out[i]) * yl
    return LiftedSection(tp, vf, form)


# -- total-space Courant calculus --------------------------------------------


def total_pairing(s1: LiftedSection, s2: LiftedSection) -> ScalarPoly:
    total = s1.total.zero()
    for a, b in zip(s1.form, s2.vf):
        total = total + a * b
    for a, b in zip(s2.form, s1.vf):
        total = total + a * b
    return total


def total_courant(s1: LiftedSection, s2: LiftedSection) -> LiftedSection:
    vars_ = s1.total.allvars
    vf = vf_bracket_comps(vars_, s1.vf, s2.vf)
    form = courant_dorfman_form_part(s1.vf, s1.form, s2.vf, s2.form, vars_)
    return LiftedSection(s1.total, vf, form)


# -- the splitting theorems ---------------------------------------------------


def verify_splitting_theorems(delta: DorfmanConnection) -> CheckReport:
    """Total-space verification of the six pairing/bracket identities.

    (P1) <v1~, v2~> = l_{Skew(v1,v2)};  (P2) <v~, sigma^> = q*<v, sigma>;
    (P3) <sigma1^, sigma2^> = 0;  (B1) [sigma1^, sigma2^] = 0;
    (B2) [v~, sigma^] = (Delta_v sigma)^;
    (B3) [v1~, v2~] = [[v1,v2]]~ - R(v1,v2)(., 0)^.
    """
    chk = Checker("splitting-theorems",
                  "lifted sections reproduce the connection calculus exactly")
    e_bundle = _e_bundle(delta)
    tp = total_patch_of(e_bundle)
    q, b = delta.q, delta.b
    functions = battery_functions(q.patch)
    q_frames = q.frame_sections()
    b_frames = b.frame_sections()
    e_idx = b.atom_index("V")

    lifts = {}
    for i, v in enumerate(q_frames):
        lifts[i] = lift_linear(tp, delta, v)

    for i, v1 in enumerate(q_frames):
        for j, v2 in enumerate(q_frames):
            skew = delta.skew_symmetrization(v1, v2)
            # l of the E*-part of the symmetrization
            es_part = skew.part(q.atom_index("V*"))
            ell = tp.zero()
            for k, c in enumerate(es_part):
                ell = ell + tp.embed(c) * tp.fiber(k)
            chk.record("pairing-linear-linear", f"({q.frame[i]}; {q.frame[j]})",
                       total_pairing(lifts[i], lifts[j]) - ell)
    for i, v in enumerate(q_frames):
        for label_s, s in battery_sections(b):
            chk.record("pairing-linear-core", f"({q.frame[i]}; {label_s})",
                       total_pairing(lifts[i], lift_core(tp, s))
                       - tp.embed(delta.predual.pair(v, s)))
    for label1, s1 in battery_sections(b):
        for label2, s2 in battery_sections(b):
            c1, c2 = lift_core(tp, s1), lift_core(tp, s2)
            chk.record("pairing-core-core", f"({label1}; {label2})",
                       total_pairing(c1, c2))
            chk.record("bracket-core-core", f"({label1}; {label2})",
                       total_courant(c1, c2))
    for i, v in enumerate(q_frames):
        for phi in functions:
            lifted_v = lifts[i].scale(tp.embed(phi))
            scaled_v = v.scale(phi)
            for label_s, s in battery_sections(b):
                lhs = total_courant(lifted_v, lift_core(tp, s))
                rhs = lift_core(tp, delta.apply(scaled_v, s))
                chk.record("bracket-linear-core", f"(({phi})*{q.frame[i]}; {label_s})",
                           lhs - rhs)
    for i, v1 in enumerate(q_frames):
        for j, v2 in enumerate(q_frames):
            lhs = total_courant(lifts[i], lifts[j])
            dull = delta.bracket.bracket(v1, v2)
            hom_full = delta.curvature(v1, v2)
            e_cols = [hom_full.apply(b_frames[m])
                      for m in range(*_slice_indices(b, e_idx))]
            correction = vertical_hom(tp, delta, HomSection.from_columns(e_bundle, e_cols))
            rhs = lift_linear(tp, delta, dull) - correction
            chk.record("bracket-linear-linear", f"({q.frame[i]}; {q.frame[j]})",
                       lhs - rhs)
    # intermediate l-calculus: X~(l_eta) is the linear function of the
    # section with <psi, e> = X<eta, e> - <eta, pr_E Delta_v(e, 0)>
    es_bundle = e_bundle.dual()
    for i, v in enumerate(q_frames):
        x_lift = lifts[i].vf
        for label_eta, eta in battery_sections(es_bundle):
            ell = tp.zero()
            for k in range(es_bundle.rank):
                ell = ell + tp.embed(eta.coeffs[k]) * tp.fiber(k)
            lhs = vf_apply(tp.allvars, x_lift, ell)
            rhs = tp.zero()
            for l in range(e_bundle.rank):
                ef = b.frame_section(b.atom_slice(e_idx).start + l)
                paired = tp.embed(
                    delta.bracket.rho_d(v, dual_pair(eta, Section(
                        e_bundle, ef.part(e_idx))))
                    - dual_pair(eta, Section(e_bundle,
                                              delta.apply(v, ef).part(e_idx))))
                rhs = rhs + paired * tp.fiber(l)
            chk.record("ell-calculus", f"({q.frame[i]}; {label_eta})", lhs - rhs)
    return chk.report()


def _e_bundle(delta: DorfmanConnection) -> Bundle:
    b = delta.b
    atom = b.atoms[b.atom_index("V")]
    return Bundle(b.patch, (atom,))


# -- geometric Dirac check -----------------------------------------------------


def check_geometric_dirac(triple: VBTriple) -> CheckReport:
    """Span D on the total space and check it is Dirac there directly.

    Spanning sections: core lifts of the K-frame and linear lifts of the
    U-frame.  Closure under the total-space bracket is decided by the
    structured decomposition linear + core + residual, using that the
    (d/dx, dy) components of a lifted section recover its U-part.
    """
    chk = Checker("geometric-dirac", "total-space isotropy, rank and bracket closure")
    delta, u_sub, k_sub = triple.delta, triple.u_sub, triple.k_sub
    e_bundle = _e_bundle(delta)
    tp = total_patch_of(e_bundle)
    n, r = len(tp.base_coords), len(tp.fiber_coords)

    u_lifts = [lift_linear(tp, delta, u) for u in u_sub.sections]
    k_lifts = [lift_core(tp, k) for k in k_sub.sections]
    spanning = [(f"u{i + 1}~", s) for i, s in enumerate(u_lifts)] + \
               [(f"k{j + 1}^", s) for j, s in enumerate(k_lifts)]

    chk.require("rank", f"{u_sub.rank} + {k_sub.rank} vs dim E = {n + r}",
                u_sub.rank + k_sub.rank == n + r,
                "spanning count does not match dim E")
    for name1, s1 in spanning:
        for name2, s2 in spanning:
            chk.record("isotropic", f"({name1}; {name2})", total_pairing(s1, s2))

    decomposer = _LiftedDecomposer(tp, delta, u_sub, k_sub)
    for name1, s1 in spanning:
        for name2, s2 in spanning:
            residual = decomposer.residual(total_courant(s1, s2))
            chk.record("closure", f"[{name1}, {name2}]", residual)

    verdicts = dirac_verdicts(check_dirac(triple))
    geometric = (chk.sub_passed("rank") and chk.sub_passed("isotropic")
                 and chk.sub_passed("closure"))
    chk.note(f"verdict geometric-dirac: {geometric}")
    chk.require("matches-algebraic", f"algebraic dirac = {verdicts.get('dirac')}",
                verdicts.get("dirac") == geometric,
                "algebraic and geometric verdicts differ")
    return chk.report()


class _LiftedDecomposer:
    """Membership of a lifted section in the module spanned by D's frames."""

    def __init__(self, tp: TotalPatch, delta: DorfmanConnection,
                 u_sub: SubBundle, k_sub: SubBundle):
        self.tp = tp
        self.delta = delta
        self.u_sub = u_sub
        self.k_sub = k_sub
        self.n = len(tp.base_coords)
        self.r = len(tp.fiber_coords)

    def residual(self, section: LiftedSection) -> LiftedSection:
        # the (d/dx, dy) components are constant-coefficient in the U-frame:
        # solve for the linear coefficients, subtract, then match core parts
        tp, n, r = self.tp, self.n, self.r
        projected = list(section.vf[:n]) + list(section.form[n:])
        u_coords, u_rest = self.u_sub.span.coords(projected)
        if any(not c.is_zero() for c in u_rest):
            # the projection already fails to lie over U
            junk = LiftedSection(tp, list(section.vf[:n]) + [tp.zero()] * r,
                                 [tp.zero()] * n + list(section.form[n:]))
            return junk
        remainder = section
        for coeff, u in zip(u_coords, self.u_sub.sections):
            remainder = remainder - lift_linear(tp, self.delta, u).scale(coeff)
        # remainder must be a K-core combination: no d/dx, no dy components
        for comp in list(remainder.vf[:n]) + list(remainder.form[n:]):
            if not comp.is_zero():
                return remainder
        # order the core vector as (E-part, T*M-part) to match K's ambient
        b = self.delta.b
        e_sl = b.atom_slice(b.atom_index("V"))
        th_sl = b.atom_slice(b.atom_index("T*M"))
        ordered = [None] * b.rank
        for k in range(r):
            ordered[e_sl.start + k] = remainder.vf[n + k]
        for i in range(n):
            ordered[th_sl.start + i] = remainder.form[i]
        _, rest = self.k_sub.span.coords(ordered)
        if all(c.is_zero() for c in rest):
            return LiftedSection(tp, [tp.zero()] * (n + r), [tp.zero()] * (n + r))
        return remainder


# -- linear almost Poisson structure on the dual -------------------------------


def linear_poisson_check(lad: LieAlgebroidData) -> CheckReport:
    """The bivector of the dual's fiberwise-linear bracket.

    Brackets of coordinates: {p_k, p_l} = l_{[e_k, e_l]},
    {p_k, q* phi} = q*(rho(e_k) phi), {q*, q*} = 0; the induced sharp map
    satisfies sharp(q* theta) = -(rho* theta)^ and sharp(d l_a) = rho(a)~.
    """
    chk = Checker("linear-poisson",
                  "sharp map of the fiberwise-linear bracket on the dual bundle")
    a_bundle = lad.a_bundle
    base = lad.base
    tp = total_patch_of(a_bundle, prefix="p")
    n, r = base.dim, a_bundle.rank

    def coord_bracket(alpha: int, beta: int) -> ScalarPoly:
        # indices: 0..n-1 base coordinates, n..n+r-1 fiber coordinates
        if alpha < n and beta < n:
            return tp.zero()
        if alpha >= n and beta >= n:
            k, l = alpha - n, beta - n
            value = lad.bracket.structure[k][l]
            total = tp.zero()
            for m in range(r):
                total = total + tp.embed(value.coeffs[m]) * tp.fiber(m)
            return total
        if alpha >= n and beta < n:
            k = alpha - n
            return tp.embed(lad.bracket.rho(a_bundle.frame_section(k)).coeffs[beta])
        return -coord_bracket(beta, alpha)

    table = [[coord_bracket(a, b) for b in range(n + r)] for a in range(n + r)]

    def sharp(form: Sequence[ScalarPoly]) -> List[ScalarPoly]:
        out = []
        for beta in range(n + r):
            total = tp.zero()
            for alpha in range(n + r):
                if not form[alpha].is_zero():
                    total = total + form[alpha] * table[alpha][beta]
            out.append(total)
        return out

    def d_total(phi: ScalarPoly) -> List[ScalarPoly]:
        return [phi.partial(v) for v in tp.allvars]

    ct = Bundle.cotangent(base)
    for label, theta in battery_sections(ct):
        pulled = [tp.embed(c) for c in theta.coeffs] + [tp.zero()] * r
        lhs = sharp(pulled)
        # -(rho* theta)^: vertical with components -<theta, rho(e_k)>
        rhs = [tp.zero()] * n
        for k in range(r):
            value = base.zero()
            for c, x in zip(theta.coeffs, lad.bracket.rho(a_bundle.frame_section(k)).coeffs):
                value = value + c * x
            rhs.append(-tp.embed(value))
        chk.record("sharp-of-pullback", label,
                   _vf_diff(tp, lhs, rhs))
    for label, a in battery_sections(a_bundle):
        ell = tp.zero()
        for k in range(r):
            ell = ell + tp.embed(a.coeffs[k]) * tp.fiber(k)
        lhs = sharp(d_total(ell))
        # rho(a)~ : T xi rho(a) minus the vertical correction by L_a xi
        rho_a = lad.bracket.rho(a)
        rhs = [tp.embed(c) for c in rho_a.coeffs]
        for l in range(r):
            # <L_a xi, e_l> with xi the frozen tautological section
            value = tp.zero()
            for k in range(r):
                bracket_al = lad.bracket.bracket(a, a_bundle.frame_section(l))
                value = value + tp.fiber(k) * tp.embed(bracket_al.coeffs[k])
            rhs.append(value)
        chk.record("sharp-of-linear", label, _vf_diff(tp, lhs, rhs))
    return chk.report()


def _vf_diff(tp: TotalPatch, lhs: Sequence[ScalarPoly], rhs: Sequence[ScalarPoly]):
    return LiftedSection(tp, [a - b for a, b in zip(lhs, rhs)], [tp.zero()] * tp.dim)


# -- pullback of the canonical forms -------------------------------------------


def canonical_form_check(sigma: HomSection, conn: Connection) -> CheckReport:
    """sigma* theta_can and its differential against the closed formulas.

    Checks the three two-form values on linear and core lifts and the two
    flat-map images, all computed from the coordinate one-form
    sigma* theta_can = sum_i <sigma(taut), d/dx_i> dx_i on the total space.
    """
    chk = Checker("canonical-form",
                  "pullback of the canonical forms through sigma and a connection")
    e_bundle = conn.bundle
    base = e_bundle.patch
    if sigma.source != e_bundle or sigma.target != Bundle.cotangent(base):
        raise BundleError("sigma must be a bundle map E -> T*M")
    tp = total_patch_of(e_bundle)
    n, r = base.dim, e_bundle.rank
    tangent = Bundle.tangent(base)

    # theta = sum_i (sum_k sigma_{ik}(x) y_k) dx_i
    theta = [tp.zero()] * (n + r)
    for i in range(n):
        for k in range(r):
            theta[i] = theta[i] + tp.embed(sigma.matrix[i][k]) * tp.fiber(k)
    w = two_form_of_oneform(tp.allvars, theta)

    def omega_eval(v1: Sequence[ScalarPoly], v2: Sequence[ScalarPoly]) -> ScalarPoly:
        total = tp.zero()
        for i in range(n + r):
            if v1[i].is_zero():
                continue
            for j in range(n + r):
                if not (v2[j].is_zero() or w[i][j].is_zero()):
                    total = total + v1[i] * v2[j] * w[i][j]
        return total

    def linear_lift(x: Section) -> List[ScalarPoly]:
        # X~ = hat(nabla_X): horizontal plus the -Gamma correction
        out = [tp.embed(c) for c in x.coeffs] + [tp.zero()] * r
        for l in range(r):
            value = conn.nabla(x, e_bundle.frame_section(l))
            for k in range(r):
                out[n + k] = out[n + k] - tp.embed(value.coeffs[k]) * tp.fiber(l)
        return out

    def core_lift(e: Section) -> List[ScalarPoly]:
        return [tp.zero()] * n + [tp.embed(c) for c in e.coeffs]

    def ell_dual(xi: Section) -> ScalarPoly:
        total = tp.zero()
        for k in range(r):
            total = total + tp.embed(xi.coeffs[k]) * tp.fiber(k)
        return total

    def sigma_star(x: Section) -> Section:
        comps = []
        for k in range(r):
            value = base.zero()
            for i in range(n):
                value = value + sigma.matrix[i][k] * x.coeffs[i]
            comps.append(value)
        return Section(e_bundle.dual(), tuple(comps))

    x_frames = tangent.frame_sections()
    functions = battery_functions(base)
    for i, x in enumerate(x_frames):
        for j, y in enumerate(x_frames):
            for phi in functions:
                ys = y.scale(phi)
                lhs = omega_eval(linear_lift(x), linear_lift(ys))
                value = (conn.nabla_dual(x, sigma_star(ys))
                         - conn.nabla_dual(ys, sigma_star(x))
                         - sigma_star(vf_bracket(x, ys)))
                chk.record("two-form-linear-linear",
                           f"(Dx{i + 1}; ({phi})*Dx{j + 1})", lhs - ell_dual(value))
        for label_e, e in battery_sections(e_bundle):
            lhs = omega_eval(linear_lift(x), core_lift(e))
            rhs = -tp.embed(dual_pair(sigma.apply(e), x))
            chk.record("two-form-linear-core", f"(Dx{i + 1}; {label_e})", lhs - rhs)
    for label1, e1 in battery_sections(e_bundle):
        for label2, e2 in battery_sections(e_bundle):
            chk.record("two-form-core-core", f"({label1}; {label2})",
                       omega_eval(core_lift(e1), core_lift(e2)))

    # flat maps: omega-flat(X~) = d l_{-sigma* X} + (L_X(sigma .) - sigma(nabla_X .))^
    for i, x in enumerate(x_frames):
        lifted = linear_lift(x)
        flat = [omega_eval(lifted, _basis(tp, j)) for j in range(n + r)]
        ell = ell_dual(sigma_star(x))
        expected = [-(ell.partial(v)) for v in tp.allvars]
        for l in range(r):
            e_l = e_bundle.frame_section(l)
            corr = (lie_derivative_form(x, sigma.apply(e_l))
                    - sigma.apply(conn.nabla(x, e_l)))
            for jj in range(n):
                expected[jj] = expected[jj] + tp.embed(corr.coeffs[jj]) * tp.fiber(l)
        diff = [a - b for a, b in zip(flat, expected)]
        chk.record("flat-of-linear", f"Dx{i + 1}",
                   LiftedSection(tp, [tp.zero()] * (n + r), diff))
    for l in range(r):
        e_l = e_bundle.frame_section(l)
        flat = [omega_eval(core_lift(e_l), _basis(tp, j)) for j in range(n + r)]
        pulled = sigma.apply(e_l)
        expected = [tp.embed(c) for c in pulled.coeffs] + [tp.zero()] * r
        diff = [a - b for a, b in zip(flat, expected)]
        chk.record("flat-of-core", e_bundle.frame[l],
                   LiftedSection(tp, [tp.zero()] * (n + r), diff))
    return chk.report()


def _basis(tp: TotalPatch, j: int) -> List[ScalarPoly]:
    out = [tp.zero()] * tp.dim
    out[j] = tp.one()
    return out


# -- the generator calculus over TM + A* ---------------------------------------


class GeneratorAlgebra:
    """Symbolic model of the big algebroid over the total space of TM + A*.

    Elements are formal combinations of linear generators e_k~ (one per
    A-frame element) and core generators tau_j! (one per A + T*M frame
    element) with coefficients polynomial in the base and fiber variables.
    The bracket is fixed on generators by

        [a~, b~] = ([a,b])~,   [a~, tau!] = (L_a tau)!,   [tau!, tau'!] = 0,

    extended by the Leibniz rule through the anchor, and the tilde of a
    section with function coefficients expands as

        (phi a)~ = pi*phi a~ + (v |-> X_v(phi)(a,0) - <xi_v, a>(0, d phi))!.
    """

    LIN = "lin"
    CORE = "core"

    def __init__(self, lad: LieAlgebroidData, delta: DorfmanConnection):
        self.lad = lad
        self.delta = delta
        self.tp = total_patch_of(lad.v_bundle, prefix="w")
        self.r = lad.a_bundle.rank
        self.sigma_rank = lad.sigma_bundle.rank
        from .bundle import pairing_matrix

        # partner[j] = index m with <v_j, tau_m> = 1 (canonical permutation)
        p = pairing_matrix(lad.v_bundle, lad.sigma_bundle)
        self.partner = []
        for j in range(lad.v_bundle.rank):
            hits = [m for m in range(lad.sigma_bundle.rank) if p[j][m]]
            self.partner.append(hits[0])

    # -- element builders ---------------------------------------------------

    def zero_element(self) -> Dict:
        return {}

    def _add_term(self, elem: Dict, key, coeff: ScalarPoly) -> None:
        if key in elem:
            coeff = elem[key] + coeff
        if coeff.is_zero():
            elem.pop(key, None)
        else:
            elem[key] = coeff

    def add(self, e1: Dict, e2: Dict) -> Dict:
        out = dict(e1)
        for key, coeff in e2.items():
            self._add_term(out, key, coeff)
        return out

    def neg(self, elem: Dict) -> Dict:
        return {key: -coeff for key, coeff in elem.items()}

    def sub(self, e1: Dict, e2: Dict) -> Dict:
        return self.add(e1, self.neg(e2))

    def scale(self, elem: Dict, factor: ScalarPoly) -> Dict:
        out = {}
        for key, coeff in elem.items():
            value = coeff * factor
            if not value.is_zero():
                out[key] = value
        return out

    def is_zero(self, elem: Dict) -> bool:
        return not elem

    def show(self, elem: Dict) -> str:
        if not elem:
            return "0"
        pieces = []
        for key in sorted(elem, key=lambda k: (k[0], k[1])):
            kind, idx = key
            name = (self.lad.a_bundle.frame[idx] + "~" if kind == self.LIN
                    else self.lad.sigma_bundle.frame[idx] + "!")
            pieces.append(f"({elem[key]})*{name}")
        return " + ".join(pieces)

    def dagger_of(self, sigma: Section) -> Dict:
        """(b, theta)! with function coefficients; dagger is C-infinity linear."""
        out = {}
        for m, coeff in enumerate(sigma.coeffs):
            if not coeff.is_zero():
                self._add_term(out, (self.CORE, m), self.tp.embed(coeff))
        return out

    def hom_dagger(self, hom: HomSection) -> Dict:
        """Phi! for Phi: TM + A* -> A + T*M: core coefficients linear in w."""
        out = {}
        for j in range(self.lad.v_bundle.rank):
            col = hom.column(j)
            wj = self.tp.fiber(j)
            for m, coeff in enumerate(col.coeffs):
                if not coeff.is_zero():
                    self._add_term(out, (self.CORE, m), self.tp.embed(coeff) * wj)
        return out

    def tilde_of(self, a: Section) -> Dict:
        """(sum phi_k e_k)~ expanded through the correction homs."""
        out = {}
        base = self.lad.base
        for k, phi in enumerate(a.coeffs):
            if phi.is_zero():
                continue
            self._add_term(out, (self.LIN, k), self.tp.embed(phi))
            if phi.is_constant():
                continue
            e_k = self.lad.a_bundle.frame_section(k)
            cols = []
            for j, v in enumerate(self.lad.v_bundle.frame_sections()):
                x = self.lad.x_part(v)
                xi = self.lad.xi_part(v)
                col = (self.lad.to_sigma(a=e_k).scale(vf_apply(base.coords, x.coeffs, phi))
                       - db_value(self.lad, phi).scale(dual_pair(xi, e_k)))
                cols.append(col)
            out = self.add(out, self.hom_dagger(
                HomSection.from_columns(self.lad.v_bundle, cols)))
        return out

    def omega_hom(self, a: Section) -> HomSection:
        """The hom v |-> Omega_v a."""
        cols = [omega(self.lad, self.delta, v, a)
                for v in self.lad.v_bundle.frame_sections()]
        return HomSection.from_columns(self.lad.v_bundle, cols)

    def sigma_gen(self, a: Section) -> Dict:
        """Sigma_a = a~ - (Omega_. a)!; C-infinity linear in a."""
        return self.sub(self.tilde_of(a), self.hom_dagger(self.omega_hom(a)))

    # -- anchor ---------------------------------------------------------------

    def theta_generator(self, key) -> List[ScalarPoly]:
        kind, idx = key
        n = len(self.tp.base_coords)
        out = [self.tp.zero()] * self.tp.dim
        if kind == self.LIN:
            a = self.lad.a_bundle.frame_section(idx)
            rho_a = self.lad.bracket.rho(a)
            for i in range(n):
                out[i] = self.tp.embed(rho_a.coeffs[i])
            for j in range(self.lad.v_bundle.rank):
                tau = self.lad.sigma_bundle.frame_section(self.partner[j])
                lied = lie_der_sigma(self.lad, a, tau)
                # l_{L_a tau} = sum_j' w_j' <v_j', L_a tau>
                value = self.tp.zero()
                for jp, v in enumerate(self.lad.v_bundle.frame_sections()):
                    value = value + self.tp.fiber(jp) * self.tp.embed(
                        self.delta.predual.pair(v, lied))
                out[n + j] = value
        else:
            sigma = self.lad.sigma_bundle.frame_section(idx)
            up = self.lad.pair_map().apply(sigma)
            for j in range(self.lad.v_bundle.rank):
                tau = self.lad.sigma_bundle.frame_section(self.partner[j])
                out[n + j] = self.tp.embed(self.delta.predual.pair(up, tau))
        return out

    def theta(self, elem: Dict) -> List[ScalarPoly]:
        out = [self.tp.zero()] * self.tp.dim
        for key, coeff in elem.items():
            gen = self.theta_generator(key)
            for i in range(self.tp.dim):
                out[i] = out[i] + coeff * gen[i]
        return out

    def theta_apply(self, elem: Dict, fun: ScalarPoly) -> ScalarPoly:
        return vf_apply(self.tp.allvars, self.theta(elem), fun)

    # -- bracket ---------------------------------------------------------------

    def bracket_generators(self, k1, k2) -> Dict:
        kind1, i = k1
        kind2, j = k2
        if kind1 == self.CORE and kind2 == self.CORE:
            return {}
        if kind1 == self.LIN and kind2 == self.LIN:
            a = self.lad.a_bundle.frame_section(i)
            b = self.lad.a_bundle.frame_section(j)
            return self.tilde_of(self.lad.bracket.bracket(a, b))
        if kind1 == self.LIN:
            a = self.lad.a_bundle.frame_section(i)
            tau = self.lad.sigma_bundle.frame_section(j)
            return self.dagger_of(lie_der_sigma(self.lad, a, tau))
        return self.neg(self.bracket_generators(k2, k1))

    def bracket(self, e1: Dict, e2: Dict) -> Dict:
        out = {}
        for k1, f in e1.items():
            theta1 = self.theta_generator(k1)
            for k2, g in e2.items():
                base = self.bracket_generators(k1, k2)
                out = self.add(out, self.scale(base, f * g))
                dg = vf_apply(self.tp.allvars, theta1, g)
                if not dg.is_zero():
                    out = self.add(out, {k2: f * dg})
                df = vf_apply(self.tp.allvars, self.theta_generator(k2), f)
                if not df.is_zero():
                    out = self.add(out, {k1: -(g * df)})
        return out


def db_value(lad: LieAlgebroidData, phi: ScalarPoly) -> Section:
    from .bundle import db_canonical

    return db_canonical(lad.sigma_bundle, phi)


def ta_generator_check(lad: LieAlgebroidData, delta: DorfmanConnection) -> CheckReport:
    """Consistency of the generator table and the five bracket identities.

    (i) the generator table is antisymmetric, satisfies Jacobi and is
    intertwined with the anchor on the total space of TM + A*; the three
    hom-generator rows expand correctly; (ii) Sigma_a = a~ - (Omega_. a)!
    reproduces the basic connections and the basic curvature; (iii) the
    anchors of Sigma_a and of core generators are the expected vector
    fields.
    """
    chk = Checker("ta-generators",
                  "generator calculus of the big algebroid over TM + A*")
    alg = GeneratorAlgebra(lad, delta)
    tp = alg.tp
    n = len(tp.base_coords)
    gens = ([(alg.LIN, k) for k in range(lad.a_bundle.rank)]
            + [(alg.CORE, m) for m in range(lad.sigma_bundle.rank)])
    named = [({key: tp.one()}, _gen_name(alg, key)) for key in gens]
    weighted = []
    for idx, (key, label) in enumerate(zip(gens, [nm for _, nm in named])):
        factor = tp.fiber(idx % len(tp.fiber_coords)) if tp.fiber_coords else tp.one()
        weighted.append(({key: factor}, f"({factor})*{label}"))

    # (i) antisymmetry, Jacobi, anchor morphism
    for e1, n1 in named + weighted:
        for e2, n2 in named + weighted:
            chk.record("table-antisymmetric", f"({n1}; {n2})",
                       _as_witness(alg, alg.add(alg.bracket(e1, e2), alg.bracket(e2, e1))))
            lhs = alg.theta(alg.bracket(e1, e2))
            rhs = vf_bracket_comps(tp.allvars, alg.theta(e1), alg.theta(e2))
            chk.record("anchor-morphism", f"({n1}; {n2})",
                       LiftedSection(tp, [a - b for a, b in zip(lhs, rhs)],
                                     [tp.zero()] * tp.dim))
    for e1, n1 in named:
        for e2, n2 in named:
            for e3, n3 in named + weighted[:2]:
                jac = alg.sub(alg.bracket(e1, alg.bracket(e2, e3)),
                              alg.add(alg.bracket(alg.bracket(e1, e2), e3),
                                      alg.bracket(e2, alg.bracket(e1, e3))))
                chk.record("jacobi", f"({n1}; {n2}; {n3})", _as_witness(alg, jac))

    # hom-generator rows of the table
    homs = _battery_homs(lad)
    pm = lad.pair_map()
    for h_i, hom in enumerate(homs):
        hd = alg.hom_dagger(hom)
        for k in range(lad.a_bundle.rank):
            a = lad.a_bundle.frame_section(k)
            lhs = alg.bracket({(alg.LIN, k): tp.one()}, hd)
            cols = []
            for v in lad.v_bundle.frame_sections():
                cols.append(lie_der_sigma(lad, a, hom.apply(v))
                            - hom.apply(lie_der_v(lad, a, v)))
            rhs = alg.hom_dagger(HomSection.from_columns(lad.v_bundle, cols))
            chk.record("row-lin-hom", f"({lad.a_bundle.frame[k]}~; Phi{h_i + 1}!)",
                       _as_witness(alg, alg.sub(lhs, rhs)))
        for m in range(lad.sigma_bundle.rank):
            sigma = lad.sigma_bundle.frame_section(m)
            lhs = alg.bracket({(alg.CORE, m): tp.one()}, hd)
            rhs = alg.dagger_of(hom.apply(pm.apply(sigma)))
            chk.record("row-core-hom",
                       f"({lad.sigma_bundle.frame[m]}!; Phi{h_i + 1}!)",
                       _as_witness(alg, alg.sub(lhs, rhs)))
    if len(homs) >= 2:
        lhs = alg.bracket(alg.hom_dagger(homs[0]), alg.hom_dagger(homs[1]))
        rhs = alg.hom_dagger(_hom_commutator(homs[0], homs[1], pm))
        chk.record("row-hom-hom", "(Phi1!; Phi2!)", _as_witness(alg, alg.sub(lhs, rhs)))

    # (ii) the five identities for Sigma
    functions = battery_functions(lad.base)
    a_frames = lad.a_bundle.frame_sections()
    for i, a in enumerate(a_frames):
        for phi in functions:
            ap = a.scale(phi)
            sig_a = alg.sigma_gen(ap)
            for j, b in enumerate(a_frames):
                sig_b = alg.sigma_gen(b)
                lhs = alg.bracket(sig_a, sig_b)
                curv_cols = [basic_curvature(lad, delta, ap, b, v)
                             for v in lad.v_bundle.frame_sections()]
                rhs = alg.sub(alg.sigma_gen(lad.bracket.bracket(ap, b)),
                              alg.hom_dagger(HomSection.from_columns(
                                  lad.v_bundle, curv_cols)))
                chk.record("sigma-bracket",
                           f"(({phi})*a{i + 1}; a{j + 1})", _as_witness(alg, alg.sub(lhs, rhs)))
            for m, sigma in enumerate(lad.sigma_bundle.frame_sections()):
                lhs = alg.bracket(sig_a, alg.dagger_of(sigma))
                rhs = alg.dagger_of(basic_sigma(lad, delta, ap, sigma))
                chk.record("sigma-core",
                           f"(({phi})*a{i + 1}; {lad.sigma_bundle.frame[m]}!)",
                           _as_witness(alg, alg.sub(lhs, rhs)))
    for m1 in range(lad.sigma_bundle.rank):
        for m2 in range(lad.sigma_bundle.rank):
            lhs = alg.bracket({(alg.CORE, m1): tp.one()}, {(alg.CORE, m2): tp.one()})
            chk.record("core-core", f"({m1 + 1}; {m2 + 1})", _as_witness(alg, lhs))

    # (iii) anchors
    for i, a in enumerate(a_frames):
        vf = alg.theta(alg.sigma_gen(a))
        expected = [tp.embed(c) for c in lad.bracket.rho(a).coeffs]
        for j in range(lad.v_bundle.rank):
            tau = lad.sigma_bundle.frame_section(alg.partner[j])
            value = tp.zero()
            for jp, v in enumerate(lad.v_bundle.frame_sections()):
                inner = (lad.bracket.rho_d(a, delta.predual.pair(v, tau))
                         - delta.predual.pair(basic_v(lad, delta, a, v), tau))
                value = value + tp.fiber(jp) * tp.embed(inner)
            expected.append(value)
        chk.record("anchor-of-sigma", f"a{i + 1}",
                   LiftedSection(tp, [x - y for x, y in zip(vf, expected)],
                                 [tp.zero()] * tp.dim))
    for m, sigma in enumerate(lad.sigma_bundle.frame_sections()):
        vf = alg.theta(alg.dagger_of(sigma))
        up = lad.pair_map().apply(sigma)
        expected = [tp.zero()] * n
        for j in range(lad.v_bundle.rank):
            tau = lad.sigma_bundle.frame_section(alg.partner[j])
            expected.append(tp.embed(delta.predual.pair(up, tau)))
        chk.record("anchor-of-core", f"{lad.sigma_bundle.frame[m]}!",
                   LiftedSection(tp, [x - y for x, y in zip(vf, expected)],
                                 [tp.zero()] * tp.dim))
    return chk.report()


def _gen_name(alg: GeneratorAlgebra, key) -> str:
    kind, idx = key
    if kind == alg.LIN:
        return alg.lad.a_bundle.frame[idx] + "~"
    return alg.lad.sigma_bundle.frame[idx] + "!"


def _as_witness(alg: GeneratorAlgebra, elem: Dict):
    class _Shim:
        def __init__(self, text, zero):
            self._text = text
            self._zero = zero

        def is_zero(self):
            return self._zero

        def __str__(self):
            return self._text

    return _Shim(alg.show(elem), alg.is_zero(elem))


def _battery_homs(lad: LieAlgebroidData) -> List[HomSection]:
    """Two deterministic hom sections TM + A* -> A + T*M for the table rows."""
    src, tgt = lad.v_bundle, lad.sigma_bundle
    frames = tgt.frame_sections()
    functions = battery_functions(lad.base)
    out = []
    for shift in (0, 1):
        cols = []
        for j in range(src.rank):
            sec = frames[(j + shift) % len(frames)]
            cols.append(sec.scale(functions[(j + shift) % len(functions)]))
        out.append(HomSection.from_columns(src, cols))
    return out


def _hom_commutator(phi: HomSection, psi: HomSection, pm: HomSection) -> HomSection:
    """Psi o (rho,rho*) o Phi - Phi o (rho,rho*) o Psi."""
    return _compose3(psi, pm, phi) - _compose3(phi, pm, psi)


def _compose3(outer: HomSection, middle: HomSection, inner: HomSection) -> HomSection:
    return outer.compose(middle.compose(inner))
