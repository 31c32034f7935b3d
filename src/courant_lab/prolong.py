"""Brute-force total-space models: the geometric oracle.

Everything the algebraic modules claim about a Dorfman connection is
re-derived here on the total space of the bundle: functions on E become
polynomials in base and fiber variables, linear and core sections of
TE + T*E are materialized componentwise, and the Courant-Dorfman calculus
runs in full (n+r)-dimensional coordinates.  Agreement of the two routes
is the package's master invariant.

The total-space calculus runs on the shared kernels of `bundle` over the
`Patch` of a `TotalPatch`: `vf_apply`, `dual_pair_comps`, the Cartan
kernels (handed the views a lifted section keeps, LiftedSection.nonzero),
`interior_two_form` and `HomSection.transpose`; every fiberwise-linear
function sum_k c_k(x) y_k is built by `TotalPatch.linear`.  The generator
calculus over TM + A* is a `Section` calculus too: its elements are
sections of a generator bundle over the `Patch` of the total-space
variables, and its bracket is the `AnchoredBracket` whose frame table is
the generator table, one `bundle.leibniz` call.

Sign conventions, fixed once: the two-form of a one-form theta is
evaluated as d theta(v, w) = v(theta(w)) - w(theta(v)) - theta([v, w]);
the pullback canonical two-form used below is exactly this differential
of sigma* theta_can, which makes omega(X~, e^) = -q*<sigma e, X> hold on
the nose.

A check evaluates each distinct operator value its loops need once, and
its tables live only as long as the check; the generator table of a
`GeneratorAlgebra` lives as long as the algebra.  A frame section times
a battery function is read from the battery of its bundle
(Bundle.battery), and frame data (anchor images, the brackets [a, e_l])
from the bracket and its battery table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

from .algebroid import AnchoredBracket, BatteryTable, record_jacobi
from .bundle import (COTM, TM, VEC, VEC_DUAL, Battery, Bundle, BundleError, HomSection,
                     Patch, Section, Terms, courant_dorfman_form_part, db_canonical, dual_pair,
                     dual_pair_comps, interior_two_form, lie_derivative_form, pairing_matrix,
                     two_form_of_oneform, vf_apply, vf_apply_each, vf_bracket,
                     vf_bracket_comps)
from .dirac import VBTriple, check_dirac, dirac_verdicts
from .dorfman import Connection, DorfmanConnection
from .laops import LieAlgebroidData, basic_curvature
from .poly import ScalarPoly
from .report import Checker, CheckReport


@dataclass(frozen=True)
class TotalPatch:
    """Coordinates (x, y) on the total space of a trivialized bundle.

    Immutable, so the variable list, its `Patch` and the fiber variables
    are built once, on first use, and shared: total-space polynomials all
    carry the same variable tuple, and zero and one are those of the patch.
    """

    base_coords: Tuple[str, ...]
    fiber_coords: Tuple[str, ...]

    @cached_property
    def allvars(self) -> Tuple[str, ...]:
        return self.base_coords + self.fiber_coords

    @cached_property
    def patch(self) -> Patch:
        return Patch(self.allvars)

    @property
    def dim(self) -> int:
        return len(self.allvars)

    def embed(self, phi: ScalarPoly) -> ScalarPoly:
        """phi, a function of the base, as a function on the total space:
        one key shift (see ScalarPoly.extend), or the shared zero."""
        return phi.extend(self.allvars) if phi._terms else self.zero()

    def zero(self) -> ScalarPoly:
        return self.patch.zero()

    def one(self) -> ScalarPoly:
        return self.patch.one()

    def fiber(self, k: int) -> ScalarPoly:
        return self._fibers[k]

    def linear(self, coeffs: Sequence[ScalarPoly]) -> ScalarPoly:
        """The fiberwise-linear function sum_k c_k(x) y_k of base coefficients c_k."""
        total = self.zero()
        for c, y in zip(coeffs, self._fibers, strict=True):
            if not c.is_zero():
                total = total + self.embed(c) * y
        return total

    @cached_property
    def _fibers(self) -> Tuple[ScalarPoly, ...]:
        return tuple(self.patch.coord(y) for y in self.fiber_coords)


def total_patch_of(bundle: Bundle, prefix: str = "y") -> TotalPatch:
    fibers = tuple(f"{prefix}{k + 1}" for k in range(bundle.rank))
    clash = set(fibers) & set(bundle.patch.coords)
    if clash:
        raise BundleError(f"fiber names collide with base coordinates: {clash}")
    return TotalPatch(bundle.patch.coords, fibers)


class LiftedSection:
    """A section of TE + T*E over E: a vector field and a 1-form in (x, y).

    Like a Section it keeps the views of its nonzero components (nonzero()),
    and `-`, `scale`, `is_zero`, the printer and the kernels read them."""

    __slots__ = ("total", "vf", "form", "_nonzero")  # see nonzero()

    def __init__(self, total: TotalPatch, vf: Sequence[ScalarPoly],
                 form: Sequence[ScalarPoly]):
        if len(vf) != total.dim or len(form) != total.dim:
            raise BundleError("component count must match the total dimension")
        self.total = total
        self.vf = tuple(vf)
        self.form = tuple(form)
        self._nonzero = None

    def nonzero(self) -> Tuple[Terms, Terms]:
        """The views of vf and of form (see Section.nonzero), found once."""
        if self._nonzero is None:
            self._nonzero = tuple(tuple([(k, c) for k, c in enumerate(comps) if c._terms])
                                  for comps in (self.vf, self.form))
        return self._nonzero

    # a component is subtracted only where other's is nonzero
    def __sub__(self, other: "LiftedSection") -> "LiftedSection":
        vf, form = list(self.vf), list(self.form)
        for comps, terms in zip((vf, form), other.nonzero()):
            for k, c in terms:
                comps[k] = comps[k] - c
        return _lifted(self.total, tuple(vf), tuple(form))

    def scale(self, factor: ScalarPoly) -> "LiftedSection":
        # a product of nonzero polynomials is nonzero: the views carry over
        views = self.nonzero() if factor._terms else ((), ())
        return _from_views(self.total, *(tuple([(k, factor * c) for k, c in v]) for v in views))

    def is_zero(self) -> bool:
        return not any(self.nonzero())

    def __str__(self) -> str:
        names, (vf, form) = self.total.allvars, self.nonzero()
        vf = " + ".join(f"({c})*d/d{names[k]}" for k, c in vf)
        fm = " + ".join(f"({c})*d{names[k]}" for k, c in form)
        return f"({vf or '0'}; {fm or '0'})"


def _lifted(tp: TotalPatch, vf: Tuple[ScalarPoly, ...], form: Tuple[ScalarPoly, ...],
            views=None) -> LiftedSection:
    """A LiftedSection over tp.dim polynomials in each of vf and form, as ring
    ops and kernels give them, unchecked; views, if given, is its nonzero()."""
    sec = object.__new__(LiftedSection)
    sec.total, sec.vf, sec.form, sec._nonzero = tp, vf, form, views
    return sec


def _from_views(tp: TotalPatch, *views) -> LiftedSection:
    """The LiftedSection whose nonzero() is views, the other components zero."""
    dense = [[tp.zero()] * tp.dim, [tp.zero()] * tp.dim]
    for comps, terms in zip(dense, views):
        for k, c in terms:
            comps[k] = c
    return _lifted(tp, tuple(dense[0]), tuple(dense[1]), views)


# -- lifts -------------------------------------------------------------------


def lift_core(tp: TotalPatch, sigma: Section) -> LiftedSection:
    """(f, theta)^ : vertical part f_k(x) d/dy_k plus the pullback form."""
    return _core_section(tp, sigma.bundle, [(k, tp.embed(c)) for k, c in sigma.nonzero()])


def lift_linear(tp: TotalPatch, delta: DorfmanConnection, v: Section,
                cols: Sequence[Section] | None = None) -> LiftedSection:
    """The horizontal lift of v = (X, xi) through the connection.

    Evaluated on the tautological section with frozen fiber values:
    tangent part T e X minus the vertical lift of Delta_v(e, 0), cotangent
    part d l_xi minus the pullback of the T*M-component.  cols, when given,
    are the values Delta_v(e_m, 0) over the frame of E.
    """
    b = delta.b
    ell = tp.linear(v.component(VEC_DUAL).coeffs)
    x_part = [tp.embed(c) for c in v.component(TM).coeffs]
    horizontal = LiftedSection(tp, x_part + [tp.zero()] * len(tp.fiber_coords),
                               [ell.partial(y) for y in tp.allvars])
    # Delta_v(e, 0) on the tautological section e = sum_l y_l e_l
    if cols is None:
        cols = [delta.apply(v, b.frame_section(m)) for m in b.positions(VEC)]
    rows = [tp.linear([col.coeffs[m] for col in cols]) for m in range(b.rank)]
    return horizontal - _core_section(tp, b, enumerate(rows))


def vertical_hom(tp: TotalPatch, delta: DorfmanConnection, hom: HomSection) -> LiftedSection:
    """Phi^ for Phi: E -> E + T*M, evaluated on the tautological section."""
    return _core_section(tp, delta.b, enumerate(tp.linear(row) for row in hom.matrix))


def _core_section(tp: TotalPatch, b: Bundle, terms: Iterable[Tuple[int, ScalarPoly]]
                  ) -> LiftedSection:
    # terms are the (k, c_k), zeros skipped, of a total-space vector in B = E + T*M
    # order: the E-part is a vertical vector field, the T*M-part a form along the base
    n, vec, cotm = len(tp.base_coords), b.positions(VEC), b.positions(COTM)
    terms = [(k, c) for k, c in terms if c._terms]
    return _from_views(tp, tuple([(n + k - vec.start, c) for k, c in terms if k in vec]),
                       tuple([(k - cotm.start, c) for k, c in terms if k in cotm]))


# -- total-space Courant calculus --------------------------------------------


def total_pairing(s1: LiftedSection, s2: LiftedSection) -> ScalarPoly:
    # theta1(X2) + theta2(X1), the second sum starting from the first
    (_, theta1), (_, theta2) = s1.nonzero(), s2.nonzero()
    return dual_pair_comps(theta2, s1.vf, dual_pair_comps(theta1, s2.vf, s1.total.zero()))


def total_courant(s1: LiftedSection, s2: LiftedSection) -> LiftedSection:
    base, (x1, theta1), (x2, theta2) = s1.total.patch, s1.nonzero(), s2.nonzero()
    return _lifted(s1.total, tuple(vf_bracket_comps(base, x1, x2)),
                   tuple(courant_dorfman_form_part(x1, theta1, x2, theta2, base)))


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
    q, b = delta.q, delta.b
    e_bundle = b.summand(VEC)
    tp = total_patch_of(e_bundle)
    q_batt, b_batt = delta.battery_table.rows, delta.battery_table.cols
    q_frames = q.frame_sections()
    e_frames = [b.frame_section(m) for m in b.positions(VEC)]
    # applied[i][m] = Delta_{q_i}(e_m, 0): the lift of q_i and its l-calculus
    applied = [[delta.battery_apply(p, b_batt.frames[m]) for m in b.positions(VEC)]
               for p in q_batt.frames]
    lifts = [lift_linear(tp, delta, v, cols) for v, cols in zip(q_frames, applied)]
    cores = [(label, s, lift_core(tp, s)) for label, s in zip(b_batt.labels, b_batt.sections)]

    for i, p1 in enumerate(q_batt.frames):
        for j, p2 in enumerate(q_batt.frames):
            # l of the E*-part of the symmetrization
            ell = tp.linear(delta.battery_skew(p1, p2).component(VEC_DUAL).coeffs)
            chk.record("pairing-linear-linear", f"({q.frame[i]}; {q.frame[j]})",
                       _difference(total_pairing(lifts[i], lifts[j]), ell))
    for i, v in enumerate(q_frames):
        for label_s, s, core in cores:
            chk.record("pairing-linear-core", f"({q.frame[i]}; {label_s})",
                       _difference(total_pairing(lifts[i], core),
                                   tp.embed(delta.predual.pair(v, s))))
    for label1, _, c1 in cores:
        for label2, _, c2 in cores:
            chk.record("pairing-core-core", f"({label1}; {label2})",
                       total_pairing(c1, c2))
            chk.record("bracket-core-core", f"({label1}; {label2})",
                       total_courant(c1, c2))
    for i in range(q.rank):
        for f, (phi, text) in enumerate(zip(q_batt.functions, q_batt.texts)):
            lifted_v = lifts[i].scale(tp.embed(phi))
            for t, (label_s, _, core) in enumerate(cores):
                lhs = total_courant(lifted_v, core)
                rhs = lift_core(tp, delta.battery_apply(q_batt.pos(i, f), t))
                chk.record("bracket-linear-core", f"(({text})*{q.frame[i]}; {label_s})",
                           lhs - rhs)
    for i, p1 in enumerate(q_batt.frames):
        for j, p2 in enumerate(q_batt.frames):
            lhs = total_courant(lifts[i], lifts[j])
            dull = delta.bracket.battery_bracket(p1, p2)
            hom_full = delta.frame_curvature(i, j)
            e_cols = [hom_full.apply(ef) for ef in e_frames]
            correction = vertical_hom(
                tp, delta, HomSection.from_columns(e_bundle, delta.b, e_cols))
            rhs = lift_linear(tp, delta, dull) - correction
            chk.record("bracket-linear-linear", f"({q.frame[i]}; {q.frame[j]})",
                       lhs - rhs)
    # intermediate l-calculus: X~(l_eta) is the linear function of the
    # section with <psi, e> = X<eta, e> - <eta, pr_E Delta_v(e, 0)>
    eta_batt = e_bundle.dual().battery
    for i in range(q.rank):
        for label_eta, eta in zip(eta_batt.labels, eta_batt.sections):
            lhs = vf_apply(tp.patch, lifts[i].nonzero()[0], tp.linear(eta.coeffs))
            x_eta = vf_apply_each(delta.bracket.frame_table.anchors[i], eta)
            rhs = tp.linear([_difference(x, dual_pair(eta, value.component(VEC)))
                             for x, value in zip(x_eta, applied[i])])
            chk.record("ell-calculus", f"({q.frame[i]}; {label_eta})", _difference(lhs, rhs))
    return chk.report()


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
    tp = total_patch_of(delta.b.summand(VEC))
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

    for name1, s1 in spanning:
        for name2, s2 in spanning:
            chk.record("closure", f"[{name1}, {name2}]",
                       _closure_residual(triple, u_lifts, total_courant(s1, s2)))

    verdicts = dirac_verdicts(check_dirac(triple))
    geometric = (chk.sub_passed("rank") and chk.sub_passed("isotropic")
                 and chk.sub_passed("closure"))
    chk.note(f"verdict geometric-dirac: {geometric}")
    chk.require("matches-algebraic", f"algebraic dirac = {verdicts.get('dirac')}",
                verdicts.get("dirac") == geometric,
                "algebraic and geometric verdicts differ")
    return chk.report()


def _closure_residual(triple: VBTriple, u_lifts: Sequence[LiftedSection],
                     section: LiftedSection) -> LiftedSection:
    """The part of a lifted section outside the module spanned by D's frames.

    u_lifts are the linear lifts of the U-frame, in order; the result is
    zero exactly when the section lies in D.
    """
    # the (d/dx, dy) components are constant-coefficient in the U-frame:
    # solve for the linear coefficients, subtract, then match core parts
    tp, (vf, form) = section.total, section.nonzero()
    n = len(tp.base_coords)
    projected = (tuple([(k, c) for k, c in vf if k < n]), tuple([(k, c) for k, c in form if k >= n]))
    u_coords, u_rest = triple.u_sub.split(projected[0] + projected[1], tp.zero())
    if any(c._terms for c in u_rest):
        # the projection already fails to lie over U
        return _from_views(tp, *projected)
    remainder = section
    for coeff, lift in zip(u_coords, u_lifts):
        if coeff._terms:
            remainder = remainder - lift.scale(coeff)
    # remainder must be a K-core combination: no d/dx, no dy components
    vf, form = remainder.nonzero()
    if any(k < n for k, _ in vf) or any(k >= n for k, _ in form):
        return remainder
    # the core vector in (E-part, T*M-part) frame positions, K's ambient
    vec, cotm = triple.delta.b.positions(VEC), triple.delta.b.positions(COTM)
    _, rest = triple.k_sub.split([(vec[k - n], c) for k, c in vf]
                                 + [(cotm[k], c) for k, c in form], tp.zero())
    return remainder if any(c._terms for c in rest) else _from_views(tp, (), ())


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
            return tp.linear(lad.bracket.structure[alpha - n][beta - n].coeffs)
        if alpha >= n and beta < n:
            k = alpha - n
            return tp.embed(lad.bracket.frame_rho[k][beta])
        return -coord_bracket(beta, alpha)

    # the Poisson bivector; sharp(form) = interior_two_form(tp.patch, form, table)
    table = [[coord_bracket(a, b) for b in range(n + r)] for a in range(n + r)]

    ct = Bundle.cotangent(base)
    ct_batt, a_batt = ct.battery, a_bundle.battery
    for label, theta in zip(ct_batt.labels, ct_batt.sections):
        pulled = [tp.embed(c) for c in theta.coeffs] + [tp.zero()] * r
        lhs = interior_two_form(tp.patch, pulled, table)
        # -(rho* theta)^: vertical with components -<theta, rho(e_k)>
        rhs = [tp.zero()] * n + [
            -tp.embed(dual_pair_comps(theta.nonzero(), lad.bracket.frame_rho[k], base.zero()))
            for k in range(r)]
        chk.record("sharp-of-pullback", label,
                   _vf_diff(tp, lhs, rhs))
    for p, (label, a) in enumerate(zip(a_batt.labels, a_batt.sections)):
        ell = tp.linear(a.coeffs)
        lhs = interior_two_form(tp.patch, [ell.partial(v) for v in tp.allvars], table)
        # rho(a)~ : T xi rho(a) minus the vertical correction by L_a xi
        rhs = [tp.embed(c) for c in lad.bracket.rho(a).coeffs]
        # <L_a xi, e_l> with xi the frozen tautological section
        rhs += [tp.linear(lad.bracket.battery_bracket(p, t).coeffs) for t in a_batt.frames]
        chk.record("sharp-of-linear", label, _vf_diff(tp, lhs, rhs))
    return chk.report()


def _difference(lhs: ScalarPoly, rhs: ScalarPoly) -> ScalarPoly:
    """lhs - rhs, with no subtraction where rhs is zero."""
    return lhs - rhs if rhs._terms else lhs


def _vf_diff(tp: TotalPatch, lhs: Sequence[ScalarPoly], rhs: Sequence[ScalarPoly]):
    return LiftedSection(tp, [_difference(a, b) for a, b in zip(lhs, rhs)], [tp.zero()] * tp.dim)


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
    cotangent = Bundle.cotangent(base)
    if sigma.source is not e_bundle or sigma.target is not cotangent:
        raise BundleError("sigma must be a bundle map E -> T*M")
    tp = total_patch_of(e_bundle)
    n, r = base.dim, e_bundle.rank
    tangent = Bundle.tangent(base)
    e_frames = e_bundle.frame_sections()
    sigma_star = sigma.transpose()

    # theta = sum_i (sum_k sigma_{ik}(x) y_k) dx_i
    theta = [tp.linear(row) for row in sigma.matrix] + [tp.zero()] * r
    w = two_form_of_oneform(tp.allvars, theta)

    def omega_eval(v1: Sequence[ScalarPoly], v2: Sequence[ScalarPoly]) -> ScalarPoly:
        return dual_pair_comps(enumerate(interior_two_form(tp.patch, v1, w)), v2, tp.zero())

    def linear_lift(x: Section) -> List[ScalarPoly]:
        # X~ = hat(nabla_X): horizontal plus the -Gamma correction
        cols = [conn.nabla(x, e) for e in e_frames]
        return ([tp.embed(c) for c in x.coeffs]
                + [-tp.linear([col.coeffs[k] for col in cols]) for k in range(r)])

    def core_lift(e: Section) -> List[ScalarPoly]:
        return [tp.zero()] * n + [tp.embed(c) for c in e.coeffs]

    x_frames, x_batt = tangent.frame_sections(), tangent.battery
    e_batt = list(zip(e_bundle.battery.labels, e_bundle.battery.sections))
    for i, x in enumerate(x_frames):
        x_lift = linear_lift(x)
        for j in range(n):
            for f, text in enumerate(x_batt.texts):
                ys = x_batt.sections[x_batt.pos(j, f)]
                lhs = omega_eval(x_lift, linear_lift(ys))
                value = (conn.nabla_dual(x, sigma_star.apply(ys))
                         - conn.nabla_dual(ys, sigma_star.apply(x))
                         - sigma_star.apply(vf_bracket(x, ys)))
                chk.record("two-form-linear-linear", f"(Dx{i + 1}; ({text})*Dx{j + 1})",
                           _difference(lhs, tp.linear(value.coeffs)))
        for label_e, e in e_batt:
            lhs = omega_eval(x_lift, core_lift(e))
            rhs = -tp.embed(dual_pair(sigma.apply(e), x))
            chk.record("two-form-linear-core", f"(Dx{i + 1}; {label_e})", _difference(lhs, rhs))
    for label1, e1 in e_batt:
        for label2, e2 in e_batt:
            chk.record("two-form-core-core", f"({label1}; {label2})",
                       omega_eval(core_lift(e1), core_lift(e2)))

    # flat maps: omega-flat(X~) = d l_{-sigma* X} + (L_X(sigma .) - sigma(nabla_X .))^
    for i, x in enumerate(x_frames):
        flat = interior_two_form(tp.patch, linear_lift(x), w)
        ell = tp.linear(sigma_star.apply(x).coeffs)
        cols = [lie_derivative_form(x, sigma.apply(e)) - sigma.apply(conn.nabla(x, e))
                for e in e_frames]
        pulled = [tp.linear([col.coeffs[m] for col in cols]) for m in range(n)] + [tp.zero()] * r
        diff = [_difference(a + ell.partial(v), b) for a, v, b in zip(flat, tp.allvars, pulled)]
        chk.record("flat-of-linear", f"Dx{i + 1}",
                   LiftedSection(tp, [tp.zero()] * (n + r), diff))
    for l, e_l in enumerate(e_frames):
        flat = interior_two_form(tp.patch, core_lift(e_l), w)
        expected = [tp.embed(c) for c in sigma.apply(e_l).coeffs] + [tp.zero()] * r
        diff = [_difference(a, b) for a, b in zip(flat, expected)]
        chk.record("flat-of-core", e_bundle.frame[l],
                   LiftedSection(tp, [tp.zero()] * (n + r), diff))
    return chk.report()


# -- the generator calculus over TM + A* ---------------------------------------


class GeneratorAlgebra:
    """Symbolic model of the big algebroid over the total space of TM + A*.

    Elements are sections of the generator bundle `bundle` over the patch
    of base and fiber variables; its frame is one linear generator a_k~ per
    A-frame element followed by one core generator tau_m! per A + T*M frame
    element.  The bracket is fixed on generators by

        [a~, b~] = ([a,b])~,   [a~, tau!] = (L_a tau)!,   [tau!, tau'!] = 0,

    and extended by the Leibniz rule through the anchor `theta`, so the
    generator table is the frame table of one `AnchoredBracket`, built once,
    in __init__, and `bracket` is its bracket.  The tilde of a section with
    function coefficients expands as

        (phi a)~ = pi*phi a~ + (v |-> X_v(phi)(a,0) - <xi_v, a>(0, d phi))!.
    """

    def __init__(self, lad: LieAlgebroidData, delta: DorfmanConnection):
        self.lad = lad
        self.delta = delta
        self.tp = total_patch_of(lad.v_bundle, prefix="w")
        # partner[j] = index m with <v_j, tau_m> = 1 (canonical permutation)
        p = pairing_matrix(lad.v_bundle, lad.sigma_bundle)
        self.partner = []
        for j in range(lad.v_bundle.rank):
            hits = [m for m in range(lad.sigma_bundle.rank) if p[j][m]]
            self.partner.append(hits[0])
        self.bundle = (
            Bundle.vector(self.tp.patch, "lin", (f + "~" for f in lad.a_bundle.frame))
            + Bundle.vector(self.tp.patch, "core", (f + "!" for f in lad.sigma_bundle.frame)))
        self._lin, self._core = (self.bundle.summand(VEC, name) for name in ("lin", "core"))
        gens = range(self.bundle.rank)
        tangent = Bundle.tangent(self.tp.patch)
        anchor = HomSection.from_columns(self.bundle, tangent, [
            Section(tangent, self._theta_generator(k)) for k in gens])
        # rows are filled in order, and _bracket_generators reads finished ones
        self._rows: List[List[Section]] = []
        for k1 in gens:
            self._rows.append([self._bracket_generators(k1, k2) for k2 in gens])
        self.anchored = AnchoredBracket(self.bundle, anchor, self._rows)

    # -- element builders ---------------------------------------------------

    def dagger_of(self, sigma: Section) -> Section:
        """(b, theta)! with function coefficients; dagger is C-infinity linear."""
        return self.bundle.join(Section(self._core, [self.tp.embed(c) for c in sigma.coeffs]))

    def hom_dagger(self, hom: HomSection) -> Section:
        """Phi! for Phi: TM + A* -> A + T*M: core coefficients linear in w."""
        return self.bundle.join(Section(self._core, [self.tp.linear(row) for row in hom.matrix]))

    def tilde_of(self, a: Section) -> Section:
        """(sum phi_k e_k)~ expanded through the correction homs."""
        out = self.bundle.join(Section(self._lin, [self.tp.embed(phi) for phi in a.coeffs]))
        base = self.lad.base
        for k, phi in enumerate(a.coeffs):
            if phi.is_constant():
                continue
            e_k = self.lad.a_bundle.frame_section(k)
            cols = []
            for v in self.lad.v_bundle.frame_sections():
                x = self.lad.x_part(v)
                xi = self.lad.xi_part(v)
                x_phi = vf_apply(base, x.nonzero(), phi)
                col = (self.lad.to_sigma(a=e_k).scale(x_phi)
                       - db_canonical(self.lad.sigma_bundle, phi).scale(dual_pair(xi, e_k)))
                cols.append(col)
            out = out + self.hom_dagger(HomSection.from_columns(
                self.lad.v_bundle, self.lad.sigma_bundle, cols))
        return out

    def omega_hom(self, a: Section) -> HomSection:
        """The hom v |-> Omega_v a."""
        cols = [self.lad.omega(self.delta, v, a)
                for v in self.lad.v_bundle.frame_sections()]
        return HomSection.from_columns(self.lad.v_bundle, self.lad.sigma_bundle, cols)

    def sigma_gen(self, a: Section) -> Section:
        """Sigma_a = a~ - (Omega_. a)!; C-infinity linear in a."""
        return self.tilde_of(a) - self.hom_dagger(self.omega_hom(a))

    # -- the generator table ---------------------------------------------------

    def _theta_generator(self, k: int) -> Tuple[ScalarPoly, ...]:
        r = self.lad.a_bundle.rank
        n = len(self.tp.base_coords)
        out = [self.tp.zero()] * self.tp.dim
        if k < r:
            a = self.lad.a_bundle.frame_section(k)
            for i in range(n):
                out[i] = self.tp.embed(self.lad.bracket.frame_rho[k][i])
            for j in range(self.lad.v_bundle.rank):
                tau = self.lad.sigma_bundle.frame_section(self.partner[j])
                lied = self.lad.lie_der_sigma(a, tau)
                # l_{L_a tau} = sum_j' w_j' <v_j', L_a tau>
                out[n + j] = self.tp.linear([self.delta.predual.pair(v, lied)
                                             for v in self.lad.v_bundle.frame_sections()])
        else:
            sigma = self.lad.sigma_bundle.frame_section(k - r)
            up = self.lad.pair_map().apply(sigma)
            for j in range(self.lad.v_bundle.rank):
                tau = self.lad.sigma_bundle.frame_section(self.partner[j])
                out[n + j] = self.tp.embed(self.delta.predual.pair(up, tau))
        return tuple(out)

    def _bracket_generators(self, k1: int, k2: int) -> Section:
        r = self.lad.a_bundle.rank
        if k1 >= r:
            # linear generators precede core ones, so [k2, k1] is already in the table
            return self.bundle.zero_section() if k2 >= r else -self._rows[k2][k1]
        a = self.lad.a_bundle.frame_section(k1)
        if k2 < r:
            return self.tilde_of(self.lad.a_bracket(a, self.lad.a_bundle.frame_section(k2)))
        tau = self.lad.sigma_bundle.frame_section(k2 - r)
        return self.dagger_of(self.lad.lie_der_sigma(a, tau))

    def theta(self, elem: Section) -> Tuple[ScalarPoly, ...]:
        """The anchor of elem: a vector field on the total space, by components."""
        return self.anchored.rho(elem).coeffs

    def bracket(self, e1: Section, e2: Section) -> Section:
        return self.anchored.bracket(e1, e2)


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
    n, r = len(tp.base_coords), lad.a_bundle.rank
    gens, names = alg.bundle.frame_sections(), alg.bundle.frame
    factors = [tp.fiber(idx % len(tp.fiber_coords)) if tp.fiber_coords else tp.one()
               for idx in range(len(gens))]

    # (i) antisymmetry, Jacobi, anchor morphism over the generators and their weighted copies
    elems = Battery(names + tuple(f"({c})*{name}" for c, name in zip(factors, names)),
                    tuple(gens + [gen.scale(c) for c, gen in zip(factors, gens)]),
                    tuple(range(len(gens))))
    pairs = BatteryTable(elems, elems).full(alg.bracket)
    anchors = [alg.anchored.rho(e).nonzero() for e in elems.sections]
    for p, n1 in enumerate(elems.labels):
        for q, n2 in enumerate(elems.labels):
            chk.record("table-antisymmetric", f"({n1}; {n2})", pairs[p][q] + pairs[q][p])
            lhs = alg.theta(pairs[p][q])
            rhs = vf_bracket_comps(tp.patch, anchors[p], anchors[q])
            chk.record("anchor-morphism", f"({n1}; {n2})", _vf_diff(tp, lhs, rhs))
    # third slot: the generators and the first two weighted ones
    record_jacobi(chk, "jacobi", elems, alg.bracket, pairs,
                  third=range(len(gens) + min(2, len(gens))))

    # hom-generator rows of the table
    homs = _battery_homs(lad)
    pm = lad.pair_map()
    a_frames = lad.a_bundle.frame_sections()
    for h_i, hom in enumerate(homs):
        hd = alg.hom_dagger(hom)
        for k, a in enumerate(a_frames):
            lhs = alg.bracket(gens[k], hd)
            cols = []
            for v in lad.v_bundle.frame_sections():
                cols.append(lad.lie_der_sigma(a, hom.apply(v))
                            - hom.apply(lad.lie_der_v(a, v)))
            rhs = alg.hom_dagger(HomSection.from_columns(lad.v_bundle, lad.sigma_bundle, cols))
            chk.record("row-lin-hom", f"({lad.a_bundle.frame[k]}~; Phi{h_i + 1}!)", lhs - rhs)
        for m in range(lad.sigma_bundle.rank):
            sigma = lad.sigma_bundle.frame_section(m)
            lhs = alg.bracket(gens[r + m], hd)
            rhs = alg.dagger_of(hom.apply(pm.apply(sigma)))
            chk.record("row-core-hom",
                       f"({lad.sigma_bundle.frame[m]}!; Phi{h_i + 1}!)", lhs - rhs)
    if len(homs) >= 2:
        lhs = alg.bracket(alg.hom_dagger(homs[0]), alg.hom_dagger(homs[1]))
        # Psi o (rho,rho*) o Phi - Phi o (rho,rho*) o Psi
        rhs = alg.hom_dagger(homs[1].compose(pm.compose(homs[0]))
                             - homs[0].compose(pm.compose(homs[1])))
        chk.record("row-hom-hom", "(Phi1!; Phi2!)", lhs - rhs)

    # (ii) the five identities for Sigma; R^bas(phi a_i, a_j) v_m reads
    # nabla^bas_{a_j} v_m for every (i, phi) and nabla^bas_{phi a_i} v_m for
    # every j from the table of lad, and the anchors in (iii) read them too
    a_batt = lad.a_bundle.battery
    v_frames = lad.v_bundle.frame_sections()
    sig_frames = [alg.sigma_gen(b) for b in a_frames]
    for i in range(r):
        for f, text in enumerate(a_batt.texts):
            ap = a_batt.sections[a_batt.pos(i, f)]
            sig_a = alg.sigma_gen(ap)
            for j, b in enumerate(a_frames):
                lhs = alg.bracket(sig_a, sig_frames[j])
                curv_cols = [basic_curvature(lad, delta, ap, b, v) for v in v_frames]
                rhs = alg.sigma_gen(lad.a_bracket(ap, b)) - alg.hom_dagger(
                    HomSection.from_columns(lad.v_bundle, lad.sigma_bundle, curv_cols))
                chk.record("sigma-bracket", f"(({text})*a{i + 1}; a{j + 1})", lhs - rhs)
            for m, sigma in enumerate(lad.sigma_bundle.frame_sections()):
                lhs = alg.bracket(sig_a, alg.dagger_of(sigma))
                rhs = alg.dagger_of(lad.basic_sigma(delta, ap, sigma))
                chk.record("sigma-core",
                           f"(({text})*a{i + 1}; {lad.sigma_bundle.frame[m]}!)", lhs - rhs)
    for m1 in range(lad.sigma_bundle.rank):
        for m2 in range(lad.sigma_bundle.rank):
            chk.record("core-core", f"({m1 + 1}; {m2 + 1})",
                       alg.bracket(gens[r + m1], gens[r + m2]))

    # (iii) anchors
    for i, a in enumerate(a_frames):
        vf = alg.theta(sig_frames[i])
        expected = [tp.embed(c) for c in lad.bracket.frame_rho[i]]
        for j in range(lad.v_bundle.rank):
            tau = lad.sigma_bundle.frame_section(alg.partner[j])
            # X<v, tau> with X = rho(a), differentiated where <v, tau> is nonzero
            paired = [delta.predual.pair(v, tau) for v in v_frames]
            expected.append(tp.linear([
                _difference(vf_apply(lad.base, lad.bracket.frame_table.anchors[i], p)
                            if p._terms else p,
                            delta.predual.pair(lad.basic_v(delta, a, v), tau))
                for v, p in zip(v_frames, paired)]))
        chk.record("anchor-of-sigma", f"a{i + 1}", _vf_diff(tp, vf, expected))
    for m, sigma in enumerate(lad.sigma_bundle.frame_sections()):
        vf = alg.theta(alg.dagger_of(sigma))
        up = lad.pair_map().apply(sigma)
        expected = [tp.zero()] * n
        for j in range(lad.v_bundle.rank):
            tau = lad.sigma_bundle.frame_section(alg.partner[j])
            expected.append(tp.embed(delta.predual.pair(up, tau)))
        chk.record("anchor-of-core", f"{lad.sigma_bundle.frame[m]}!",
                   _vf_diff(tp, vf, expected))
    return chk.report()


def _battery_homs(lad: LieAlgebroidData) -> List[HomSection]:
    """Two deterministic hom sections TM + A* -> A + T*M for the table rows."""
    src, tgt = lad.v_bundle, lad.sigma_bundle
    batt = tgt.battery
    r, w = tgt.rank, len(batt.functions)
    return [HomSection.from_columns(src, tgt, [batt.sections[batt.pos((j + s) % r, (j + s) % w)]
                                               for j in range(src.rank)])
            for s in (0, 1)]
