"""Brute-force total-space models: the geometric oracle.

Everything the algebraic modules claim about a Dorfman connection is
re-derived here on the total space of the bundle: functions on E become
polynomials in base and fiber variables, linear and core sections of
TE + T*E are materialized componentwise, and the Courant-Dorfman calculus
runs in full (n+r)-dimensional coordinates.  Agreement of the two routes
is the package's master invariant.

A lifted section is a pair of `Section`s over the `Patch` of a
`TotalPatch`, a vector field and a 1-form, so the total-space calculus is
the `Section` calculus of `bundle`: Section `-` and `scale`, `dual_pair`,
`vf_apply`, `vf_bracket` and the other Cartan kernels (handed the
sections' views), `column_section` for the contraction with a fixed
two-form or bivector, and `HomSection.transpose`.  Every
vector field and form on the total space is built from its base and fiber
parts by `TotalPatch.field`, and every fiberwise-linear function
sum_k c_k(x) y_k by `TotalPatch.linear`; a bundle map on the tautological
section, such as the lift of Delta_v(e, 0) or nabla_X, is
`TotalPatch.tautological` of a `HomSection`.  The generator
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
`GeneratorAlgebra` lives as long as the algebra.  The splitting theorems
run `total_courant` on frame lifts only and derive each case with a
battery function in a slot by `courant_right` and `courant_left`, the
Leibniz rules of the total-space bracket.  B2 lifts (Delta_v sigma)^ on
the frames only; each of its scaled cases reads its value of the
connection's own table in base coordinates, and lifts the defect of a
Leibniz rule of Delta only where it is nonzero.  A frame section times
a battery function is read from the battery of its bundle
(Bundle.battery), and frame data (anchor images, the brackets [a, e_l])
from the bracket and its battery table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from .algebroid import AnchoredBracket, BatteryTable, record_jacobi
from .bundle import (COTM, TM, Battery, Bundle, BundleError, HomSection,
                     Patch, Section, column_section, column_table, courant_dorfman_form_part,
                     d_scalar, db_canonical, dual_pair, lie_derivative_form, two_form_of_oneform,
                     vf_apply, vf_apply_each, vf_bracket)
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

    def field(self, kind: str, base: Sequence[ScalarPoly] = (),
              fiber: Sequence[ScalarPoly] = ()) -> Section:
        """The vector field (kind TM) or 1-form (kind T*M) on the total space
        whose components are base along the base coordinates and fiber along
        the fiber coordinates, total-space polynomials; a part not given is
        zero, and the shared zero section when neither is given."""
        bundle = Bundle.tangent(self.patch) if kind == TM else Bundle.cotangent(self.patch)
        if not base and not fiber:
            return bundle.zero_section()
        zero = self.zero()
        return Section(bundle, (tuple(base) or (zero,) * len(self.base_coords))
                       + (tuple(fiber) or (zero,) * len(self.fiber_coords)))

    def linear(self, coeffs: Sequence[ScalarPoly]) -> ScalarPoly:
        """The fiberwise-linear function sum_k c_k(x) y_k of base coefficients c_k."""
        total = self.zero()
        for c, y in zip(coeffs, self._fibers, strict=True):
            if not c.is_zero():
                total = total + self.embed(c) * y
        return total

    def tautological(self, hom: HomSection) -> List[ScalarPoly]:
        """hom on the tautological section sum_l y_l e_l of its source, the
        bundle of these fibers: component m is sum_l hom_ml(x) y_l."""
        return [self.linear(row) for row in hom.matrix]

    @cached_property
    def _fibers(self) -> Tuple[ScalarPoly, ...]:
        return tuple(self.patch.coord(y) for y in self.fiber_coords)


def total_patch_of(bundle: Bundle, prefix: str = "y") -> TotalPatch:
    """The total space of bundle: the base coordinates, then a fiber
    coordinate <prefix>k per frame element, the prefix's letter repeated
    (y1, then yy1, ...) until no fiber name is a base coordinate."""
    coords = bundle.patch.coords
    while any(f"{prefix}{k + 1}" in coords for k in range(bundle.rank)):
        prefix += prefix[-1]
    return TotalPatch(coords, tuple(f"{prefix}{k + 1}" for k in range(bundle.rank)))


class LiftedSection:
    """A section of TE + T*E over E: a vector field `vf` and a 1-form `form`
    on the total space, sections of Bundle.tangent and Bundle.cotangent of
    a TotalPatch's patch, which carry its calculus."""

    __slots__ = ("vf", "form")

    def __init__(self, vf: Section, form: Section):
        self.vf = vf
        self.form = form

    def __add__(self, other: "LiftedSection") -> "LiftedSection":
        return LiftedSection(self.vf + other.vf, self.form + other.form)

    def __sub__(self, other: "LiftedSection") -> "LiftedSection":
        return LiftedSection(self.vf - other.vf, self.form - other.form)

    def scale(self, factor: ScalarPoly) -> "LiftedSection":
        return LiftedSection(self.vf.scale(factor), self.form.scale(factor))

    def is_zero(self) -> bool:
        return self.vf.is_zero() and self.form.is_zero()

    def __str__(self) -> str:
        names = self.vf.bundle.patch.coords
        vf = " + ".join(f"({c})*d/d{names[k]}" for k, c in self.vf.nonzero())
        fm = " + ".join(f"({c})*d{names[k]}" for k, c in self.form.nonzero())
        return f"({vf or '0'}; {fm or '0'})"


# -- lifts -------------------------------------------------------------------


def lift_core(tp: TotalPatch, delta: DorfmanConnection, sigma: Section) -> LiftedSection:
    """(f, theta)^ : vertical part f_k(x) d/dy_k plus the pullback form,
    for sigma = (f, theta) in the B = E + T*M of delta; a zero sigma lifts
    to the shared zero sections."""
    if not sigma.nonzero():
        return LiftedSection(tp.field(TM), tp.field(COTM))
    return _core_lift(tp, delta, [tp.embed(c) for c in sigma.coeffs])


def lift_linear(tp: TotalPatch, delta: DorfmanConnection, v: Section,
                cols: Sequence[Section] | None = None) -> LiftedSection:
    """The horizontal lift of v = (X, xi) through the connection.

    Evaluated on the tautological section with frozen fiber values:
    tangent part T e X minus the vertical lift of Delta_v(e, 0), cotangent
    part d l_xi minus the pullback of the T*M-component.  cols, when given,
    are the values Delta_v(e_m, 0) over the frame of E.
    """
    b = delta.b
    ell = tp.linear(v.component(delta.e.dual()).coeffs)
    d_ell = Section(Bundle.cotangent(tp.patch), [ell.partial(y) for y in tp.allvars])
    x = v.component(Bundle.tangent(b.patch))
    horizontal = LiftedSection(tp.field(TM, base=[tp.embed(c) for c in x.coeffs]), d_ell)
    # Delta_v(e, 0) on the tautological section e = sum_l y_l e_l
    if cols is None:
        cols = [delta.apply(v, b.frame_section(m)) for m in b.positions(delta.e)]
    return horizontal - vertical_hom(tp, delta, HomSection.from_columns(delta.e, b, cols))


def vertical_hom(tp: TotalPatch, delta: DorfmanConnection, hom: HomSection) -> LiftedSection:
    """Phi^ for Phi: E -> E + T*M, evaluated on the tautological section."""
    return _core_lift(tp, delta, tp.tautological(hom))


def _core_lift(tp: TotalPatch, delta: DorfmanConnection,
               comps: Sequence[ScalarPoly]) -> LiftedSection:
    # comps is a total-space vector in B = E + T*M, by frame position: the
    # E-part is a vertical vector field, the T*M-part a form along the base
    b = delta.b
    vec, cotm = b.positions(delta.e), b.positions(Bundle.cotangent(b.patch))
    return LiftedSection(tp.field(TM, fiber=comps[vec.start:vec.stop]),
                         tp.field(COTM, base=comps[cotm.start:cotm.stop]))


# -- total-space Courant calculus --------------------------------------------


def total_pairing(s1: LiftedSection, s2: LiftedSection) -> ScalarPoly:
    return dual_pair(s1.form, s2.vf) + dual_pair(s2.form, s1.vf)


def total_courant(s1: LiftedSection, s2: LiftedSection) -> LiftedSection:
    form = courant_dorfman_form_part(s1.vf.nonzero(), s1.form.nonzero(), s2.vf.nonzero(),
                                     s2.form.nonzero(), s1.vf.bundle.patch)
    return LiftedSection(vf_bracket(s1.vf, s2.vf), Section(s1.form.bundle, form))


def courant_right(a: LiftedSection, b: LiftedSection, ab: LiftedSection,
                  psi: ScalarPoly) -> LiftedSection:
    """[a, psi b] = psi [a, b] + X(psi) b from ab = [a, b] (total_courant),
    X the vector field of a.  Proof: [X, psi Y] = psi [X, Y] + X(psi) Y and
    L_X (psi eta) - i_{psi Y} d theta = psi (L_X eta - i_Y d theta) + X(psi) eta."""
    x_psi = vf_apply(ab.vf.bundle.patch, a.vf.nonzero(), psi)
    value = ab.scale(psi)
    return value + b.scale(x_psi) if x_psi._terms else value


def courant_left(a: LiftedSection, b: LiftedSection, ab: LiftedSection, ab_pair: ScalarPoly,
                 phi: ScalarPoly) -> LiftedSection:
    """[phi a, b] = phi [a, b] - Y(phi) a + <a, b> d phi from ab = [a, b] and
    ab_pair = <a, b> (total_pairing), Y the vector field of b.  Proof, for
    a = X + theta and b = Y + eta: [phi X, Y] = phi [X, Y] - Y(phi) X,
    L_{phi X} eta = phi L_X eta + eta(X) d phi and i_Y d(phi theta) =
    phi i_Y d theta + Y(phi) theta - theta(Y) d phi."""
    patch = ab.vf.bundle.patch
    value = ab.scale(phi)
    y_phi = vf_apply(patch, b.vf.nonzero(), phi)
    if y_phi._terms:
        value = value - a.scale(y_phi)
    if ab_pair._terms:
        value = LiftedSection(value.vf, value.form + d_scalar(patch, phi).scale(ab_pair))
    return value


# -- the splitting theorems ---------------------------------------------------


def verify_splitting_theorems(delta: DorfmanConnection) -> CheckReport:
    """Total-space verification of the six pairing/bracket identities.

    (P1) <v1~, v2~> = l_{Skew(v1,v2)};  (P2) <v~, sigma^> = q*<v, sigma>;
    (P3) <sigma1^, sigma2^> = 0;  (B1) [sigma1^, sigma2^] = 0;
    (B2) [v~, sigma^] = (Delta_v sigma)^;
    (B3) [v1~, v2~] = [[v1,v2]]~ - R(v1,v2)(., 0)^.

    B2 (`bracket-linear-core`) records F(phi q_i; s) = [phi q_i~, s^] -
    (Delta_{phi q_i} s)^ for frame q_i, phi pulled back, and s over the
    battery of B.  `total_courant` runs on the B-frame only, for the frame
    defects F_m = F(q_i; b_m).  Write <a, b> = a.form(b.vf) + b.form(a.vf)
    on the total space (`total_pairing`, no factor 1/2) and <q, s> for the
    pre-dual pairing, rho_i for the anchor of q_i, and X and Y for the
    vector fields of q_i~ and s^.  Then

        F(q_i; psi b_m) = psi F_m + (X(psi) - rho_i(psi)) b_m^ - B^,
            B = Delta_{q_i}(psi b_m) - psi Delta_{q_i} b_m - rho_i(psi) b_m;
        F(phi q_i; s) = phi F(q_i; s) - Y(phi) q_i~ + <q_i~, s^> dphi
                        - <q_i, s> (d_B phi)^ - A^,
            A = Delta_{phi q_i} s - phi Delta_{q_i} s - <q_i, s> d_B phi.

    Proof: `courant_right` gives [q_i~, psi b_m^] = psi [q_i~, b_m^] +
    X(psi) b_m^, and `courant_left` gives [phi q_i~, s^] = phi [q_i~, s^] -
    Y(phi) q_i~ + <q_i~, s^> dphi; both are exact rules of the total-space
    bracket for any two lifted sections.  `lift_core` is C-infinity(M)-
    linear, so (psi b_m)^ = psi b_m^, and by the definitions of B and A,
    (Delta_{q_i}(psi b_m))^ = psi (Delta_{q_i} b_m)^ + rho_i(psi) b_m^ + B^
    and (Delta_{phi q_i} s)^ = phi (Delta_{q_i} s)^ + <q_i, s> (d_B phi)^
    + A^.  Subtracting gives both lines.

    A and B vanish for a Leibniz extension of Delta, and the other new
    terms for the vertical core lift when rho = pr_TM; none is assumed
    zero.  A and B are formed in base coordinates from every table value
    Delta_{s_p} t_q the case reads, X(psi) - rho_i(psi) once per (i, psi),
    and the dphi term as (<q_i~, s^> - <q_i, s>) dphi + <q_i, s> (dphi -
    (d_B phi)^), from the `pairing-linear-core` value and one lift of d_B
    phi per function; a term is lifted or added only where it is nonzero.
    """
    chk = Checker("splitting-theorems",
                  "lifted sections reproduce the connection calculus exactly")
    q, b, e_bundle = delta.q, delta.b, delta.e
    tp = total_patch_of(e_bundle)
    q_batt, b_batt = delta.battery_table.rows, delta.battery_table.cols
    q_frames = q.frame_sections()
    e_frames = [b.frame_section(m) for m in b.positions(e_bundle)]
    # applied[i][m] = Delta_{q_i}(e_m, 0): the lift of q_i and its l-calculus
    applied = [[delta.battery_apply(p, b_batt.frames[m]) for m in b.positions(e_bundle)]
               for p in q_batt.frames]
    lifts = [lift_linear(tp, delta, v, cols) for v, cols in zip(q_frames, applied)]
    cores = [(label, s, lift_core(tp, delta, s))
             for label, s in zip(b_batt.labels, b_batt.sections)]

    for i, p1 in enumerate(q_batt.frames):
        for j, p2 in enumerate(q_batt.frames):
            # l of the E*-part of the symmetrization
            ell = tp.linear(delta.battery_skew(p1, p2).component(e_bundle.dual()).coeffs)
            chk.record("pairing-linear-linear", f"({q.frame[i]}; {q.frame[j]})",
                       total_pairing(lifts[i], lifts[j]) - ell)
    # base_pairs[i][t] = <q_i, s_t>, read again by bracket-linear-core
    base_pairs = [[delta.predual.pair(v, s) for _, s, _ in cores] for v in q_frames]
    pair_defects = [[total_pairing(lift, core) - tp.embed(p) for (_, _, core), p in zip(cores, row)]
                    for lift, row in zip(lifts, base_pairs)]
    for i in range(q.rank):
        for (label_s, _, _), value in zip(cores, pair_defects[i]):
            chk.record("pairing-linear-core", f"({q.frame[i]}; {label_s})", value)
    # the cases with a battery function in a slot follow from frame brackets,
    # right slot first: right(a)[t] = [a, s_t^]
    functions = [tp.embed(phi) for phi in b_batt.functions]
    factors = [b_batt.factors(t) for t in range(len(cores))]
    frame_cores = [cores[t][2] for t in b_batt.frames]

    def right(a: LiftedSection) -> List[LiftedSection]:
        brackets = [total_courant(a, c) for c in frame_cores]
        return [courant_right(a, frame_cores[m], brackets[m], functions[g]) for m, g in factors]

    core_rows = [(c, right(c), [total_pairing(c, core) for _, _, core in cores])
                 for c in frame_cores]
    for label1, (m1, f1) in zip(b_batt.labels, factors):
        c1, rights, pairs = core_rows[m1]
        phi = functions[f1]
        for (label2, _, c2), paired, value in zip(cores, pairs, rights):
            chk.record("pairing-core-core", f"({label1}; {label2})",
                       paired * phi if paired._terms else paired)
            chk.record("bracket-core-core", f"({label1}; {label2})",
                       courant_left(c1, c2, value, paired, phi) if f1 else value)
    # B2 from the frame defects [q_i~, b_m^] - (Delta_{q_i} b_m)^ and the
    # base defects A and B of the Leibniz rules of Delta (see the docstring)
    base, anchors = q.patch, delta.bracket.frame_table.anchors
    base_functions, b_frames = b_batt.functions, [b_batt.sections[t] for t in b_batt.frames]
    d_b = [delta.predual.d(phi) for phi in base_functions]
    d_forms = [d_scalar(tp.patch, phi) for phi in functions]
    # dphi - (d_B phi)^, zero for a vertical core lift
    d_shifts = [LiftedSection(tp.field(TM), form) - lift_core(tp, delta, db)
                for form, db in zip(d_forms, d_b)]
    # y_phis[f][t] = Y(phi), Y the vector field of s_t^
    y_phis = [[vf_apply(tp.patch, core.vf.nonzero(), phi) for _, _, core in cores]
              for phi in functions]
    for i, lift in enumerate(lifts):
        row, x_terms = q_batt.frames[i], lift.vf.nonzero()
        values = [delta.battery_apply(row, t) for t in range(len(cores))]  # Delta_{q_i} s_t
        frame_defects = [total_courant(lift, c) - lift_core(tp, delta, values[t])
                         for c, t in zip(frame_cores, b_batt.frames)]
        rho_psi = [vf_apply(base, anchors[i], psi) for psi in base_functions]
        # X(psi) - rho_i(psi), X the vector field of q_i~
        x_shifts = [vf_apply(tp.patch, x_terms, psi) - tp.embed(r)
                    for psi, r in zip(functions, rho_psi)]
        defects = []  # defects[t] = [q_i~, s_t^] - (Delta_{q_i} s_t)^
        for t, (m, g) in enumerate(factors):
            value = frame_defects[m]
            if g:
                value = value.scale(functions[g])
                if x_shifts[g]._terms:
                    value = value + frame_cores[m].scale(x_shifts[g])
                b_defect = (values[t] - values[b_batt.frames[m]].scale(base_functions[g])
                            - b_frames[m].scale(rho_psi[g]))
                if not b_defect.is_zero():
                    value = value - lift_core(tp, delta, b_defect)
            defects.append(value)
        for f, (phi, text) in enumerate(zip(functions, q_batt.texts)):
            for t, (label_s, _, _) in enumerate(cores):
                value = defects[t]
                if f:
                    if not value.is_zero():
                        value = value.scale(phi)
                    y_phi = y_phis[f][t]
                    if y_phi._terms:
                        value = value - lift.scale(y_phi)
                    paired, defect = base_pairs[i][t], pair_defects[i][t]
                    if defect._terms:
                        value = LiftedSection(value.vf, value.form + d_forms[f].scale(defect))
                    if paired._terms and not d_shifts[f].is_zero():
                        value = value + d_shifts[f].scale(tp.embed(paired))
                    a_defect = (delta.battery_apply(q_batt.pos(i, f), t)
                                - values[t].scale(base_functions[f]) - d_b[f].scale(paired))
                    if not a_defect.is_zero():
                        value = value - lift_core(tp, delta, a_defect)
                chk.record("bracket-linear-core", f"(({text})*{q.frame[i]}; {label_s})", value)
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
            lhs = vf_apply(tp.patch, lifts[i].vf.nonzero(), tp.linear(eta.coeffs))
            x_eta = vf_apply_each(delta.bracket.frame_table.anchors[i], eta)
            rhs = tp.linear([x - dual_pair(eta, value.component(e_bundle))
                             for x, value in zip(x_eta, applied[i])])
            chk.record("ell-calculus", f"({q.frame[i]}; {label_eta})", lhs - rhs)
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
    tp = total_patch_of(delta.e)
    n, r = len(tp.base_coords), len(tp.fiber_coords)

    u_lifts = [lift_linear(tp, delta, u) for u in u_sub.sections]
    k_lifts = [lift_core(tp, delta, k) for k in k_sub.sections]
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
                       _closure_residual(tp, triple, u_lifts, total_courant(s1, s2)))

    verdicts = dirac_verdicts(check_dirac(triple))
    geometric = (chk.sub_passed("rank") and chk.sub_passed("isotropic")
                 and chk.sub_passed("closure"))
    chk.note(f"verdict geometric-dirac: {geometric}")
    chk.require("matches-algebraic", f"algebraic dirac = {verdicts.get('dirac')}",
                verdicts.get("dirac") == geometric,
                "algebraic and geometric verdicts differ")
    return chk.report()


def _closure_residual(tp: TotalPatch, triple: VBTriple, u_lifts: Sequence[LiftedSection],
                      section: LiftedSection) -> LiftedSection:
    """The part of a lifted section outside the module spanned by D's frames.

    u_lifts are the linear lifts of the U-frame, in order; the result is
    zero exactly when the section lies in D.
    """
    # the (d/dx, dy) components are constant-coefficient in the U-frame:
    # solve for the linear coefficients, subtract, then match core parts
    n = len(tp.base_coords)
    projected = LiftedSection(tp.field(TM, base=section.vf.coeffs[:n]),
                              tp.field(COTM, fiber=section.form.coeffs[n:]))
    u_coords, u_rest = triple.u_sub.split(projected.vf.nonzero() + projected.form.nonzero(),
                                          tp.zero())
    if any(c._terms for c in u_rest):
        # the projection already fails to lie over U
        return projected
    remainder = section
    for coeff, lift in zip(u_coords, u_lifts):
        if coeff._terms:
            remainder = remainder - lift.scale(coeff)
    # remainder must be a K-core combination: no d/dx, no dy components
    vf, form = remainder.vf.nonzero(), remainder.form.nonzero()
    if any(k < n for k, _ in vf) or any(k >= n for k, _ in form):
        return remainder
    # the core vector in (E-part, T*M-part) frame positions, K's ambient
    b = triple.delta.b
    vec, cotm = b.positions(triple.delta.e), b.positions(Bundle.cotangent(b.patch))
    _, rest = triple.k_sub.split([(vec[k - n], c) for k, c in vf]
                                 + [(cotm[k], c) for k, c in form], tp.zero())
    if any(c._terms for c in rest):
        return remainder
    return LiftedSection(tp.field(TM), tp.field(COTM))


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

    # the Poisson bivector P, whose contraction with a form is the sharp map:
    # (sharp form)_b = sum_a form_a P[a][b], the transpose of P times form
    table = column_table([[coord_bracket(a, b) for a in range(n + r)] for b in range(n + r)],
                         n + r)
    tangent, cotangent = Bundle.tangent(tp.patch), Bundle.cotangent(tp.patch)

    def sharp(form: Section) -> Section:
        return column_section(tangent, table, form.nonzero())

    no_form = cotangent.zero_section()

    ct_batt, a_batt = Bundle.cotangent(base).battery, a_bundle.battery
    rho_star = lad.bracket.anchor.transpose()
    for label, theta in zip(ct_batt.labels, ct_batt.sections):
        lhs = sharp(tp.field(COTM, base=[tp.embed(c) for c in theta.coeffs]))
        # -(rho* theta)^: vertical with components -<theta, rho(e_k)>
        rhs = tp.field(TM, fiber=[-tp.embed(c) for c in rho_star.apply(theta).coeffs])
        chk.record("sharp-of-pullback", label, LiftedSection(lhs - rhs, no_form))
    for p, (label, a) in enumerate(zip(a_batt.labels, a_batt.sections)):
        ell = tp.linear(a.coeffs)
        lhs = sharp(Section(cotangent, [ell.partial(v) for v in tp.allvars]))
        # rho(a)~ : T xi rho(a) minus the vertical correction by L_a xi, where
        # <L_a xi, e_l> is taken with xi the frozen tautological section
        rhs = tp.field(TM, base=[tp.embed(c) for c in lad.bracket.rho(a).coeffs],
                       fiber=[tp.linear(lad.bracket.battery_bracket(p, t).coeffs)
                              for t in a_batt.frames])
        chk.record("sharp-of-linear", label, LiftedSection(lhs - rhs, no_form))
    return chk.report()


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
    theta = tp.field(COTM, base=tp.tautological(sigma))
    # (flat v)_j = sum_i v_i w[i][j], the transpose of w times v
    w = column_table(list(zip(*two_form_of_oneform(tp.allvars, theta.coeffs))), n + r)
    no_vf = tp.field(TM)

    # omega(v1, v2) = <flat(v1), v2>, so each flat below is taken once
    def flat(v: Section) -> Section:
        return column_section(theta.bundle, w, v.nonzero())

    def linear_lift(x: Section) -> Section:
        # X~ = hat(nabla_X): horizontal plus the -Gamma correction
        nabla_x = HomSection.from_columns(e_bundle, e_bundle, [conn.nabla(x, e) for e in e_frames])
        return tp.field(TM, base=[tp.embed(c) for c in x.coeffs],
                        fiber=[-c for c in tp.tautological(nabla_x)])

    def core_lift(e: Section) -> Section:
        return tp.field(TM, fiber=[tp.embed(c) for c in e.coeffs])

    x_frames, x_batt, x_names = tangent.frame_sections(), tangent.battery, tangent.frame
    x_flats = [flat(linear_lift(x)) for x in x_frames]
    cores = [(label, e, core_lift(e))
             for label, e in zip(e_bundle.battery.labels, e_bundle.battery.sections)]
    for i, (x, x_flat) in enumerate(zip(x_frames, x_flats)):
        for j in range(n):
            for f, text in enumerate(x_batt.texts):
                ys = x_batt.sections[x_batt.pos(j, f)]
                lhs = dual_pair(x_flat, linear_lift(ys))
                value = (conn.nabla_dual(x, sigma_star.apply(ys))
                         - conn.nabla_dual(ys, sigma_star.apply(x))
                         - sigma_star.apply(vf_bracket(x, ys)))
                chk.record("two-form-linear-linear", f"({x_names[i]}; ({text})*{x_names[j]})",
                           lhs - tp.linear(value.coeffs))
        for label_e, e, core in cores:
            lhs = dual_pair(x_flat, core)
            rhs = -tp.embed(dual_pair(sigma.apply(e), x))
            chk.record("two-form-linear-core", f"({x_names[i]}; {label_e})", lhs - rhs)
    for label1, _, core1 in cores:
        core_flat = flat(core1)
        for label2, _, core2 in cores:
            chk.record("two-form-core-core", f"({label1}; {label2})", dual_pair(core_flat, core2))

    # flat maps: omega-flat(X~) = d l_{-sigma* X} + (L_X(sigma .) - sigma(nabla_X .))^
    for i, (x, x_flat) in enumerate(zip(x_frames, x_flats)):
        ell = tp.linear(sigma_star.apply(x).coeffs)
        cols = [lie_derivative_form(x, sigma.apply(e)) - sigma.apply(conn.nabla(x, e))
                for e in e_frames]
        pulled = tp.field(COTM, base=tp.tautological(
            HomSection.from_columns(e_bundle, sigma.target, cols)))
        d_ell = Section(theta.bundle, [ell.partial(v) for v in tp.allvars])
        chk.record("flat-of-linear", x_names[i],
                   LiftedSection(no_vf, x_flat + d_ell - pulled))
    for l, e_l in enumerate(e_frames):
        expected = tp.field(COTM, base=[tp.embed(c) for c in sigma.apply(e_l).coeffs])
        chk.record("flat-of-core", e_bundle.frame[l],
                   LiftedSection(no_vf, flat(core_lift(e_l)) - expected))
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
        # partner[j] = index m with <v_j, tau_m> = 1: TM + A* pairs with T*M + A
        self.partner = [*lad.sigma_bundle.positions(Bundle.cotangent(lad.base)),
                        *lad.sigma_bundle.positions(lad.a_bundle)]
        self._lin = Bundle.vector(self.tp.patch, "lin", (f + "~" for f in lad.a_bundle.frame))
        self._core = Bundle.vector(self.tp.patch, "core",
                                   (f + "!" for f in lad.sigma_bundle.frame))
        self.bundle = self._lin + self._core
        gens = range(self.bundle.rank)
        anchor = HomSection.from_columns(self.bundle, Bundle.tangent(self.tp.patch),
                                         [self._theta_generator(k) for k in gens])
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
        return self.bundle.join(Section(self._core, self.tp.tautological(hom)))

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
                x = v.component(Bundle.tangent(base))
                xi = v.component(self.lad.a_bundle.dual())
                x_phi = vf_apply(base, x.nonzero(), phi)
                col = (self.lad.sigma_bundle.join(e_k).scale(x_phi)
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

    def _theta_generator(self, k: int) -> Section:
        r = self.lad.a_bundle.rank
        taus = [self.lad.sigma_bundle.frame_section(m) for m in self.partner]
        if k < r:
            a = self.lad.a_bundle.frame_section(k)
            v_frames = self.lad.v_bundle.frame_sections()
            lied = [self.lad.lie_der_sigma(a, tau) for tau in taus]
            # l_{L_a tau} = sum_j' w_j' <v_j', L_a tau>
            return self.tp.field(
                TM, base=[self.tp.embed(c) for c in self.lad.bracket.frame_rho[k]],
                fiber=[self.tp.linear([self.delta.predual.pair(v, lie) for v in v_frames])
                       for lie in lied])
        up = self.lad.pair_map.apply(self.lad.sigma_bundle.frame_section(k - r))
        return self.tp.field(TM, fiber=[self.tp.embed(self.delta.predual.pair(up, tau))
                                        for tau in taus])

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

    def theta(self, elem: Section) -> Section:
        """The anchor of elem: a vector field on the total space."""
        return self.anchored.rho(elem)

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
    r = lad.a_bundle.rank
    gens, names = alg.bundle.frame_sections(), alg.bundle.frame
    factors = [tp.fiber(idx % len(tp.fiber_coords)) if tp.fiber_coords else tp.one()
               for idx in range(len(gens))]

    # (i) antisymmetry, Jacobi, anchor morphism over the generators and their weighted copies
    elems = Battery(names + tuple(f"({c})*{name}" for c, name in zip(factors, names)),
                    tuple(gens + [gen.scale(c) for c, gen in zip(factors, gens)]),
                    tuple(range(len(gens))))
    table = BatteryTable(elems, elems)
    anchors = [alg.theta(e) for e in elems.sections]
    no_form = tp.field(COTM)
    for p, n1 in enumerate(elems.labels):
        for q, n2 in enumerate(elems.labels):
            value = table.get(alg.bracket, p, q)
            chk.record("table-antisymmetric", f"({n1}; {n2})",
                       value + table.get(alg.bracket, q, p))
            rhs = vf_bracket(anchors[p], anchors[q])
            chk.record("anchor-morphism", f"({n1}; {n2})",
                       LiftedSection(alg.theta(value) - rhs, no_form))
    # third slot: the generators and the first two weighted ones
    record_jacobi(chk, "jacobi", table, alg.bracket,
                  third=range(len(gens) + min(2, len(gens))))

    # hom-generator rows of the table
    homs = _battery_homs(lad)
    pm = lad.pair_map
    a_frames, a_names = lad.a_bundle.frame_sections(), lad.a_bundle.frame
    for h_i, hom in enumerate(homs):
        hd = alg.hom_dagger(hom)
        for k, a in enumerate(a_frames):
            lhs = alg.bracket(gens[k], hd)
            cols = []
            for v in lad.v_bundle.frame_sections():
                cols.append(lad.lie_der_sigma(a, hom.apply(v))
                            - hom.apply(lad.lie_der_v(a, v)))
            rhs = alg.hom_dagger(HomSection.from_columns(lad.v_bundle, lad.sigma_bundle, cols))
            chk.record("row-lin-hom", f"({a_names[k]}~; Phi{h_i + 1}!)", lhs - rhs)
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
                chk.record("sigma-bracket", f"(({text})*{a_names[i]}; {a_names[j]})", lhs - rhs)
            for m, sigma in enumerate(lad.sigma_bundle.frame_sections()):
                lhs = alg.bracket(sig_a, alg.dagger_of(sigma))
                rhs = alg.dagger_of(lad.basic_sigma(delta, ap, sigma))
                chk.record("sigma-core",
                           f"(({text})*{a_names[i]}; {lad.sigma_bundle.frame[m]}!)", lhs - rhs)
    for m1 in range(lad.sigma_bundle.rank):
        for m2 in range(lad.sigma_bundle.rank):
            chk.record("core-core", f"({m1 + 1}; {m2 + 1})",
                       alg.bracket(gens[r + m1], gens[r + m2]))

    # (iii) anchors
    taus = [lad.sigma_bundle.frame_section(m) for m in alg.partner]
    for i, a in enumerate(a_frames):
        fiber = []
        for tau in taus:
            # X<v, tau> with X = rho(a), differentiated where <v, tau> is nonzero
            paired = [delta.predual.pair(v, tau) for v in v_frames]
            fiber.append(tp.linear([
                (vf_apply(lad.base, lad.bracket.frame_table.anchors[i], p) if p._terms else p)
                - delta.predual.pair(lad.basic_v(delta, a, v), tau)
                for v, p in zip(v_frames, paired)]))
        expected = tp.field(TM, base=[tp.embed(c) for c in lad.bracket.frame_rho[i]],
                            fiber=fiber)
        chk.record("anchor-of-sigma", a_names[i],
                   LiftedSection(alg.theta(sig_frames[i]) - expected, no_form))
    for m, sigma in enumerate(lad.sigma_bundle.frame_sections()):
        up = lad.pair_map.apply(sigma)
        expected = tp.field(TM, fiber=[tp.embed(delta.predual.pair(up, tau)) for tau in taus])
        chk.record("anchor-of-core", f"{lad.sigma_bundle.frame[m]}!",
                   LiftedSection(alg.theta(alg.dagger_of(sigma)) - expected, no_form))
    return chk.report()


def _battery_homs(lad: LieAlgebroidData) -> List[HomSection]:
    """Two deterministic hom sections TM + A* -> A + T*M for the table rows."""
    src, tgt = lad.v_bundle, lad.sigma_bundle
    batt = tgt.battery
    r, w = tgt.rank, len(batt.functions)
    return [HomSection.from_columns(src, tgt, [batt.sections[batt.pos((j + s) % r, (j + s) % w)]
                                               for j in range(src.rank)])
            for s in (0, 1)]
