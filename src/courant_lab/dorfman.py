"""Dorfman connections on pre-dual pairs of bundles.

A Dorfman connection Delta: Gamma(Q) x Gamma(B) -> Gamma(B) is stored by
its frame symbols and extended to arbitrary sections by

    Delta_{phi q} b = phi Delta_q b + <q, b> d_B phi,
    Delta_q (phi b) = phi Delta_q b + rho(q)(phi) b.

With the canonical nondegenerate pairing the connection is equivalent to
its dual dull bracket via

    rho(q) <q', b> = <[q, q'], b> + <q', Delta_q b>,

and both conversion directions are implemented here, together with the
curvature, the skew-symmetrization tensor, and the standard constructions
from ordinary connections and from isotropic subalgebroids.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .algebroid import AnchoredBracket, battery_sections
from .bundle import (Bundle, BundleError, HomSection, Section, SubBundle,
                     battery_functions, canonical_pairing, pairing_matrix,
                     vf_apply, vf_bracket, lie_derivative_form)
from .linalg import invert
from .poly import ScalarPoly
from .report import Checker, CheckReport, ERROR


class Connection(object):
    """Christoffel data for an ordinary TM-connection on a bundle E."""

    def __init__(self, bundle: Bundle, gamma: Sequence[Sequence[Section]]):
        n = bundle.patch.dim
        if len(gamma) != n or any(len(row) != bundle.rank for row in gamma):
            raise BundleError("need nabla_{d/dx_i} e_l for every i, l")
        self.bundle = bundle
        self.gamma = [list(row) for row in gamma]

    @classmethod
    def flat(cls, bundle: Bundle) -> "Connection":
        z = bundle.zero_section()
        return cls(bundle, [[z] * bundle.rank for _ in range(bundle.patch.dim)])

    def nabla(self, x: Section, e: Section) -> Section:
        """nabla_X e with the usual Leibniz rules, coefficientwise."""
        base = self.bundle.patch
        out = self.bundle.zero_section()
        frames = self.bundle.frame_sections()
        for l, psi in enumerate(e.coeffs):
            if psi.is_zero():
                continue
            for i, coord in enumerate(base.coords):
                xi = x.coeffs[i]
                if xi.is_zero():
                    continue
                out = out + frames[l].scale(xi * psi.partial(coord))
                out = out + self.gamma[i][l].scale(xi * psi)
        return out

    def nabla_dual(self, x: Section, xi: Section) -> Section:
        """<nabla*_X xi, e_l> = X<xi, e_l> - <xi, nabla_X e_l>."""
        dual = self.bundle.dual()
        if xi.bundle != dual:
            raise BundleError("nabla_dual expects a section of the dual bundle")
        base = self.bundle.patch
        comps = []
        for l in range(self.bundle.rank):
            value = vf_apply(base.coords, x.coeffs, xi.coeffs[l])
            value = value - canonical_pairing(xi, self.nabla(x, self.bundle.frame_section(l)))
            comps.append(value)
        return Section(dual, tuple(comps))

    def curvature(self, x: Section, y: Section, e: Section) -> Section:
        return (self.nabla(x, self.nabla(y, e)) - self.nabla(y, self.nabla(x, e))
                - self.nabla(vf_bracket(x, y), e))


class PreDual:
    """A bundle B paired with Q, with d_B phi = dmat . grad(phi)."""

    def __init__(self, q: Bundle, b: Bundle, pairing: Sequence[Sequence[ScalarPoly]],
                 dmat: Sequence[Sequence[ScalarPoly]], canonical: bool = False):
        if len(pairing) != q.rank or any(len(row) != b.rank for row in pairing):
            raise BundleError("pairing matrix shape mismatch")
        if len(dmat) != b.rank or any(len(row) != q.patch.dim for row in dmat):
            raise BundleError("d_B matrix shape mismatch")
        self.q = q
        self.b = b
        self.pairing = [list(row) for row in pairing]
        self.dmat = [list(row) for row in dmat]
        self.canonical = canonical

    def pair(self, q_sec: Section, b_sec: Section) -> ScalarPoly:
        total = self.q.patch.zero()
        for i, a in enumerate(q_sec.coeffs):
            if a.is_zero():
                continue
            for j, c in enumerate(b_sec.coeffs):
                if not (c.is_zero() or self.pairing[i][j].is_zero()):
                    total = total + a * c * self.pairing[i][j]
        return total

    def d(self, phi: ScalarPoly) -> Section:
        base = self.q.patch
        grad = [phi.partial(c) for c in base.coords]
        comps = []
        for row in self.dmat:
            value = base.zero()
            for entry, g in zip(row, grad):
                value = value + entry * g
            comps.append(value)
        return Section(self.b, tuple(comps))

    def constant_pairing(self) -> List[List[Fraction]]:
        return [[entry.constant_value() for entry in row] for row in self.pairing]


def canonical_predual(e_bundle: Bundle) -> PreDual:
    """Q = TM + E*, B = E + T*M with the canonical pairing and d_B = (0, d)."""
    base = e_bundle.patch
    q = Bundle.tangent(base) + e_bundle.dual()
    b = e_bundle + Bundle.cotangent(base)
    matrix = pairing_matrix(q, b)
    pairing = [[base.const(x) for x in row] for row in matrix]
    dmat = [[base.zero() for _ in range(base.dim)] for _ in range(b.rank)]
    sl = b.atom_slice(b.atom_index("T*M"))
    for i in range(base.dim):
        dmat[sl.start + i][i] = base.one()
    return PreDual(q, b, pairing, dmat, canonical=True)


def zero_predual(q: Bundle, b: Bundle) -> PreDual:
    """Trivial pairing and d_B; any Q-connection on B is then Dorfman."""
    base = q.patch
    z = base.zero()
    return PreDual(q, b, [[z] * b.rank for _ in range(q.rank)],
                   [[z] * base.dim for _ in range(b.rank)])


def pr_tm_hom(q: Bundle) -> HomSection:
    """Projection of Q onto its TM summand, as a HomSection Q -> TM."""
    tangent = Bundle.tangent(q.patch)
    matrix = [[q.patch.zero() for _ in range(q.rank)] for _ in range(tangent.rank)]
    sl = q.atom_slice(q.atom_index("TM"))
    for i in range(tangent.rank):
        matrix[i][sl.start + i] = q.patch.one()
    return HomSection(q, tangent, matrix)


class DorfmanConnection:
    """Frame symbols of Delta plus the dull bracket on Q it interacts with."""

    def __init__(self, predual: PreDual, bracket: AnchoredBracket,
                 symbols: Sequence[Sequence[Section]]):
        if bracket.bundle != predual.q:
            raise BundleError("the dull bracket must live on the acting bundle")
        if len(symbols) != predual.q.rank or any(len(r) != predual.b.rank for r in symbols):
            raise BundleError("need one symbol per (Q-frame, B-frame) pair")
        for row in symbols:
            for sec in row:
                if sec.bundle != predual.b:
                    raise BundleError("symbols must be sections of B")
        self.predual = predual
        self.bracket = bracket
        self.symbols = [list(row) for row in symbols]

    @property
    def q(self) -> Bundle:
        return self.predual.q

    @property
    def b(self) -> Bundle:
        return self.predual.b

    # -- application -----------------------------------------------------

    def apply(self, v: Section, s: Section) -> Section:
        if v.bundle != self.q or s.bundle != self.b:
            raise BundleError("apply expects sections of Q and B")
        out = self.b.zero_section()
        b_frames = self.b.frame_sections()
        q_frames = self.q.frame_sections()
        for i, phi in enumerate(v.coeffs):
            if phi.is_zero():
                continue
            for j, psi in enumerate(s.coeffs):
                if psi.is_zero():
                    continue
                out = out + self.symbols[i][j].scale(phi * psi)
                d_psi = self.bracket.rho_d(q_frames[i], psi)
                if not d_psi.is_zero():
                    out = out + b_frames[j].scale(phi * d_psi)
                pair = self.predual.pairing[i][j]
                if not pair.is_zero():
                    out = out + self.predual.d(phi).scale(psi * pair)
        return out

    # -- duality ---------------------------------------------------------

    def dual_bracket(self) -> AnchoredBracket:
        """The dull bracket on Q determined by the nondegenerate pairing."""
        p = invert(self.predual.constant_pairing())
        q_frames = self.q.frame_sections()
        r = self.q.rank
        table = []
        for i in range(r):
            row = []
            for j in range(r):
                values = []
                for k in range(self.b.rank):
                    values.append(self.bracket.rho_d(
                        q_frames[i], self.predual.pairing[j][k])
                        - self.predual.pair(q_frames[j], self.symbols[i][k]))
                coeffs = []
                for m in range(r):
                    total = self.q.patch.zero()
                    for k in range(self.b.rank):
                        total = total + values[k] * p[k][m]
                    coeffs.append(total)
                row.append(Section(self.q, tuple(coeffs)))
            table.append(row)
        return AnchoredBracket(self.q, self.bracket.anchor, table)

    @classmethod
    def from_dull(cls, bracket: AnchoredBracket, predual: PreDual) -> "DorfmanConnection":
        """Invert axiom (c): <q_j, Delta_{q_i} b_k> = rho(q_i)<q_j,b_k> - <[q_i,q_j],b_k>."""
        p = invert(predual.constant_pairing())
        q = predual.q
        q_frames = q.frame_sections()
        b_frames = predual.b.frame_sections()
        symbols = []
        for i in range(q.rank):
            row = []
            for k in range(predual.b.rank):
                rhs = []
                for j in range(q.rank):
                    rhs.append(bracket.rho_d(q_frames[i], predual.pairing[j][k])
                               - predual.pair(bracket.structure[i][j], b_frames[k]))
                comps = []
                for m in range(predual.b.rank):
                    total = q.patch.zero()
                    for j in range(q.rank):
                        total = total + p[m][j] * rhs[j]
                    comps.append(total)
                row.append(Section(predual.b, tuple(comps)))
            symbols.append(row)
        return cls(predual, bracket, symbols)

    def check_duality(self) -> CheckReport:
        """rho(v)<s,w> = <[v,w], s> + <w, Delta_v s> plus the symbol roundtrip."""
        chk = Checker("duality", "the connection and its dull bracket determine each other")
        for label_v, v in battery_sections(self.q):
            for j, w in enumerate(self.q.frame_sections()):
                for label_s, s in battery_sections(self.b):
                    lhs = self.bracket.rho_d(v, self.predual.pair(w, s))
                    rhs = (self.predual.pair(self.bracket.bracket(v, w), s)
                           + self.predual.pair(w, self.apply(v, s)))
                    chk.record("axiom-c", f"({label_v}; {self.q.frame[j]}; {label_s})", lhs - rhs)
        if self.predual.canonical:
            recovered = DorfmanConnection.from_dull(self.dual_bracket(), self.predual)
            for i in range(self.q.rank):
                for k in range(self.b.rank):
                    chk.record("roundtrip", f"({self.q.frame[i]}; {self.b.frame[k]})",
                               recovered.symbols[i][k] - self.symbols[i][k])
        if self.predual.canonical and any(a.kind == "T*M" for a in self.b.atoms):
            # Delta_v(0, theta) = (0, L_{pr_TM v} theta) on every representative
            ct = Bundle.cotangent(self.q.patch)
            ct_idx = self.b.atom_index("T*M")
            tm_sl = self.q.atom_slice(self.q.atom_index("TM"))
            for label_v, v in battery_sections(self.q):
                x = Section(Bundle.tangent(self.q.patch), v.coeffs[tm_sl])
                for j, theta in enumerate(ct.frame_sections()):
                    lifted = self.b.zero_section().with_part(ct_idx, theta.coeffs)
                    expected = self.b.zero_section().with_part(
                        ct_idx, lie_derivative_form(x, theta).coeffs)
                    chk.record("forms-rule", f"({label_v}; {ct.frame[j]})",
                               self.apply(v, lifted) - expected)
        return chk.report()

    # -- axioms -----------------------------------------------------------

    def check_axioms(self) -> CheckReport:
        chk = Checker("dorfman-axioms", "connection axioms (a), (b), (c)")
        functions = battery_functions(self.q.patch)
        q_frames = self.q.frame_sections()
        b_batt = battery_sections(self.b)
        for i, qf in enumerate(q_frames):
            qname = self.q.frame[i]
            for phi in functions:
                scaled_q = qf.scale(phi)
                for label_b, bsec in b_batt:
                    lhs = self.apply(scaled_q, bsec)
                    rhs = (self.apply(qf, bsec).scale(phi)
                           + self.predual.d(phi).scale(self.predual.pair(qf, bsec)))
                    chk.record("axiom-a", f"(({phi})*{qname}; {label_b})", lhs - rhs)
                for j, bf in enumerate(self.b.frame_sections()):
                    lhs = self.apply(qf, bf.scale(phi))
                    rhs = (self.apply(qf, bf).scale(phi)
                           + bf.scale(self.bracket.rho_d(qf, phi)))
                    chk.record("axiom-b", f"({qname}; ({phi})*{self.b.frame[j]})", lhs - rhs)
        for label_q, v in battery_sections(self.q):
            for j, w in enumerate(q_frames):
                for k, bf in enumerate(self.b.frame_sections()):
                    lhs = self.bracket.rho_d(v, self.predual.pair(w, bf))
                    rhs = (self.predual.pair(self.bracket.bracket(v, w), bf)
                           + self.predual.pair(w, self.apply(v, bf)))
                    chk.record("axiom-c", f"({label_q}; {self.q.frame[j]}; {self.b.frame[k]})",
                               lhs - rhs)
        return chk.report()

    # -- curvature ---------------------------------------------------------

    def curvature(self, v1: Section, v2: Section) -> HomSection:
        """R(v1,v2) = Delta_{v1} Delta_{v2} - Delta_{v2} Delta_{v1} - Delta_{[v1,v2]}."""
        lie = self.bracket.bracket(v1, v2)
        cols = []
        for bf in self.b.frame_sections():
            cols.append(self.apply(v1, self.apply(v2, bf))
                        - self.apply(v2, self.apply(v1, bf))
                        - self.apply(lie, bf))
        return HomSection.from_columns(self.b, cols)

    def curvature_raw(self, v1: Section, v2: Section, s: Section) -> Section:
        return (self.apply(v1, self.apply(v2, s)) - self.apply(v2, self.apply(v1, s))
                - self.apply(self.bracket.bracket(v1, v2), s))

    def check_curvature_tensorial(self) -> CheckReport:
        chk = Checker("curvature-tensorial",
                      "R(v,v') is C-infinity linear in every argument")
        functions = battery_functions(self.q.patch)
        q_frames = self.q.frame_sections()
        b_frames = self.b.frame_sections()
        for i, v1 in enumerate(q_frames):
            for j, v2 in enumerate(q_frames):
                base_hom = self.curvature(v1, v2)
                inputs = f"({self.q.frame[i]}; {self.q.frame[j]})"
                for phi in functions:
                    for k, bf in enumerate(b_frames):
                        chk.record("linear-in-b", inputs + f" on ({phi})*{self.b.frame[k]}",
                                   self.curvature_raw(v1, v2, bf.scale(phi))
                                   - base_hom.apply(bf).scale(phi))
                    for k, bf in enumerate(b_frames):
                        chk.record("linear-in-q1", f"(({phi})*{self.q.frame[i]}; "
                                   f"{self.q.frame[j]}) on {self.b.frame[k]}",
                                   self.curvature_raw(v1.scale(phi), v2, bf)
                                   - base_hom.apply(bf).scale(phi))
                        chk.record("linear-in-q2", f"({self.q.frame[i]}; "
                                   f"({phi})*{self.q.frame[j]}) on {self.b.frame[k]}",
                                   self.curvature_raw(v1, v2.scale(phi), bf)
                                   - base_hom.apply(bf).scale(phi))
        return chk.report()

    def curvature_vs_jacobiator(self) -> CheckReport:
        """<R(q1,q2) b, q3> equals the pairing with the bracket Jacobiator."""
        chk = Checker("curvature-jacobiator",
                      "curvature pairs as the Jacobiator of the dual bracket")
        q_frames = self.q.frame_sections()
        names = self.q.frame
        for i, q1 in enumerate(q_frames):
            for j, q2 in enumerate(q_frames):
                hom = self.curvature(q1, q2)
                for k, q3 in enumerate(q_frames):
                    triple = (self.bracket.bracket(self.bracket.bracket(q1, q2), q3)
                              + self.bracket.bracket(q2, self.bracket.bracket(q1, q3))
                              - self.bracket.bracket(q1, self.bracket.bracket(q2, q3)))
                    for label_b, bsec in battery_sections(self.b):
                        lhs = self.predual.pair(q3, hom.apply(bsec))
                        rhs = self.predual.pair(triple, bsec)
                        chk.record("pairing", f"({names[i]}; {names[j]}; {names[k]}; {label_b})",
                                   lhs - rhs)
        if self.predual.canonical and any(a.kind == "T*M" for a in self.b.atoms):
            ct_idx = self.b.atom_index("T*M")
            for i, q1 in enumerate(q_frames):
                for j, q2 in enumerate(q_frames):
                    hom = self.curvature(q1, q2)
                    for s in self.b.frame_sections()[self.b.atom_slice(ct_idx).start:]:
                        chk.record("vanishes-on-forms", f"({names[i]}; {names[j]}; {s})",
                                   hom.apply(s))
        return chk.report()

    # -- skew tensor ---------------------------------------------------------

    def skew_symmetrization(self, v1: Section, v2: Section) -> Section:
        """[[v1,v2]] + [[v2,v1]]; its E*-part is the skew tensor."""
        return self.bracket.bracket(v1, v2) + self.bracket.bracket(v2, v1)

    def skew_pair(self, v1: Section, v2: Section, e: Section) -> ScalarPoly:
        """<Skew(v1, v2), e> for an E-section e, via the canonical pairing."""
        full = self.skew_symmetrization(v1, v2)
        e_idx = self.b.atom_index("V")
        s = self.b.zero_section().with_part(e_idx, e.coeffs) if e.bundle != self.b else e
        return self.predual.pair(full, s)

    def check_skew(self) -> CheckReport:
        chk = Checker("skew", "symmetrized bracket is tensorial with vanishing TM part")
        tm = self.q.atom_index("TM")
        functions = battery_functions(self.q.patch)
        q_frames = self.q.frame_sections()
        for i, v1 in enumerate(q_frames):
            for j, v2 in enumerate(q_frames):
                sym = self.skew_symmetrization(v1, v2)
                inputs = f"({self.q.frame[i]}; {self.q.frame[j]})"
                for comp in sym.part(tm):
                    chk.record("tm-part", inputs, comp)
                for phi in functions:
                    chk.record("bilinear", inputs + f" scaled by {phi}",
                               self.skew_symmetrization(v1.scale(phi), v2)
                               - sym.scale(phi))
                    chk.record("bilinear", inputs + f" scaled by {phi} (right)",
                               self.skew_symmetrization(v1, v2.scale(phi))
                               - sym.scale(phi))
        return chk.report()

    def skew_is_zero(self) -> bool:
        q_frames = self.q.frame_sections()
        return all(self.skew_symmetrization(v1, v2).is_zero()
                   for v1 in q_frames for v2 in q_frames)


# -- constructions ----------------------------------------------------------


def standard_dorfman(conn: Connection) -> DorfmanConnection:
    """Delta_{(X,xi)}(e,theta) = (nabla_X e, L_X theta + <nabla*_. xi, e>)."""
    e_bundle = conn.bundle
    base = e_bundle.patch
    predual = canonical_predual(e_bundle)
    q, b = predual.q, predual.b
    tangent = Bundle.tangent(base)
    cotangent = Bundle.cotangent(base)
    e_idx, ct_idx = b.atom_index("V"), b.atom_index("T*M")
    tm_idx, es_idx = q.atom_index("TM"), q.atom_index("V*")
    dual_frames = e_bundle.dual().frame_sections()
    symbols = []
    for i in range(q.rank):
        row = []
        in_tm = q.atom_slice(tm_idx).start <= i < q.atom_slice(tm_idx).stop
        for j in range(b.rank):
            value = b.zero_section()
            in_e = b.atom_slice(e_idx).start <= j < b.atom_slice(e_idx).stop
            if in_tm:
                x = tangent.frame_section(i - q.atom_slice(tm_idx).start)
                if in_e:
                    e_sec = e_bundle.frame_section(j - b.atom_slice(e_idx).start)
                    value = value.with_part(e_idx, conn.nabla(x, e_sec).coeffs)
                else:
                    theta = cotangent.frame_section(j - b.atom_slice(ct_idx).start)
                    value = value.with_part(ct_idx, lie_derivative_form(x, theta).coeffs)
            else:
                xi = dual_frames[i - q.atom_slice(es_idx).start]
                if in_e:
                    e_sec = e_bundle.frame_section(j - b.atom_slice(e_idx).start)
                    # the 1-form  X |-> <nabla*_X xi, e>
                    comps = []
                    for l in range(base.dim):
                        xl = tangent.frame_section(l)
                        comps.append(canonical_pairing(conn.nabla_dual(xl, xi), e_sec))
                    value = value.with_part(ct_idx, comps)
            row.append(value)
        symbols.append(row)
    helper = DorfmanConnection(predual, _zero_bracket(q), symbols)
    return DorfmanConnection(predual, helper.dual_bracket(), symbols)


def im2form_dorfman(sigma: HomSection, conn: Connection) -> DorfmanConnection:
    """The connection attached to a bundle map sigma: E -> T*M and nabla.

    Delta_{(X,xi)}(e,theta) = (nabla_X e,
        L_X(theta - sigma e) + <nabla*_.(sigma* X + xi), e> + sigma(nabla_X e)).
    """
    e_bundle = conn.bundle
    base = e_bundle.patch
    if sigma.source != e_bundle or sigma.target != Bundle.cotangent(base):
        raise BundleError("sigma must map E into T*M")
    predual = canonical_predual(e_bundle)
    q, b = predual.q, predual.b
    tangent = Bundle.tangent(base)
    e_idx, ct_idx = b.atom_index("V"), b.atom_index("T*M")
    tm_idx, es_idx = q.atom_index("TM"), q.atom_index("V*")
    dual_bundle = e_bundle.dual()

    def sigma_star(x: Section) -> Section:
        # <sigma* X, e> = <sigma e, X>
        comps = [interior(sigma.column(l), x) for l in range(e_bundle.rank)]
        return Section(dual_bundle, tuple(comps))

    def interior(theta: Section, x: Section) -> ScalarPoly:
        total = base.zero()
        for a, c in zip(theta.coeffs, x.coeffs):
            total = total + a * c
        return total

    def delta_value(x: Section, xi: Section, e_sec: Section, theta: Section) -> Section:
        nab = conn.nabla(x, e_sec)
        form = lie_derivative_form(x, theta - sigma.apply(e_sec))
        shifted = sigma_star(x) + xi
        corr = []
        for l in range(base.dim):
            xl = tangent.frame_section(l)
            corr.append(canonical_pairing(conn.nabla_dual(xl, shifted), e_sec))
        form = form + Section(form.bundle, tuple(corr)) + sigma.apply(nab)
        return b.zero_section().with_part(e_idx, nab.coeffs).with_part(ct_idx, form.coeffs)

    symbols = []
    zero_x = tangent.zero_section()
    zero_xi = dual_bundle.zero_section()
    zero_e = e_bundle.zero_section()
    zero_th = Bundle.cotangent(base).zero_section()
    for i in range(q.rank):
        if q.atom_slice(tm_idx).start <= i < q.atom_slice(tm_idx).stop:
            x, xi = tangent.frame_section(i - q.atom_slice(tm_idx).start), zero_xi
        else:
            x, xi = zero_x, dual_bundle.frame_section(i - q.atom_slice(es_idx).start)
        row = []
        for j in range(b.rank):
            if b.atom_slice(e_idx).start <= j < b.atom_slice(e_idx).stop:
                e_sec, theta = e_bundle.frame_section(j - b.atom_slice(e_idx).start), zero_th
            else:
                e_sec, theta = zero_e, Bundle.cotangent(base).frame_section(
                    j - b.atom_slice(ct_idx).start)
            row.append(delta_value(x, xi, e_sec, theta))
        symbols.append(row)
    helper = DorfmanConnection(predual, _zero_bracket(q), symbols)
    return DorfmanConnection(predual, helper.dual_bracket(), symbols)


def lie_derivative_dorfman(bracket: AnchoredBracket) -> DorfmanConnection:
    """The easiest nontrivial example: Q acting on Q* by <L_q xi, q'> =
    rho(q)<xi, q'> - <xi, [q, q']>."""
    q = bracket.bundle
    dual = q.dual()
    base = q.patch
    matrix = pairing_matrix(q, dual)
    pairing = [[base.const(x) for x in row] for row in matrix]
    # d phi = rho* d phi: <d phi, q_i> = rho(q_i)(phi); dmat rows follow the anchor
    dmat = []
    for j in range(dual.rank):
        row = []
        for l in range(base.dim):
            # coefficient of the dual frame element j: rho(q_j)(x_l)
            row.append(bracket.rho(q.frame_section(j)).coeffs[l])
        dmat.append(row)
    predual = PreDual(q, dual, pairing, dmat, canonical=True)
    symbols = []
    for i, qi in enumerate(q.frame_sections()):
        row = []
        for j, xij in enumerate(dual.frame_sections()):
            # frame pairings are constant, so only the bracket term survives
            comps = [-canonical_pairing(xij, bracket.bracket(qi, qk))
                     for qk in q.frame_sections()]
            row.append(Section(dual, tuple(comps)))
        symbols.append(row)
    return DorfmanConnection(predual, bracket, symbols)


def trivial_dorfman(bracket: AnchoredBracket, b_bundle: Bundle,
                    symbols: Sequence[Sequence[Section]]) -> DorfmanConnection:
    """Zero pairing and zero d_B: any ordinary Q-connection qualifies."""
    return DorfmanConnection(zero_predual(bracket.bundle, b_bundle), bracket, symbols)


def _zero_bracket(q: Bundle) -> AnchoredBracket:
    r = q.rank
    table = [[q.zero_section() for _ in range(r)] for _ in range(r)]
    return AnchoredBracket(q, pr_tm_hom(q), table)


# -- Bott quotient -----------------------------------------------------------


def bott_dorfman(courant, k_sub: SubBundle):
    """The quotient connection Delta_k (class of e) = class of [k, e].

    `courant` is any Courant-algebroid presentation exposing bundle, pair,
    bracket, anchor and d_matrix().  K must be isotropic and closed under
    the bracket; both are checked and failures reported with witnesses.
    Returns (connection or None, report).
    """
    chk = Checker("bott-quotient", "quotient connection along an isotropic subalgebroid")
    big = courant.bundle
    base = big.patch
    ok = True
    for i, k1 in enumerate(k_sub.sections):
        for j, k2 in enumerate(k_sub.sections):
            if not chk.record("isotropic", f"<k{i + 1}, k{j + 1}>", courant.pair(k1, k2)):
                ok = False
            value = courant.bracket(k1, k2)
            if not chk.require("bracket-closed", f"[k{i + 1}, k{j + 1}] = {value}",
                               k_sub.contains(value)):
                ok = False
    if not ok:
        return None, chk.report(ERROR)

    # dull structure on K: restriction of the big bracket
    k_bundle = k_sub.as_bundle()
    tangent = Bundle.tangent(base)
    anchor_cols = [courant.anchor.apply(sec) for sec in k_sub.sections]
    anchor = HomSection(k_bundle, tangent,
                        [[col.coeffs[i] for col in anchor_cols]
                         for i in range(tangent.rank)])
    table = []
    for k1 in k_sub.sections:
        table.append([Section(k_bundle, tuple(k_sub.coords(courant.bracket(k1, k2))))
                      for k2 in k_sub.sections])
    k_bracket = AnchoredBracket(k_bundle, anchor, table)

    # quotient bundle: canonical complement classes
    comp_vectors = k_sub.span.complement
    quotient = Bundle.vector(base, "Ebar", tuple(f"w{i + 1}" for i in range(len(comp_vectors))))
    comp_sections = [Section(big, tuple(base.const(v) for v in vec)) for vec in comp_vectors]

    def project(section: Section) -> Section:
        _, rest = k_sub.span.coords(section.coeffs)
        return Section(quotient, tuple(rest))

    pairing = [[courant.pair(k1, w) for w in comp_sections] for k1 in k_sub.sections]
    big_dmat = courant.d_matrix()
    # rows of the quotient d: complement coordinates of the big D matrix columns
    dmat = [[base.zero() for _ in range(base.dim)] for _ in range(len(comp_vectors))]
    for l in range(base.dim):
        column = Section(big, tuple(big_dmat[r][l] for r in range(big.rank)))
        projected = project(column)
        for j in range(len(comp_vectors)):
            dmat[j][l] = projected.coeffs[j]
    predual = PreDual(k_bundle, quotient, pairing, dmat)

    symbols = []
    for k1 in k_sub.sections:
        symbols.append([project(courant.bracket(k1, w)) for w in comp_sections])
    delta = DorfmanConnection(predual, k_bracket, symbols)

    axioms = delta.check_axioms()
    chk.note(f"quotient axioms: {axioms.status}")
    for witness in axioms.witnesses:
        chk.require("quotient-axioms", witness.inputs, False, witness.difference)

    # singular Bott property, checked when rho(K) has a constant frame
    rho_k = [courant.anchor.apply(sec) for sec in k_sub.sections]
    if all(sec.is_constant() for sec in rho_k):
        nonzero = [sec for sec in rho_k if not sec.is_zero()]
        s_sub = SubBundle("S", nonzero, tangent) if nonzero else \
            SubBundle("S", [], tangent)
        for i, k1 in enumerate(k_sub.sections):
            for j, w in enumerate(comp_sections):
                for phi in battery_functions(base):
                    value = delta.apply(k_bundle.frame_section(i),
                                        project(w).scale(phi))
                    lifted = sum((comp_sections[m].scale(value.coeffs[m])
                                  for m in range(quotient.rank)), big.zero_section())
                    lhs = courant.anchor.apply(lifted)
                    rhs = vf_bracket(rho_k[i], courant.anchor.apply(w.scale(phi)))
                    diff = lhs - rhs
                    chk.record("bott-anchor", f"(k{i + 1}; ({phi})*w{j + 1}) mod rho(K)",
                               s_sub.residual(diff))
    else:
        chk.note("bott-anchor: skipped (rho(K) frame is not constant)")
    return delta, chk.report()
