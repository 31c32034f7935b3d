"""Courant algebroid presentations and the Manin-pair construction.

A CourantData is a bundle with anchor, symmetric pairing and bracket frame
symbols, extended to sections by

    [e1, phi e2] = phi [e1, e2] + (rho(e1) phi) e2,
    [phi e1, e2] = phi [e1, e2] - (rho(e2) phi) e1 + <e1, e2> D phi,

with D = rho* d.  From an LA-Dirac triple (U, K, [Delta]) the quotient

    C = (U + (A + T*M)) / graph(-(rho,rho*)|K)

carries a Courant algebroid structure; this module builds it on canonical
representatives, verifies the construction, and inverts it back to a
triple up to (U, K)-equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .algebroid import AnchoredBracket, battery_sections
from .bundle import (Bundle, BundleError, HomSection, Section, SubBundle,
                     battery_functions, d_scalar, vf_apply)
from .dirac import VBTriple, check_equivalent
from .dorfman import DorfmanConnection, pr_tm_hom
from .laops import (LieAlgebroidData, basic_v, check_la_dirac,
                    dorfman_like_bracket)
from .linalg import determinant, invert, rank as mat_rank
from .poly import ScalarPoly
from .report import Checker, CheckReport, ERROR


class CourantData:
    """Anchor, pairing and bracket symbols on one frame."""

    def __init__(self, bundle: Bundle, anchor: HomSection,
                 pairing: Sequence[Sequence[ScalarPoly]],
                 symbols: Sequence[Sequence[Section]],
                 d_matrix_override: Optional[Sequence[Sequence[ScalarPoly]]] = None):
        r = bundle.rank
        if len(pairing) != r or any(len(row) != r for row in pairing):
            raise BundleError("pairing must be a square matrix over the frame")
        for i in range(r):
            for j in range(r):
                if pairing[i][j] != pairing[j][i]:
                    raise BundleError("pairing must be symmetric")
        if len(symbols) != r or any(len(row) != r for row in symbols):
            raise BundleError("bracket symbols must cover all ordered frame pairs")
        self.bundle = bundle
        self.anchor = anchor
        self.pairing = [list(row) for row in pairing]
        # symbols may be edited after construction, so nothing below derives from them
        self.symbols = [list(row) for row in symbols]
        self._dmat = [list(row) for row in d_matrix_override] if d_matrix_override else None
        # anchor images of the frame; the anchor is fixed once built
        self._frame_rho = [anchor.apply(sec).coeffs for sec in bundle.frame_sections()]

    # -- pairing and anchor ------------------------------------------------

    def pair(self, e1: Section, e2: Section) -> ScalarPoly:
        total = self.bundle.patch.zero()
        for i, a in enumerate(e1.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(e2.coeffs):
                if not (b.is_zero() or self.pairing[i][j].is_zero()):
                    total = total + a * b * self.pairing[i][j]
        return total

    def rho_d(self, e: Section, phi: ScalarPoly) -> ScalarPoly:
        return vf_apply(self.bundle.patch.coords, self.anchor.apply(e).coeffs, phi)

    def d_matrix(self) -> List[List[ScalarPoly]]:
        """Matrix of D = rho* d: D(phi) = d_matrix . grad(phi)."""
        if self._dmat is not None:
            return self._dmat
        base = self.bundle.patch
        p_const = [[entry.constant_value() for entry in row] for row in self.pairing]
        p_inv = invert(p_const)
        r, n = self.bundle.rank, base.dim
        dmat = [[base.zero() for _ in range(n)] for _ in range(r)]
        for m in range(r):
            for l in range(n):
                total = base.zero()
                for i in range(r):
                    if p_inv[m][i]:
                        total = total + self.anchor.matrix[l][i] * p_inv[m][i]
                dmat[m][l] = total
        self._dmat = dmat
        return dmat

    def D(self, phi: ScalarPoly) -> Section:
        base = self.bundle.patch
        grad = [phi.partial(c) for c in base.coords]
        comps = []
        for row in self.d_matrix():
            value = base.zero()
            for entry, g in zip(row, grad):
                value = value + entry * g
            comps.append(value)
        return Section(self.bundle, tuple(comps))

    # -- bracket -------------------------------------------------------------

    def bracket(self, e1: Section, e2: Section) -> Section:
        out = self.bundle.zero_section()
        frames = self.bundle.frame_sections()
        coords = self.bundle.patch.coords
        frame_rho = self._frame_rho
        for i, phi in enumerate(e1.coeffs):
            if phi.is_zero():
                continue
            d_phi = self.D(phi)
            for j, psi in enumerate(e2.coeffs):
                if psi.is_zero():
                    continue
                out = out + self.symbols[i][j].scale(phi * psi)
                d_psi = vf_apply(coords, frame_rho[i], psi)
                if not d_psi.is_zero():
                    out = out + frames[j].scale(phi * d_psi)
                der = vf_apply(coords, frame_rho[j], phi)
                if not der.is_zero():
                    out = out - frames[i].scale(psi * der)
                if not self.pairing[i][j].is_zero():
                    out = out + d_phi.scale(psi * self.pairing[i][j])
        return out

    # -- axioms ---------------------------------------------------------------

    def check_axioms(self) -> CheckReport:
        """Leibniz-Jacobi, metric invariance, symmetrized bracket, anchor morphism,
        and the right-Leibniz rule (structural under the extension)."""
        from .bundle import vf_bracket

        chk = Checker("courant-axioms", "Courant algebroid axioms")
        frames = self.bundle.frame_sections()
        names = self.bundle.frame
        batt = battery_sections(self.bundle)
        for i, e1 in enumerate(frames):
            for j, e2 in enumerate(frames):
                for label3, e3 in batt:
                    lhs = self.bracket(e1, self.bracket(e2, e3))
                    rhs = (self.bracket(self.bracket(e1, e2), e3)
                           + self.bracket(e2, self.bracket(e1, e3)))
                    chk.record("1-leibniz-jacobi", f"({names[i]}; {names[j]}; {label3})",
                               lhs - rhs)
        for label1, e1 in batt:
            for j, e2 in enumerate(frames):
                for k, e3 in enumerate(frames):
                    lhs = self.rho_d(e1, self.pair(e2, e3))
                    rhs = (self.pair(self.bracket(e1, e2), e3)
                           + self.pair(e2, self.bracket(e1, e3)))
                    chk.record("2-metric", f"({label1}; {names[j]}; {names[k]})", lhs - rhs)
        for label1, e1 in batt:
            for label2, e2 in batt:
                lhs = self.bracket(e1, e2) + self.bracket(e2, e1)
                rhs = self.D(self.pair(e1, e2))
                chk.record("3-symmetrized", f"({label1}; {label2})", lhs - rhs)
        for label1, e1 in batt:
            for label2, e2 in batt:
                lhs = self.anchor.apply(self.bracket(e1, e2))
                rhs = vf_bracket(self.anchor.apply(e1), self.anchor.apply(e2))
                chk.record("4-anchor-morphism", f"({label1}; {label2})", lhs - rhs)
        for i, e1 in enumerate(frames):
            for phi in battery_functions(self.bundle.patch):
                for j, e2 in enumerate(frames):
                    lhs = self.bracket(e1, e2.scale(phi))
                    rhs = self.bracket(e1, e2).scale(phi) + e2.scale(self.rho_d(e1, phi))
                    chk.record("5-right-leibniz", f"({names[i]}; ({phi})*{names[j]})",
                               lhs - rhs)
        chk.note("5-right-leibniz holds by the extension rule; verified literally")
        return chk.report()


def standard_courant(base) -> CourantData:
    """TM + T*M with rho = pr_TM and the Courant-Dorfman bracket.

    [(X, alpha), (Y, beta)] = ([X, Y], L_X beta - i_Y d alpha); all frame
    symbols vanish, the structure lives in the extension rules.
    """
    bundle = Bundle.tangent(base) + Bundle.cotangent(base)
    anchor = pr_tm_hom(bundle)
    from .bundle import pairing_matrix

    matrix = pairing_matrix(bundle, bundle)
    pairing = [[base.const(matrix[i][j]) for j in range(bundle.rank)]
               for i in range(bundle.rank)]
    symbols = [[bundle.zero_section() for _ in range(bundle.rank)]
               for _ in range(bundle.rank)]
    return CourantData(bundle, anchor, pairing, symbols)


# -- the Manin pair of an LA-Dirac triple -----------------------------------


@dataclass
class ManinPairData:
    lad: LieAlgebroidData
    delta: DorfmanConnection
    u_sub: SubBundle
    k_sub: SubBundle
    w_sections: List[Section]
    c_bundle: Bundle
    courant: Optional[CourantData]

    def normalize(self, u_sec: Section, sigma_sec: Section) -> Section:
        """Canonical class representative in C-frame coordinates.

        sigma = kappa + omega with kappa in K and omega in the deterministic
        complement W; the class is (u + (rho,rho*) kappa) + omega.
        """
        k_coords, w_coords = self.k_sub.span.coords(sigma_sec.coeffs)
        kappa = self.k_sub.include(k_coords)
        shifted = u_sec + self.lad.pair_map().apply(kappa)
        u_coords = self.u_sub.coords(shifted)
        return Section(self.c_bundle, tuple(list(u_coords) + list(w_coords)))

    def embed(self, c_sec: Section) -> Tuple[Section, Section]:
        """A representative (u, sigma) of a C-section, sigma in W."""
        p = self.u_sub.rank
        u_sec = self.u_sub.include(c_sec.coeffs[:p])
        sigma = self.lad.sigma_bundle.zero_section()
        for coeff, w in zip(c_sec.coeffs[p:], self.w_sections):
            sigma = sigma + w.scale(coeff)
        return u_sec, sigma

    def formula_bracket(self, u1: Section, s1: Section,
                        u2: Section, s2: Section) -> Tuple[Section, Section]:
        """The bracket on representatives, before normalization."""
        lad, delta = self.lad, self.delta
        v_part = (delta.bracket.bracket(u1, u2)
                  + basic_v(lad, delta, lad.a_part(s1), u2)
                  - basic_v(lad, delta, lad.a_part(s2), u1))
        from .bundle import db_canonical

        s_part = (dorfman_like_bracket(lad, s1, s2)
                  + delta.apply(u1, s2) - delta.apply(u2, s1)
                  + db_canonical(lad.sigma_bundle, delta.predual.pair(u2, s1)))
        return v_part, s_part


def build_manin_pair(lad: LieAlgebroidData, triple: VBTriple) -> Tuple[Optional[ManinPairData], CheckReport]:
    """Construct C = (U + (A + T*M)) / graph(-(rho,rho*)|K) with its
    anchor, pairing and bracket, and verify the construction."""
    chk = Checker("manin-pair", "Courant algebroid on the quotient of U + (A + T*M)")
    gate = check_la_dirac(lad, triple)
    if not gate.passed:
        chk.error("precondition", "la-dirac", "the triple is not LA-Dirac")
        return None, chk.report()
    delta, u_sub, k_sub = triple.delta, triple.u_sub, triple.k_sub
    base = lad.base
    pm = lad.pair_map()

    w_vectors = k_sub.span.complement
    w_sections = [Section(lad.sigma_bundle, tuple(base.const(v) for v in vec))
                  for vec in w_vectors]
    frame_names = tuple([f"cu{i + 1}" for i in range(u_sub.rank)]
                        + [f"cw{j + 1}" for j in range(len(w_sections))])
    c_bundle = Bundle.vector(base, "C", frame_names)

    reps: List[Tuple[Section, Section]] = []
    for u in u_sub.sections:
        reps.append((u, lad.sigma_bundle.zero_section()))
    for w in w_sections:
        reps.append((lad.v_bundle.zero_section(), w))

    mp = ManinPairData(lad, delta, u_sub, k_sub, w_sections, c_bundle,
                       courant=None)  # symbols need mp.normalize

    # anchor columns: c(u + sigma) = pr_TM(u) + rho(pr_A sigma)
    tangent = Bundle.tangent(base)
    anchor_cols = []
    for u_sec, s_sec in reps:
        anchor_cols.append(Section(
            tangent, tuple(a + b for a, b in zip(
                lad.x_part(u_sec).coeffs, lad.bracket.rho(lad.a_part(s_sec)).coeffs))))
    anchor = HomSection(c_bundle, tangent,
                        [[col.coeffs[i] for col in anchor_cols]
                         for i in range(tangent.rank)])

    def cpair(r1, r2) -> ScalarPoly:
        (ua, sa), (ub, sb) = r1, r2
        return (delta.predual.pair(ua, sb) + delta.predual.pair(ub, sa)
                + delta.predual.pair(pm.apply(sb), sa))

    pairing = [[cpair(r1, r2) for r2 in reps] for r1 in reps]

    symbols = []
    for r1 in reps:
        row = []
        for r2 in reps:
            v_part, s_part = mp.formula_bracket(r1[0], r1[1], r2[0], r2[1])
            row.append(mp.normalize(v_part, s_part))
        symbols.append(row)

    # D phi = class of (0, (0, d phi)): assemble its matrix in grad(phi)
    dmat = [[base.zero() for _ in range(base.dim)] for _ in range(c_bundle.rank)]
    for l, coord in enumerate(base.coords):
        cls = mp.normalize(lad.v_bundle.zero_section(),
                           lad.to_sigma(theta=d_scalar(base, base.coord(coord))))
        for m in range(c_bundle.rank):
            dmat[m][l] = cls.coeffs[m]

    mp.courant = CourantData(c_bundle, anchor, pairing, symbols, d_matrix_override=dmat)

    # well-definedness: bracketing against graph representatives dies in C
    functions = battery_functions(base)
    for ki, k in enumerate(k_sub.sections):
        for phi in functions:
            kk = k.scale(phi)
            graph_rep = (-pm.apply(kk), kk)
            chk.record("graph-normalizes-to-zero", f"(({phi})*k{ki + 1})",
                       mp.normalize(*graph_rep))
            for ri, rep in enumerate(reps):
                v1, s1 = mp.formula_bracket(rep[0], rep[1], *graph_rep)
                chk.record("graph-right", f"(frame {ri + 1}; ({phi})*k{ki + 1})",
                           mp.normalize(v1, s1))
                v2, s2 = mp.formula_bracket(*graph_rep, rep[0], rep[1])
                chk.record("graph-left", f"(({phi})*k{ki + 1}; frame {ri + 1})",
                           mp.normalize(v2, s2))

    # U + 0 is a Dirac structure in C
    chk.require("u-dirac", f"rank C = {c_bundle.rank}, rank U = {u_sub.rank}",
                c_bundle.rank == 2 * u_sub.rank, "U is not half-rank in C")
    for i in range(u_sub.rank):
        for j in range(u_sub.rank):
            chk.record("u-dirac", f"<<u{i + 1}, u{j + 1}>>", pairing[i][j])
            value = symbols[i][j]
            chk.record("u-dirac", f"[[u{i + 1}, u{j + 1}]] W-part",
                       Section(c_bundle, tuple(
                           [base.zero()] * u_sub.rank + list(value.coeffs[u_sub.rank:]))))

    # A-Manin condition (c): [[0 + s1, 0 + s2]] = 0 + [s1, s2]_D
    s_frames = lad.sigma_bundle.frame_sections()
    for i, s1 in enumerate(s_frames):
        for phi in functions:
            s1p = s1.scale(phi)
            for j, s2 in enumerate(s_frames):
                v_part, s_part = mp.formula_bracket(
                    lad.v_bundle.zero_section(), s1p, lad.v_bundle.zero_section(), s2)
                lhs = mp.normalize(v_part, s_part)
                rhs = mp.normalize(lad.v_bundle.zero_section(),
                                   dorfman_like_bracket(lad, s1p, s2))
                chk.record("condition-c",
                           f"(({phi})*sigma{i + 1}; sigma{j + 1})", lhs - rhs)

    # D characterization: <<u + sigma, D phi>> = c(u + sigma)(phi)
    for ri, rep in enumerate(reps):
        e = c_bundle.frame_section(ri)
        for phi in functions:
            lhs = mp.courant.pair(e, mp.courant.D(phi))
            rhs = mp.courant.rho_d(e, phi)
            chk.record("d-characterization", f"(frame {ri + 1}; {phi})", lhs - rhs)
    return mp, chk.report()


def check_c_iso(mp: ManinPairData) -> CheckReport:
    """Exactness 0 -> U -> C -> U* -> 0 and nondegeneracy of the pairing."""
    chk = Checker("c-iso", "C is an extension of U* by U with nondegenerate pairing")
    p = mp.u_sub.rank
    chk.require("rank", f"rank C = {mp.c_bundle.rank}",
                mp.c_bundle.rank == 2 * p, "rank C != 2 rank U")
    # iota: U -> C, u_i -> frame_i: injective by construction; verify classes
    for i, u in enumerate(mp.u_sub.sections):
        cls = mp.normalize(u, mp.lad.sigma_bundle.zero_section())
        chk.record("iota", f"u{i + 1}", cls - mp.c_bundle.frame_section(i))
    # pi(u + sigma)(v) = <sigma, v>; on the frame: rows [<w_j, u_i>]
    rows = []
    for j, w in enumerate(mp.w_sections):
        row = []
        for i, u in enumerate(mp.u_sub.sections):
            value = mp.delta.predual.pair(u, w)
            if not value.is_constant():
                chk.error("pi", f"(w{j + 1}; u{i + 1})", "non-constant pairing entry")
                return chk.report()
            row.append(value.constant_value())
        rows.append(row)
    chk.require("pi-surjective", f"rank {mat_rank(rows)} of {p}",
                mat_rank(rows) == p, "pi does not surject onto U*")
    for i in range(p):
        for j in range(p):
            chk.record("pi-iota-zero", f"pi(iota(u{i + 1}))(u{j + 1})",
                       mp.courant.pair(mp.c_bundle.frame_section(i),
                                       mp.c_bundle.frame_section(j)))
    gram = [[entry for entry in row] for row in mp.courant.pairing]
    if all(e.is_constant() for row in gram for e in row):
        det = determinant([[e.constant_value() for e in row] for row in gram])
        chk.require("nondegenerate", f"Gram determinant = {det}", det != 0,
                    "pairing is degenerate on the frame")
    else:
        det_poly = _poly_det(gram, mp.lad.base)
        chk.require("nondegenerate", f"Gram determinant = {det_poly}",
                    det_poly.is_constant() and det_poly.constant_value() != 0,
                    "Gram determinant is not a nonzero constant")
    return chk.report()


def _poly_det(matrix: List[List[ScalarPoly]], base) -> ScalarPoly:
    n = len(matrix)
    if n == 0:
        return base.one()
    if n == 1:
        return matrix[0][0]
    total = base.zero()
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total = total + matrix[0][j] * _poly_det(minor, base) * sign
        sign = -sign
    return total


def recover_triple(mp: ManinPairData) -> Tuple[Optional[VBTriple], CheckReport]:
    """Read the triple back off an A-Manin pair.

    Verifies the A-Manin conditions (the pair-map condition on the
    annihilator and the bracket condition on core classes), reads the
    U-bracket from the Courant bracket, extends it by zero structure
    functions on the canonical complement of U, and returns
    (U, U-annihilator, Delta) for the dual connection.
    """
    chk = Checker("recover-triple", "triple recovered from the Manin pair")
    lad, u_sub = mp.lad, mp.u_sub
    pm = lad.pair_map()
    k_sub = u_sub.annihilator_in(lad.sigma_bundle, "K")
    failed = False
    for i, k in enumerate(k_sub.sections):
        if not chk.record("a-manin-pair-map", f"k{i + 1}", u_sub.residual(pm.apply(k))):
            failed = True
    zero_v = lad.v_bundle.zero_section()
    s_frames = lad.sigma_bundle.frame_sections()
    for i, s1 in enumerate(s_frames):
        for j, s2 in enumerate(s_frames):
            lhs = mp.courant.bracket(mp.normalize(zero_v, s1), mp.normalize(zero_v, s2))
            rhs = mp.normalize(zero_v, dorfman_like_bracket(lad, s1, s2))
            if not chk.record("a-manin-condition-c", f"(sigma{i + 1}; sigma{j + 1})",
                              lhs - rhs):
                failed = True
    if failed:
        return None, chk.report(ERROR)

    # U-bracket from C
    p = u_sub.rank
    base = lad.base
    u_values = {}
    for i in range(p):
        for j in range(p):
            value = mp.courant.bracket(mp.c_bundle.frame_section(i),
                                       mp.c_bundle.frame_section(j))
            w_part = list(value.coeffs[p:])
            if any(not c.is_zero() for c in w_part):
                chk.error("u-closed", f"[[u{i + 1}, u{j + 1}]]",
                          "bracket of U-classes leaves U")
                return None, chk.report()
            u_values[(i, j)] = u_sub.include(value.coeffs[:p])

    # zero-extend over the canonical complement of U inside TM + A*
    basis_vectors = [sec.constant_coeffs() for sec in u_sub.sections]
    basis_vectors += u_sub.span.complement
    n_total = lad.v_bundle.rank
    basis_matrix = [[basis_vectors[j][i] for j in range(n_total)] for i in range(n_total)]
    inv = invert(basis_matrix)
    structure = []
    for m in range(n_total):
        row = []
        for l in range(n_total):
            total = lad.v_bundle.zero_section()
            for i in range(p):
                for j in range(p):
                    coeff = inv[i][m] * inv[j][l]
                    if coeff:
                        total = total + u_values[(i, j)].scale(coeff)
            row.append(total)
        structure.append(row)
    bracket_rec = AnchoredBracket(lad.v_bundle, pr_tm_hom(lad.v_bundle), structure)
    delta_rec = DorfmanConnection.from_dull(bracket_rec, mp.delta.predual)
    chk.note("dull extension: zero structure functions on the complement of U")
    return VBTriple(delta_rec, u_sub, k_sub), chk.report()


def roundtrip_check(lad: LieAlgebroidData, triple: VBTriple) -> CheckReport:
    """Build the Manin pair, recover the triple, compare up to equivalence."""
    chk = Checker("roundtrip", "triple -> Manin pair -> triple is the identity on classes")
    mp, build_rep = build_manin_pair(lad, triple)
    chk.note(f"build: {build_rep.status}")
    if mp is None:
        chk.error("build", "manin-pair", "construction failed")
        return chk.report()
    recovered, rec_rep = recover_triple(mp)
    chk.note(f"recover: {rec_rep.status}")
    if recovered is None:
        chk.error("recover", "recover-triple", "recovery failed")
        return chk.report()
    equiv = check_equivalent(recovered.delta, triple.delta, triple.u_sub, triple.k_sub)
    for witness in equiv.witnesses:
        chk.require("equivalent", witness.inputs, False, witness.difference)
    if equiv.passed:
        chk.require("equivalent", "recovered vs input connection", True)
    for i, u1 in enumerate(triple.u_sub.sections):
        for j, u2 in enumerate(triple.u_sub.sections):
            chk.record("u-brackets-agree", f"(u{i + 1}; u{j + 1})",
                       recovered.delta.bracket.bracket(u1, u2)
                       - triple.delta.bracket.bracket(u1, u2))
    # read-off: the W-part of [[u + 0, 0 + tau]] is the W-part of Delta_u tau
    p = triple.u_sub.rank
    for i in range(p):
        for j, tau in enumerate(lad.sigma_bundle.frame_sections()):
            value = mp.courant.bracket(
                mp.c_bundle.frame_section(i),
                mp.normalize(lad.v_bundle.zero_section(), tau))
            direct = triple.delta.apply(triple.u_sub.sections[i], tau)
            _, w_coords = triple.k_sub.span.coords(direct.coeffs)
            diff = [a - b for a, b in zip(value.coeffs[p:], w_coords)]
            chk.record("read-off", f"(u{i + 1}; sigma{j + 1})",
                       Section(mp.c_bundle, tuple([lad.base.zero()] * p + diff)))
    return chk.report()


def im2form_standard_iso(mp: ManinPairData, sigma: HomSection) -> CheckReport:
    """The mutually inverse maps between C and the standard Courant algebroid.

    For a triple built from a bundle map sigma: A -> T*M,
        Pi((X, -sigma* X) + (a, theta)) = (X + rho(a), theta + sigma(a)),
        Theta(X, theta) = (X, -sigma* X) + (0, theta);
    both are verified to be inverse bundle maps intertwining anchors,
    pairings and brackets.
    """
    chk = Checker("standard-iso", "C is isomorphic to TM + T*M via the sigma maps")
    lad = mp.lad
    base = lad.base
    std = standard_courant(base)
    tangent = Bundle.tangent(base)

    def sigma_star(x: Section) -> Section:
        comps = []
        for k in range(lad.a_bundle.rank):
            value = base.zero()
            for i in range(base.dim):
                value = value + sigma.matrix[i][k] * x.coeffs[i]
            comps.append(value)
        return Section(lad.a_bundle.dual(), tuple(comps))

    # Pi on the C-frame
    pi_cols = []
    for idx in range(mp.c_bundle.rank):
        u_sec, s_sec = mp.embed(mp.c_bundle.frame_section(idx))
        a = lad.a_part(s_sec)
        x_val = lad.x_part(u_sec) + lad.bracket.rho(a)
        th_val = lad.theta_part(s_sec) + sigma.apply(a)
        pi_cols.append(std.bundle.zero_section()
                       .with_part(std.bundle.atom_index("TM"), x_val.coeffs)
                       .with_part(std.bundle.atom_index("T*M"), th_val.coeffs))
    pi_hom = HomSection.from_columns(mp.c_bundle, pi_cols)

    # Theta on the standard frame
    theta_cols = []
    for idx in range(std.bundle.rank):
        t = std.bundle.frame_section(idx)
        x = Section(tangent, t.part(std.bundle.atom_index("TM")))
        th = Section(Bundle.cotangent(base), t.part(std.bundle.atom_index("T*M")))
        u_sec = lad.to_v(x=x, xi=-sigma_star(x))
        theta_cols.append(mp.normalize(u_sec, lad.to_sigma(theta=th)))
    theta_hom = HomSection.from_columns(std.bundle, theta_cols)

    for idx in range(std.bundle.rank):
        t = std.bundle.frame_section(idx)
        chk.record("pi-theta-identity", std.bundle.frame[idx],
                   pi_hom.apply(theta_hom.apply(t)) - t)
    for idx in range(mp.c_bundle.rank):
        c = mp.c_bundle.frame_section(idx)
        chk.record("theta-pi-identity", mp.c_bundle.frame[idx],
                   theta_hom.apply(pi_hom.apply(c)) - c)
    for i in range(std.bundle.rank):
        t1 = std.bundle.frame_section(i)
        for j in range(std.bundle.rank):
            t2 = std.bundle.frame_section(j)
            chk.record("pairing", f"({std.bundle.frame[i]}; {std.bundle.frame[j]})",
                       mp.courant.pair(theta_hom.apply(t1), theta_hom.apply(t2))
                       - std.pair(t1, t2))
        chk.record("anchor", std.bundle.frame[i],
                   mp.courant.anchor.apply(theta_hom.apply(t1))
                   - std.anchor.apply(t1))
    for i in range(std.bundle.rank):
        t1 = std.bundle.frame_section(i)
        for phi in battery_functions(base):
            for j in range(std.bundle.rank):
                t2 = std.bundle.frame_section(j).scale(phi)
                lhs = theta_hom.apply(std.bracket(t1, t2))
                rhs = mp.courant.bracket(theta_hom.apply(t1), theta_hom.apply(t2))
                chk.record("bracket-transport",
                           f"({std.bundle.frame[i]}; ({phi})*{std.bundle.frame[j]})",
                           lhs - rhs)
    return chk.report()
