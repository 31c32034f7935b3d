"""Courant algebroid presentations and the Manin-pair construction.

A CourantData is a bundle with anchor, symmetric pairing and bracket frame
symbols, extended to sections by

    [e1, phi e2] = phi [e1, e2] + (rho(e1) phi) e2,
    [phi e1, e2] = phi [e1, e2] - (rho(e2) phi) e1 + <e1, e2> D phi,

with D = rho* d: `bundle.leibniz` applied to the symbol table (a
`bundle.FrameTable` built on first use), with the anchor term on both
sides and the pairing term.  The pairing and D are one `dorfman.PreDual`
(E, E), which `shifted` shares.  From an LA-Dirac triple (U, K, [Delta])
the quotient

    C = (U + (A + T*M)) / graph(-(rho,rho*)|K)

carries a Courant algebroid structure; this module builds it on canonical
representatives, verifies the construction, and inverts it back to a
triple up to (U, K)-equivalence.  Condition (c) of the Manin pair and
the bracket transport of the standard isomorphism read phi sigma_i and
phi t_j from the battery of their bundle (Bundle.battery).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .algebroid import (AnchoredBracket, BatteryTable, record_anchor_morphism, record_jacobi,
                        record_metric, record_right_leibniz, record_symmetrized)
from .bundle import (Bundle, BundleError, FrameTable, HomSection, Section, SubBundle,
                     column_apply, column_table, db_canonical, leibniz, nonzero_terms,
                     pairing_matrix, vf_apply)
from .dirac import VBTriple, check_equivalent
from .dorfman import DorfmanConnection, PreDual, pr_tm_hom
from .laops import LieAlgebroidData, check_la_dirac
from .linalg import determinant, invert, rank as mat_rank
from .poly import ScalarPoly
from .report import Checker, CheckReport, ERROR


class CourantData:
    """Anchor, pairing and bracket symbols on one frame.  (E, E, <,>, D)
    is a pre-dual pair, held as one PreDual: D is d_matrix_override (the
    Manin pair's) or rho* d, solved with the constant pairing."""

    def __init__(self, bundle: Bundle, anchor: HomSection,
                 pairing: Sequence[Sequence[ScalarPoly]],
                 symbols: Sequence[Sequence[Section]],
                 d_matrix_override: Optional[Sequence[Sequence[ScalarPoly]]] = None):
        r = bundle.rank
        if len(pairing) != r or any(len(row) != r for row in pairing):
            raise BundleError("pairing must be a square matrix over the frame")
        if any(pairing[i][j] != pairing[j][i] for i in range(r) for j in range(r)):
            raise BundleError("pairing must be symmetric")
        if len(symbols) != r or any(len(row) != r for row in symbols):
            raise BundleError("bracket symbols must cover all ordered frame pairs")
        self.bundle = bundle
        self.anchor = anchor
        self.pairing = tuple(tuple(row) for row in pairing)
        self.symbols = tuple(tuple(row) for row in symbols)
        dmat = d_matrix_override
        if dmat is None:  # column l of D is P^-1 times row l of the anchor matrix
            p_inv = column_table(invert([[entry.constant_value() for entry in row]
                                         for row in self.pairing]), r)
            cols = [column_apply(p_inv, nonzero_terms(row), bundle.patch.zero())
                    for row in anchor.matrix]
            dmat = [[col[m] for col in cols] for m in range(r)]
        self.predual = PreDual(bundle, bundle, self.pairing, dmat)
        self.frame_rho = [anchor.apply(sec).coeffs for sec in bundle.frame_sections()]

    def shifted(self, i: int, j: int, section: Section) -> "CourantData":
        """A copy, sharing the anchor and pre-dual, with symbol (i, j) moved by section."""
        symbols = [list(row) for row in self.symbols]
        symbols[i][j] = symbols[i][j] + section
        shifted = copy.copy(self)
        shifted.symbols = tuple(tuple(row) for row in symbols)
        vars(shifted).pop("frame_table", None)  # built from the symbols on first use
        return shifted

    # -- pairing and anchor ------------------------------------------------

    def pair(self, e1: Section, e2: Section) -> ScalarPoly:
        return self.predual.pair(e1, e2)

    def d_matrix(self) -> Tuple[Tuple[ScalarPoly, ...], ...]:
        """Matrix of D = rho* d: D(phi) = d_matrix . grad(phi)."""
        return self.predual.dmat

    def D(self, phi: ScalarPoly) -> Section:
        """D phi = d_matrix() . grad(phi), the d of the pre-dual."""
        return self.predual.d(phi)

    # -- bracket -------------------------------------------------------------

    def bracket(self, e1: Section, e2: Section) -> Section:
        return leibniz(e1, e2, self.frame_table, self.bundle, bracket=True,
                       pair_rows=self.predual.pair_rows, d=self.predual.d)

    @cached_property
    def frame_table(self) -> FrameTable:
        """The bracket symbols and frame anchors, as leibniz reads them."""
        return FrameTable(self.symbols, self.frame_rho)

    # -- axioms ---------------------------------------------------------------

    def check_axioms(self) -> CheckReport:
        """Leibniz-Jacobi, metric invariance, symmetrized bracket, anchor morphism,
        and the right-Leibniz rule (structural under the extension).  Only
        the frame rows (read by 5) and columns (read by 2) of the bracket
        table are evaluated; 3 and 4 derive the rest from frame values."""
        chk = Checker("courant-axioms", "Courant algebroid axioms")
        batt, pair, d, op = self.bundle.battery, self.predual.pair, self.predual.d, self.bracket
        table = BatteryTable(batt, batt)
        record_jacobi(chk, "1-leibniz-jacobi", table, op, anchor=self.anchor)
        anchors = [self.anchor.apply(e) for e in batt.sections]
        frames = [(batt.labels[t], batt.sections[t]) for t in batt.frames]
        positions = range(len(batt.sections))
        cols = [[table.get(op, p, t) for t in batt.frames] for p in positions]  # [s_p, e_j]
        record_metric(chk, "2-metric", pair, frames, frames,
                      zip(batt.labels, anchors, cols, cols))
        record_symmetrized(chk, "3-symmetrized", table, op,
                           lambda p, q: d(pair(batt.sections[p], batt.sections[q])), scaled=2)
        record_anchor_morphism(chk, "4-anchor-morphism", table, op, self.anchor, anchors,
                               self.predual)
        for i, t in enumerate(batt.frames):
            row = [table.get(op, t, q) for q in positions]
            for f in range(len(batt.functions)):
                record_right_leibniz(chk, "5-right-leibniz", batt.labels[t], self.frame_rho[i],
                                     row, batt, f)
        chk.note("5-right-leibniz holds by the extension rule; verified literally")
        return chk.report()


def standard_courant(base) -> CourantData:
    """TM + T*M with rho = pr_TM and the Courant-Dorfman bracket.

    [(X, alpha), (Y, beta)] = ([X, Y], L_X beta - i_Y d alpha); all frame
    symbols vanish, the structure lives in the extension rules.
    """
    bundle = Bundle.tangent(base) + Bundle.cotangent(base)
    pairing = [[base.const(x) for x in row] for row in pairing_matrix(bundle, bundle)]
    symbols = [[bundle.zero_section()] * bundle.rank for _ in range(bundle.rank)]
    return CourantData(bundle, pr_tm_hom(bundle), pairing, symbols)


# -- the Manin pair of an LA-Dirac triple -----------------------------------


@dataclass
class ManinPairData:
    lad: LieAlgebroidData
    delta: DorfmanConnection
    u_sub: SubBundle
    k_sub: SubBundle
    c_bundle: Bundle
    courant: Optional[CourantData]

    def normalize(self, u_sec: Section, sigma_sec: Section) -> Section:
        """Canonical class representative in C-frame coordinates.

        sigma = kappa + omega with kappa in K and omega in the deterministic
        complement W; the class is (u + (rho,rho*) kappa) + omega.
        """
        k_coords, w_coords = self.k_sub.split(sigma_sec.nonzero(), sigma_sec.bundle.patch.zero())
        kappa = self.k_sub.include(k_coords)
        shifted = u_sec + self.lad.pair_map.apply(kappa)
        u_coords = self.u_sub.coords(shifted)
        return Section(self.c_bundle, tuple(list(u_coords) + list(w_coords)))

    def embed(self, c_sec: Section) -> Tuple[Section, Section]:
        """A representative (u, sigma) of a C-section, sigma in W."""
        p = self.u_sub.rank
        u_sec = self.u_sub.include(c_sec.coeffs[:p])
        sigma = self.lad.sigma_bundle.zero_section()
        for coeff, w in zip(c_sec.coeffs[p:], self.k_sub.complement_sections):
            sigma = sigma + w.scale(coeff)
        return u_sec, sigma

    def formula_bracket(self, u1: Section, s1: Section,
                        u2: Section, s2: Section) -> Tuple[Section, Section]:
        """The bracket on representatives, before normalization."""
        lad, delta = self.lad, self.delta
        v_part = (lad.dull_bracket(delta, u1, u2)
                  + lad.basic_v(delta, s1.component(lad.a_bundle), u2)
                  - lad.basic_v(delta, s2.component(lad.a_bundle), u1))
        s_part = (lad.dorfman_like_bracket(s1, s2)
                  + lad.dorfman(delta, u1, s2) - lad.dorfman(delta, u2, s1)
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
    pm = lad.pair_map

    w_sections = k_sub.complement_sections
    frame_names = tuple([f"cu{i + 1}" for i in range(u_sub.rank)]
                        + [f"cw{j + 1}" for j in range(len(w_sections))])
    c_bundle = Bundle.vector(base, "C", frame_names)

    reps: List[Tuple[Section, Section]] = []
    for u in u_sub.sections:
        reps.append((u, lad.sigma_bundle.zero_section()))
    for w in w_sections:
        reps.append((lad.v_bundle.zero_section(), w))

    mp = ManinPairData(lad, delta, u_sub, k_sub, c_bundle,
                       courant=None)  # symbols need mp.normalize

    # anchor columns: c(u + sigma) = pr_TM(u) + rho(pr_A sigma)
    tangent = Bundle.tangent(base)
    anchor = HomSection.from_columns(c_bundle, tangent, [
        u_sec.component(tangent) + lad.rho(s_sec.component(lad.a_bundle))
        for u_sec, s_sec in reps])

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
    classes = [mp.normalize(lad.v_bundle.zero_section(),
                            db_canonical(lad.sigma_bundle, base.coord(coord))).coeffs
               for coord in base.coords]
    dmat = [[cls[m] for cls in classes] for m in range(c_bundle.rank)]

    mp.courant = CourantData(c_bundle, anchor, pairing, symbols, d_matrix_override=dmat)

    # well-definedness: bracketing against graph representatives dies in C
    for ki, k in enumerate(k_sub.sections):
        for phi, text in base.battery:
            kk = k.scale(phi)
            graph_rep = (-pm.apply(kk), kk)
            chk.record("graph-normalizes-to-zero", f"(({text})*k{ki + 1})",
                       mp.normalize(*graph_rep))
            for ri, rep in enumerate(reps):
                v1, s1 = mp.formula_bracket(rep[0], rep[1], *graph_rep)
                chk.record("graph-right", f"(frame {ri + 1}; ({text})*k{ki + 1})",
                           mp.normalize(v1, s1))
                v2, s2 = mp.formula_bracket(*graph_rep, rep[0], rep[1])
                chk.record("graph-left", f"(({text})*k{ki + 1}; frame {ri + 1})",
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
    s_batt = lad.sigma_bundle.battery
    s_frames = lad.sigma_bundle.frame_sections()
    for i in range(len(s_frames)):
        for f, text in enumerate(s_batt.texts):
            s1p = s_batt.sections[s_batt.pos(i, f)]
            for j, s2 in enumerate(s_frames):
                v_part, s_part = mp.formula_bracket(
                    lad.v_bundle.zero_section(), s1p, lad.v_bundle.zero_section(), s2)
                lhs = mp.normalize(v_part, s_part)
                rhs = mp.normalize(lad.v_bundle.zero_section(),
                                   lad.dorfman_like_bracket(s1p, s2))
                chk.record("condition-c",
                           f"(({text})*sigma{i + 1}; sigma{j + 1})", lhs - rhs)

    # D characterization: <<u + sigma, D phi>> = c(u + sigma)(phi)
    for ri, rep in enumerate(reps):
        e = c_bundle.frame_section(ri)
        for phi, text in base.battery:
            lhs = mp.courant.pair(e, mp.courant.D(phi))
            rhs = vf_apply(base, mp.courant.frame_table.anchors[ri], phi)
            chk.record("d-characterization", f"(frame {ri + 1}; {text})",
                       lhs - rhs if rhs._terms else lhs)
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
    for j, w in enumerate(mp.k_sub.complement_sections):
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
    gram = mp.courant.pairing
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
    pm = lad.pair_map
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
            rhs = mp.normalize(zero_v, lad.dorfman_like_bracket(s1, s2))
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

    # zero-extend over the canonical complement of U inside TM + A*: the
    # structure function on (e_m, e_l) reads the U-coordinates of e_m and e_l
    heads = [u_sub.split(e.nonzero(), base.zero())[0] for e in lad.v_bundle.frame_sections()]
    structure = []
    for head_m in heads:
        row = []
        for head_l in heads:
            total = lad.v_bundle.zero_section()
            for i in range(p):
                for j in range(p):
                    coeff = head_m[i] * head_l[j]
                    if coeff._terms:
                        total = total + u_values[(i, j)].scale(coeff)
            row.append(total)
        structure.append(row)
    bracket_rec = AnchoredBracket(lad.v_bundle, pr_tm_hom(lad.v_bundle), structure)
    delta_rec = DorfmanConnection.from_dull(bracket_rec, mp.delta.predual)
    chk.note("dull extension: zero structure functions on the complement of U")
    return VBTriple(delta_rec, u_sub, k_sub), chk.report()


def roundtrip_check(lad: LieAlgebroidData, triple: VBTriple,
                    built: Optional[Tuple[Optional[ManinPairData], CheckReport]] = None
                    ) -> CheckReport:
    """Build the Manin pair, recover the triple, compare up to equivalence.

    built is the result of build_manin_pair(lad, triple) when the caller
    already has it.
    """
    chk = Checker("roundtrip", "triple -> Manin pair -> triple is the identity on classes")
    mp, build_rep = built if built is not None else build_manin_pair(lad, triple)
    chk.note(f"build: {build_rep.status}")
    if mp is None:
        chk.error("build", "manin-pair", "construction failed")
        return chk.report()
    recovered, rec_rep = recover_triple(mp)
    chk.note(f"recover: {rec_rep.status}")
    if recovered is None:
        chk.error("recover", "recover-triple", "recovery failed")
        return chk.report()
    chk.relay("equivalent",
              check_equivalent(recovered.delta, triple.delta, triple.u_sub, triple.k_sub),
              "recovered vs input connection")
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
            _, w_coords = triple.k_sub.split(direct.nonzero(), direct.bundle.patch.zero())
            diff = [a - b if b._terms else a for a, b in zip(value.coeffs[p:], w_coords)]
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
    sigma_star = sigma.transpose()
    tangent, cotangent = Bundle.tangent(base), Bundle.cotangent(base)

    # Pi on the C-frame
    pi_cols = []
    for idx in range(mp.c_bundle.rank):
        u_sec, s_sec = mp.embed(mp.c_bundle.frame_section(idx))
        a = s_sec.component(lad.a_bundle)
        x_val = u_sec.component(tangent) + lad.rho(a)
        th_val = s_sec.component(cotangent) + sigma.apply(a)
        pi_cols.append(std.bundle.join(x_val, th_val))
    pi_hom = HomSection.from_columns(mp.c_bundle, std.bundle, pi_cols)

    # Theta on the standard frame
    theta_cols = []
    for idx in range(std.bundle.rank):
        t = std.bundle.frame_section(idx)
        x, th = t.component(tangent), t.component(cotangent)
        u_sec = lad.v_bundle.join(x, -sigma_star.apply(x))
        theta_cols.append(mp.normalize(u_sec, lad.sigma_bundle.join(th)))
    theta_hom = HomSection.from_columns(std.bundle, mp.c_bundle, theta_cols)

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
            lhs = mp.courant.pair(theta_hom.apply(t1), theta_hom.apply(t2))
            rhs = std.pair(t1, t2)
            chk.record("pairing", f"({std.bundle.frame[i]}; {std.bundle.frame[j]})",
                       lhs - rhs if rhs._terms else lhs)
        chk.record("anchor", std.bundle.frame[i],
                   mp.courant.anchor.apply(theta_hom.apply(t1))
                   - std.anchor.apply(t1))
    std_batt = std.bundle.battery
    for i in range(std.bundle.rank):
        t1 = std.bundle.frame_section(i)
        for f, text in enumerate(std_batt.texts):
            for j in range(std.bundle.rank):
                t2 = std_batt.sections[std_batt.pos(j, f)]
                lhs = theta_hom.apply(std.bracket(t1, t2))
                rhs = mp.courant.bracket(theta_hom.apply(t1), theta_hom.apply(t2))
                chk.record("bracket-transport",
                           f"({std.bundle.frame[i]}; ({text})*{std.bundle.frame[j]})",
                           lhs - rhs)
    return chk.report()
