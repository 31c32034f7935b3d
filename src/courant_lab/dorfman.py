"""Dorfman connections on pre-dual pairs of bundles.

A Dorfman connection Delta: Gamma(Q) x Gamma(B) -> Gamma(B) is stored by
its frame symbols and extended to arbitrary sections by

    Delta_{phi q} b = phi Delta_q b + <q, b> d_B phi,
    Delta_q (phi b) = phi Delta_q b + rho(q)(phi) b,

that is, by `bundle.leibniz` applied to its symbol table (a
`bundle.FrameTable` built on first use).

With the canonical nondegenerate pairing the connection is equivalent to
its dual dull bracket via

    rho(q) <q', b> = <[q, q'], b> + <q', Delta_q b>,

and both conversion directions (from_dull, the dual bracket) solve it
through one table, _axiom_c_table.  Here too are the curvature, paired
with the frame Jacobiators of algebroid.frame_jacobiators, the skew
tensor, the pairing and d_B of every pre-dual pair (PreDual, a Courant
algebroid's included), and the standard constructions: from ordinary
connections, the Lie derivative on Q* (lie_derivative_dorfman, also
L_a on A* in laops) and from isotropic subalgebroids.

A connection keeps Delta_{s_p} t_q over the batteries of Q and B (each
bundle's `bundle.Battery`, which also gives the position of a scaled
frame section) in a BatteryTable (see algebroid), as its dull bracket
keeps [[s_p, s_q]]; the axiom, duality, curvature, skew and splitting
checks read every value at battery positions from these two tables.  A
connection also keeps R(q_i, q_j) on the Q-frame, built once from nested
applications on frame triples and read by the curvature, Jacobiator and
splitting checks.  R is evaluated nowhere else: the tensoriality check
derives each case with a battery function in one slot from the frame
values by a Leibniz lemma (check_curvature_tensorial), and the
curvature-Jacobiator pairing applies R(q_i, q_j) to the B-frame only,
scales the frame case by the battery function of psi b_m, and reads its
images of the T*M frame again for `vanishes-on-forms`
(curvature_vs_jacobiator).  Axiom (c), in `dorfman-axioms` and
`duality`, is evaluated for frame v only: algebroid.record_metric
derives each case phi q_i by a Leibniz lemma, while the s slot stays
literal over the positions each check reads.  Each derived value is the
very normal form that the literal route would give.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from .algebroid import (AnchoredBracket, BatteryTable, anchor_defect, frame_jacobiators,
                        record_metric, record_right_leibniz)
from .bundle import (Bundle, BundleError, FrameTable, HomSection,
                     Section, SubBundle, column_section, column_table,
                     dual_pair, leibniz, matrix_pair, nonzero_terms, pairing_matrix,
                     pairing_rows, vf_apply, vf_bracket, lie_derivative_form)
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
        self._dual = bundle.dual()

    @cached_property
    def _tm_frame(self) -> List[Tuple[ScalarPoly, ...]]:
        """The anchor images of the TM frame d/dx_i, for the Leibniz kernel."""
        return [d.coeffs for d in Bundle.tangent(self.bundle.patch).frame_sections()]

    @cached_property
    def _nabla_frame(self) -> FrameTable:
        return FrameTable(self.gamma, self._tm_frame)

    @cached_property
    def _dual_frame(self) -> FrameTable:
        """The dual table nabla*_{d/dx_i} e^k, whose l-component is -<e^k, Gamma_il>."""
        return FrameTable([[Section(self._dual, tuple(-g.coeffs[k] for g in row))
                            for k in range(self.bundle.rank)] for row in self.gamma],
                          self._tm_frame)

    def nabla(self, x: Section, e: Section) -> Section:
        """nabla_X e: the Christoffel table Gamma_il = nabla_{d/dx_i} e_l
        extended by the Leibniz rules."""
        return leibniz(x, e, self._nabla_frame, self.bundle)

    def nabla_dual(self, x: Section, xi: Section) -> Section:
        """<nabla*_X xi, e_l> = X<xi, e_l> - <xi, nabla_X e_l>: the dual
        Christoffel table extended by the same Leibniz rules."""
        if xi.bundle is not self._dual:
            raise BundleError("nabla_dual expects a section of the dual bundle")
        return leibniz(x, xi, self._dual_frame, self._dual)


class PreDual:
    """A bundle B paired with Q, with d_B phi = dmat . grad(phi).  The
    canonical pre-dual of a bundle E records E (`e`); any other has e None."""

    def __init__(self, q: Bundle, b: Bundle, pairing: Sequence[Sequence[ScalarPoly]],
                 dmat: Sequence[Sequence[ScalarPoly]], canonical: bool = False,
                 e: Optional[Bundle] = None):
        if len(pairing) != q.rank or any(len(row) != b.rank for row in pairing):
            raise BundleError("pairing matrix shape mismatch")
        if len(dmat) != b.rank or any(len(row) != q.patch.dim for row in dmat):
            raise BundleError("d_B matrix shape mismatch")
        self.q = q
        self.b = b
        self.pairing = tuple(tuple(row) for row in pairing)
        self.dmat = tuple(tuple(row) for row in dmat)
        self.canonical = canonical
        self.e = e
        # the pairing and d_B are fixed once built: the rows of the pairing,
        # as matrix_pair reads them, and the column table of dmat
        self.pair_rows = pairing_rows(self.pairing)
        self._d_table = column_table(self.dmat, q.patch.dim)

    def pair(self, q_sec: Section, b_sec: Section) -> ScalarPoly:
        return matrix_pair(self.pair_rows, q_sec, b_sec)

    def d(self, phi: ScalarPoly) -> Section:
        """d_B phi = dmat . grad(phi), over the nonzero partials of phi."""
        return column_section(self.b, self._d_table, nonzero_terms(phi.gradient()))

    def constant_pairing(self) -> List[List[Fraction]]:
        return [[entry.constant_value() for entry in row] for row in self.pairing]


def canonical_predual(e_bundle: Bundle) -> PreDual:
    """Q = TM + E*, B = E + T*M with the canonical pairing and d_B = (0, d)."""
    base = e_bundle.patch
    cotangent = Bundle.cotangent(base)
    q = Bundle.tangent(base) + e_bundle.dual()
    b = e_bundle + cotangent
    matrix = pairing_matrix(q, b)
    pairing = [[base.const(x) for x in row] for row in matrix]
    # d_B phi = (0, d phi): column i of dmat is (0, dx_i)
    columns = [b.join(theta) for theta in cotangent.frame_sections()]
    dmat = HomSection.from_columns(cotangent, b, columns).matrix
    return PreDual(q, b, pairing, dmat, canonical=True, e=e_bundle)


def zero_predual(q: Bundle, b: Bundle) -> PreDual:
    """Trivial pairing and d_B; any Q-connection on B is then Dorfman."""
    base = q.patch
    z = base.zero()
    return PreDual(q, b, [[z] * b.rank for _ in range(q.rank)],
                   [[z] * base.dim for _ in range(b.rank)])


def pr_tm_hom(q: Bundle) -> HomSection:
    """Projection of Q onto its TM summand, as a HomSection Q -> TM."""
    tangent = Bundle.tangent(q.patch)
    return HomSection.from_columns(q, tangent, [v.component(tangent) for v in q.frame_sections()])


class DorfmanConnection:
    """Frame symbols of Delta plus the dull bracket on Q it interacts with."""

    def __init__(self, predual: PreDual, bracket: AnchoredBracket,
                 symbols: Sequence[Sequence[Section]]):
        if bracket.bundle is not predual.q:
            raise BundleError("the dull bracket must live on the acting bundle")
        if len(symbols) != predual.q.rank or any(len(r) != predual.b.rank for r in symbols):
            raise BundleError("need one symbol per (Q-frame, B-frame) pair")
        for row in symbols:
            for sec in row:
                if sec.bundle is not predual.b:
                    raise BundleError("symbols must be sections of B")
        self.predual = predual
        self.bracket = bracket
        self.symbols = tuple(tuple(row) for row in symbols)

    @property
    def q(self) -> Bundle:
        return self.predual.q

    @property
    def b(self) -> Bundle:
        return self.predual.b

    @property
    def e(self) -> Bundle:
        """The E of B = E + T*M, for a connection on the canonical pre-dual of E."""
        if self.predual.e is None:
            raise BundleError(f"{self.b.label()} is not E + T*M for a bundle E")
        return self.predual.e

    # -- application -----------------------------------------------------

    def apply(self, v: Section, s: Section) -> Section:
        q, b = self.predual.q, self.predual.b
        if v.bundle is not q or s.bundle is not b:
            raise BundleError("apply expects sections of Q and B")
        return leibniz(v, s, self.frame_table, b,
                       pair_rows=self.predual.pair_rows, d=self.predual.d)

    @cached_property
    def frame_table(self) -> FrameTable:
        """The symbols and the dull bracket's frame anchors, as leibniz reads them."""
        return FrameTable(self.symbols, self.bracket.frame_rho)

    @cached_property
    def battery_table(self) -> BatteryTable:
        """Delta_{s_p} t_q over the batteries of Q and B, kept as long as the
        connection."""
        return BatteryTable(self.q.battery, self.b.battery)

    def battery_apply(self, p: int, q: int) -> Section:
        """Delta_{s_p} t_q for the battery positions p and q, evaluated once."""
        return self.battery_table.get(self.apply, p, q)

    # -- duality ---------------------------------------------------------

    @classmethod
    def with_dual_bracket(cls, predual: PreDual, anchor: HomSection,
                          symbols: Sequence[Sequence[Section]]) -> "DorfmanConnection":
        """The connection with these frame symbols together with its dual
        dull bracket (see dual_bracket), whose anchor is `anchor`."""
        return cls(predual, _dual_bracket(predual, anchor, symbols), symbols)

    def dual_bracket(self) -> AnchoredBracket:
        """The dull bracket on Q determined by the nondegenerate pairing."""
        return _dual_bracket(self.predual, self.bracket.anchor, self.symbols)

    @classmethod
    def from_dull(cls, bracket: AnchoredBracket, predual: PreDual) -> "DorfmanConnection":
        """Invert axiom (c): <q_j, Delta_{q_i} b_k> = rho(q_i)<q_j,b_k> - <[q_i,q_j],b_k>."""
        q, b = predual.q, predual.b
        b_frames = b.frame_sections()
        table = _axiom_c_table(predual, bracket.frame_table.anchors,
                               lambda i, j, k: predual.pair(bracket.structure[i][j], b_frames[k]))
        # Delta_{q_i} b_k = P^-1 (table[i][j][k] over j)
        p = column_table(invert(predual.constant_pairing()), q.rank)
        symbols = [[column_section(b, p, nonzero_terms([row[k] for row in rows]))
                    for k in range(b.rank)] for rows in table]
        return cls(predual, bracket, symbols)

    def check_duality(self) -> CheckReport:
        """rho(v)<s,w> = <[v,w], s> + <w, Delta_v s> plus the symbol roundtrip."""
        chk = Checker("duality", "the connection and its dull bracket determine each other")
        q_batt, b_batt = self.battery_table.rows, self.battery_table.cols
        self._record_axiom_c(chk, range(len(b_batt.sections)))
        if self.predual.canonical:
            recovered = DorfmanConnection.from_dull(self.dual_bracket(), self.predual)
            for i in range(self.q.rank):
                for k in range(self.b.rank):
                    chk.record("roundtrip", f"({self.q.frame[i]}; {self.b.frame[k]})",
                               recovered.symbols[i][k] - self.symbols[i][k])
        if self.predual.e is not None:
            # Delta_v(0, theta) = (0, L_{pr_TM v} theta) on every representative
            ct, tangent = Bundle.cotangent(self.q.patch), Bundle.tangent(self.q.patch)
            # (0, theta_j) is the B-frame section at the j-th T*M position
            forms = list(zip(ct.frame, ct.frame_sections(), self.b.positions(ct)))
            for p, (label_v, v) in enumerate(zip(q_batt.labels, q_batt.sections)):
                x = v.component(tangent)
                for name, theta, k in forms:
                    expected = self.b.join(lie_derivative_form(x, theta))
                    chk.record("forms-rule", f"({label_v}; {name})",
                               self.battery_apply(p, b_batt.frames[k]) - expected)
        return chk.report()

    # -- axioms -----------------------------------------------------------

    def check_axioms(self) -> CheckReport:
        chk = Checker("dorfman-axioms", "connection axioms (a), (b), (c)")
        q_batt, b_batt = self.battery_table.rows, self.battery_table.cols
        d_functions = [self.predual.d(phi) for phi in b_batt.functions]
        for i, p in enumerate(q_batt.frames):
            qf, qname = q_batt.sections[p], q_batt.labels[p]
            # row[k] = Delta_{q_i} s_k over the battery
            row = [self.battery_apply(p, k) for k in range(len(b_batt.sections))]
            pairings = [self.predual.pair(qf, bsec) for bsec in b_batt.sections]
            for f, phi in enumerate(b_batt.functions):
                scaled = q_batt.pos(i, f)  # phi_f q_i
                for k, label_b in enumerate(b_batt.labels):
                    rhs = row[k].scale(phi) + d_functions[f].scale(pairings[k])
                    chk.record("axiom-a", f"(({b_batt.texts[f]})*{qname}; {label_b})",
                               self.battery_apply(scaled, k) - rhs)
                record_right_leibniz(chk, "axiom-b", qname, self.bracket.frame_rho[i], row,
                                     b_batt, f)
        self._record_axiom_c(chk, b_batt.frames)
        return chk.report()

    def _record_axiom_c(self, chk: Checker, s_positions: Sequence[int]) -> None:
        """Axiom (c): v over the Q-battery, w over the Q-frame, s at B-battery
        s_positions.  Only frame v is evaluated; record_metric derives the
        cases phi q_i from them."""
        q_batt, b_batt = self.battery_table.rows, self.battery_table.cols
        q_frames = [(q_batt.labels[t], q_batt.sections[t]) for t in q_batt.frames]
        s_entries = [(b_batt.labels[t], b_batt.sections[t]) for t in s_positions]
        # rho(q_i) is column i of the anchor, which record_metric applies to w
        rows = ((q_batt.labels[p], self.bracket.anchor.column(i),
                 [self.bracket.battery_bracket(p, t) for t in q_batt.frames],
                 [self.battery_apply(p, t) for t in s_positions])
                for i, p in enumerate(q_batt.frames))
        record_metric(chk, "axiom-c", self.predual.pair, q_frames, s_entries, rows,
                      anchor=self.bracket.anchor, d=self.predual.d)

    # -- curvature ---------------------------------------------------------

    def frame_curvature(self, i: int, j: int) -> HomSection:
        """R(q_i, q_j) for the Q-frame elements q_i, q_j."""
        return self._frame_curvatures[i][j]

    @cached_property
    def _frame_curvatures(self) -> Tuple[Tuple[HomSection, ...], ...]:
        """R(q_i, q_j) on every pair of Q-frame elements, built once per
        connection: the only values of R evaluated by nested applications.
        Delta_{q_i} Delta_{q_j} t_k is the first term of R(q_i, q_j) t_k and
        the second of R(q_j, q_i) t_k, so each is applied once."""
        table = self.battery_table
        q_pos, b_pos = table.rows.frames, table.cols.frames
        rows, cols = table.rows.sections, table.cols.sections
        nested = [[[self.apply(rows[a], self.battery_apply(c, t)) for t in b_pos] for c in q_pos]
                  for a in q_pos]
        return tuple(tuple(HomSection.from_columns(self.b, self.b, [
            nested[i][j][k] - nested[j][i][k]
            - self.apply(self.bracket.battery_bracket(a, c), cols[t])
            for k, t in enumerate(b_pos)]) for j, c in enumerate(q_pos))
            for i, a in enumerate(q_pos))

    def check_curvature_tensorial(self) -> CheckReport:
        """R(v, v') is C-infinity linear in every argument, on the battery.

        R is evaluated only on frame triples (frame_curvature).  A case with
        the battery function phi in one slot is recorded as R there less
        phi R(q_i, q_j) t, which three lemmas give from frame values, with
        rho_i = rho(q_i), dphi = d_B phi and the anchor defect D_ij =
        [rho_i, rho_j] - rho([[q_i, q_j]]) (algebroid.anchor_defect):

            R(q_i, q_j)(phi t) = phi R t + D_ij(phi) t,
            R(phi q_i, q_j) t = phi R t + (<q_i, Delta_j t> - rho_j<q_i, t>
                - <[[q_i, q_j]], t>) dphi - <q_i, t> (Delta_j dphi - d_B(rho_j phi)),
            R(q_i, phi q_j) t = phi R t + (rho_i<q_j, t> - <q_j, Delta_i t>
                - <[[q_i, q_j]], t>) dphi + <q_j, t> (Delta_i dphi - d_B(rho_i phi)).

        Proofs, by the Leibniz rules Delta_{phi q} b = phi Delta_q b +
        <q, b> dphi, Delta_q (phi b) = phi Delta_q b + rho(q)(phi) b,
        [[phi q1, q2]] = phi [[q1, q2]] - rho(q2)(phi) q1 and [[q1, phi q2]] =
        phi [[q1, q2]] + rho(q1)(phi) q2:
        in b, the rho_i(phi) Delta_j t and rho_j(phi) Delta_i t terms of the
        two nested terms cancel, leaving [rho_i, rho_j](phi) t, and
        Delta_{[[q_i, q_j]]} leaves rho([[q_i, q_j]])(phi) t;
        in q1, expanding Delta_{phi q_i}, Delta_j (phi Delta_i t + <q_i, t>
        dphi) and Delta over [[phi q_i, q_j]], the rho_j(phi) Delta_i t terms
        cancel;
        in q2, the same over Delta_i (phi Delta_j t + <q_j, t> dphi),
        Delta_{phi q_j} and [[q_i, phi q_j]], the rho_i(phi) Delta_j t terms
        cancel.
        `leibniz` satisfies each rule term by term, for Delta and for the
        dull bracket, so the derived difference is the normal form that the
        nested applications give (tests/test_derived_battery.py).  Delta_j
        dphi comes from the table entries Delta_j t_k by the rule in b, so
        beyond the frame curvatures the check applies Delta to nothing.
        """
        chk = Checker("curvature-tensorial",
                      "R(v,v') is C-infinity linear in every argument")
        q_batt, b_batt = self.battery_table.rows, self.battery_table.cols
        q_names, b_names = self.q.frame, self.b.frame
        base, zero = self.q.patch, self.b.zero_section()
        pair, d, anchor = self.predual.pair, self.predual.d, self.bracket.anchor
        rho = self.bracket.frame_table.anchors
        q_frames, b_frames = self.q.frame_sections(), self.b.frame_sections()
        columns = [anchor.column(i) for i in range(self.q.rank)]
        # deltas[j][k] = Delta_j t_k, the table entries on the frames
        deltas = [[self.battery_apply(c, t) for t in b_batt.frames] for c in q_batt.frames]

        def shift(j, phi, dphi):
            """Delta_j dphi - d_B(rho_j phi), with Delta_j dphi = sum_k c_k
            Delta_j t_k + rho_j(c_k) t_k over the components c_k of dphi."""
            total = zero
            for k, c in dphi.nonzero():
                total = (total + deltas[j][k].scale(c)
                         + b_frames[k].scale(vf_apply(base, rho[j], c)))
            return total - d(vf_apply(base, rho[j], phi))

        # battery function 0 is 1: every case with f = 0 is a frame value, its difference zero
        functions = q_batt.functions
        d_phis = [d(phi) for phi in functions[1:]]
        shifts = [[shift(j, phi, dphi) for j in range(self.q.rank)]
                  for phi, dphi in zip(functions[1:], d_phis)]
        pairings = [[pair(q, t) for t in b_frames] for q in q_frames]
        # first[a][c][k] = <q_a, Delta_c t_k> - rho_c<q_a, t_k>
        first = [[[pair(q, delta) for delta in row] for row in deltas] for q in q_frames]
        for a, row in enumerate(pairings):
            for k, paired in enumerate(row):
                if paired._terms:  # rho_c of a zero pairing is zero
                    for c, rho_c in enumerate(rho):
                        first[a][c][k] = first[a][c][k] - vf_apply(base, rho_c, paired)
        for i, p1 in enumerate(q_batt.frames):
            for j, p2 in enumerate(q_batt.frames):
                lie = self.bracket.battery_bracket(p1, p2)
                defect = anchor_defect(anchor, columns[i], columns[j], lie)
                lies = [pair(lie, t) for t in b_frames]
                # the coefficients of dphi in the lemmas for q1 and q2
                coeff_q1 = [first[i][j][k] - lies[k] for k in range(self.b.rank)]
                coeff_q2 = [-(first[j][i][k] + lies[k]) for k in range(self.b.rank)]
                inputs = f"({q_names[i]}; {q_names[j]})"
                for f, text in enumerate(q_batt.texts):
                    if f:
                        dphi, shift = d_phis[f - 1], shifts[f - 1]
                        d_ij = vf_apply(base, defect, functions[f])
                        in_b = [t.scale(d_ij) for t in b_frames]
                        in_q1 = [dphi.scale(c) - shift[j].scale(pairings[i][k])
                                 for k, c in enumerate(coeff_q1)]
                        in_q2 = [dphi.scale(c) + shift[i].scale(pairings[j][k])
                                 for k, c in enumerate(coeff_q2)]
                    else:
                        in_b = in_q1 = in_q2 = [zero] * self.b.rank
                    for k in range(self.b.rank):
                        chk.record("linear-in-b", inputs + f" on ({text})*{b_names[k]}", in_b[k])
                    for k in range(self.b.rank):
                        chk.record("linear-in-q1", f"(({text})*{q_names[i]}; {q_names[j]}) on "
                                   f"{b_names[k]}", in_q1[k])
                        chk.record("linear-in-q2", f"({q_names[i]}; ({text})*{q_names[j]}) on "
                                   f"{b_names[k]}", in_q2[k])
        return chk.report()

    def curvature_vs_jacobiator(self) -> CheckReport:
        """<R(q1,q2) b, q3> equals the pairing with the bracket Jacobiator.

        `pairing` runs over frame q1, q2, q3 and b over the battery of B.
        Only the cases b = b_m of the B-frame are evaluated; the case psi b_m
        is psi times the case b_m.  Proof: R(q_i, q_j) is applied as a
        HomSection (frame_curvature), a matrix of functions, so R(q_i,
        q_j)(psi b_m) = psi R(q_i, q_j) b_m; and both pairings are
        C-infinity-bilinear, so <q_k, R(q_i, q_j)(psi b_m)> - <J_ijk, psi
        b_m> = psi (<q_k, R(q_i, q_j) b_m> - <J_ijk, b_m>), J_ijk the
        Jacobiator.  No correction term is left, and the product is the
        normal form that the literal pairings give.  `vanishes-on-forms`
        (on a canonical pre-dual) reads the images of the T*M frame of B
        that the pairing loop forms, and is recorded after every pairing.
        """
        chk = Checker("curvature-jacobiator",
                      "curvature pairs as the Jacobiator of the dual bracket")
        names = self.q.frame
        table = self.bracket.battery_table
        q_batt, b_batt = table.rows, self.battery_table.cols
        b_frames = [b_batt.sections[t] for t in b_batt.frames]
        functions, layout = b_batt.functions, [b_batt.factors(t) for t in range(len(b_batt.labels))]
        # the images of the T*M frame of B, recorded after every pairing
        forms = self.b.positions(Bundle.cotangent(self.q.patch)) if self.predual.e is not None \
            else ()
        form_images = []  # (i, j, [R(q_i, q_j) b_k for k in forms])
        for i, j, jacs in frame_jacobiators(table, self.bracket.bracket, q_batt.frames):
            images = [self.frame_curvature(i, j).apply(bsec) for bsec in b_frames]
            form_images.append((i, j, [images[k] for k in forms]))
            for k, jac in enumerate(jacs):
                q3 = q_batt.sections[q_batt.frames[k]]
                triple = -jac  # [[q_i, q_j], q_k] + [q_j, [q_i, q_k]] - [q_i, [q_j, q_k]]
                cases = []  # cases[m]: the case on b_m
                for bsec, image in zip(b_frames, images):
                    lhs = self.predual.pair(q3, image)
                    rhs = self.predual.pair(triple, bsec)
                    cases.append(lhs - rhs if rhs._terms else lhs)
                for label_b, (m, f) in zip(b_batt.labels, layout):
                    value = cases[m]
                    chk.record("pairing", f"({names[i]}; {names[j]}; {names[k]}; {label_b})",
                               functions[f] * value if f and value._terms else value)
        for i, j, images in form_images:
            for k, image in zip(forms, images):
                chk.record("vanishes-on-forms", f"({names[i]}; {names[j]}; {self.b.frame[k]})",
                           image)
        return chk.report()

    # -- skew tensor ---------------------------------------------------------

    def battery_skew(self, p: int, q: int) -> Section:
        """[[s_p, s_q]] + [[s_q, s_p]] for the Q-battery positions p and q."""
        return self.bracket.battery_bracket(p, q) + self.bracket.battery_bracket(q, p)

    def check_skew(self) -> CheckReport:
        chk = Checker("skew", "symmetrized bracket is tensorial with vanishing TM part")
        batt = self.bracket.battery_table.rows
        tangent = Bundle.tangent(self.q.patch)
        for i, p1 in enumerate(batt.frames):
            for j, p2 in enumerate(batt.frames):
                sym = self.battery_skew(p1, p2)
                inputs = f"({self.q.frame[i]}; {self.q.frame[j]})"
                for comp in sym.component(tangent).coeffs:
                    chk.record("tm-part", inputs, comp)
                for f, (phi, text) in enumerate(zip(batt.functions, batt.texts)):
                    scaled = sym.scale(phi)
                    chk.record("bilinear", inputs + f" scaled by {text}",
                               self.battery_skew(batt.pos(i, f), p2) - scaled)
                    chk.record("bilinear", inputs + f" scaled by {text} (right)",
                               self.battery_skew(p1, batt.pos(j, f)) - scaled)
        return chk.report()


def _dual_bracket(predual: PreDual, anchor: HomSection,
                  symbols: Sequence[Sequence[Section]]) -> AnchoredBracket:
    """The dull bracket with this anchor dual to the symbols,
    <[q_i, q_j], b_k> = rho(q_i)<q_j, b_k> - <q_j, Delta_{q_i} b_k>, solved
    with the inverse of the constant pairing."""
    q, b = predual.q, predual.b
    q_frames = q.frame_sections()
    table = _axiom_c_table(predual, [anchor.column(i).nonzero() for i in range(q.rank)],
                           lambda i, j, k: predual.pair(q_frames[j], symbols[i][k]))
    # [q_i, q_j] = P^-T (table[i][j][k] over k)
    p_t = column_table(list(zip(*invert(predual.constant_pairing()))), b.rank)
    return AnchoredBracket(q, anchor, [[column_section(q, p_t, nonzero_terms(row)) for row in rows]
                                       for rows in table])


def _axiom_c_table(predual: PreDual, anchors: Sequence[Sequence[Tuple[int, ScalarPoly]]],
                   known: Callable[[int, int, int], ScalarPoly]
                   ) -> List[List[List[ScalarPoly]]]:
    """[i][j][k] = rho(q_i)<q_j, b_k> - known(i, j, k), anchors[i] the view
    of rho(q_i): axiom (c) solved for the term that known does not give,
    for from_dull and _dual_bracket.  Only the non-constant pairing entries
    are differentiated."""
    base = predual.q.patch
    table = [[[base.zero()] * predual.b.rank for _ in predual.pair_rows] for _ in anchors]
    for i, rho in enumerate(anchors):
        for j, (pairing_row, row) in enumerate(zip(predual.pair_rows, table[i])):
            for k, entry in pairing_row:
                if entry is not None and not entry.is_constant():
                    row[k] = vf_apply(base, rho, entry)
            for k, value in enumerate(row):
                term = known(i, j, k)
                if term._terms:
                    row[k] = value - term
    return table


# -- constructions ----------------------------------------------------------


def standard_dorfman(conn: Connection) -> DorfmanConnection:
    """Delta_{(X,xi)}(e,theta) = (nabla_X e, L_X theta + <nabla*_. xi, e>):
    the sigma = 0 case of im2form_dorfman."""
    e_bundle = conn.bundle
    return im2form_dorfman(HomSection.zero(e_bundle, Bundle.cotangent(e_bundle.patch)), conn)


def im2form_dorfman(sigma: HomSection, conn: Connection) -> DorfmanConnection:
    """The connection attached to a bundle map sigma: E -> T*M and nabla.

    Delta_{(X,xi)}(e,theta) = (nabla_X e,
        L_X(theta - sigma e) + <nabla*_.(sigma* X + xi), e> + sigma(nabla_X e)).
    """
    e_bundle = conn.bundle
    base = e_bundle.patch
    cotangent = Bundle.cotangent(base)
    if sigma.source is not e_bundle or sigma.target is not cotangent:
        raise BundleError("sigma must map E into T*M")
    predual = canonical_predual(e_bundle)
    q, b = predual.q, predual.b
    tangent = Bundle.tangent(base)
    sigma_star = sigma.transpose()

    def delta_value(v: Section, s: Section) -> Section:
        x, xi, e_sec, theta = (v.component(tangent), v.component(e_bundle.dual()),
                               s.component(e_bundle), s.component(cotangent))
        nab = conn.nabla(x, e_sec)
        form = lie_derivative_form(x, theta - sigma.apply(e_sec))
        shifted = sigma_star.apply(x) + xi
        if not (shifted.is_zero() or e_sec.is_zero()):
            corr = [dual_pair(conn.nabla_dual(xl, shifted), e_sec)
                    for xl in tangent.frame_sections()]
            form = form + Section(form.bundle, tuple(corr))
        form = form + sigma.apply(nab)
        return b.join(nab, form)

    symbols = [[delta_value(v, s) for s in b.frame_sections()] for v in q.frame_sections()]
    return DorfmanConnection.with_dual_bracket(predual, pr_tm_hom(q), symbols)


def lie_derivative_dorfman(bracket: AnchoredBracket) -> DorfmanConnection:
    """The easiest nontrivial example: Q acting on Q* by <L_q xi, q'> =
    rho(q)<xi, q'> - <xi, [q, q']>."""
    q = bracket.bundle
    dual = q.dual()
    base = q.patch
    matrix = pairing_matrix(q, dual)
    pairing = [[base.const(x) for x in row] for row in matrix]
    # d phi = rho* d phi: <d phi, q_j> = rho(q_j)(phi), so row j of dmat is rho(q_j)
    predual = PreDual(q, dual, pairing, bracket.frame_rho, canonical=True)
    # frame pairings are constant, so only the bracket term survives:
    # <L_{q_i} xi_j, q_k> = -<xi_j, [q_i, q_k]>, coefficient j of S_ik
    symbols = [[Section(dual, tuple(-s_ik.coeffs[j] for s_ik in bracket.structure[i]))
                for j in range(dual.rank)] for i in range(q.rank)]
    return DorfmanConnection(predual, bracket, symbols)


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
    values = []
    for i, k1 in enumerate(k_sub.sections):
        values.append([])
        for j, k2 in enumerate(k_sub.sections):
            if not chk.record("isotropic", f"<k{i + 1}, k{j + 1}>", courant.pair(k1, k2)):
                ok = False
            value = courant.bracket(k1, k2)
            values[-1].append(value)
            if not chk.require("bracket-closed", f"[k{i + 1}, k{j + 1}] = {value}",
                               k_sub.contains(value)):
                ok = False
    if not ok:
        return None, chk.report(ERROR)

    # dull structure on K: restriction of the big bracket
    rho_k = [courant.anchor.apply(sec) for sec in k_sub.sections]
    k_bracket = AnchoredBracket.induced(k_sub, rho_k, values)
    k_bundle = k_bracket.bundle

    # quotient bundle: canonical complement classes
    comp_sections = k_sub.complement_sections
    quotient = Bundle.vector(base, "Ebar", tuple(f"w{i + 1}" for i in range(len(comp_sections))))

    def project(section: Section) -> Section:
        _, rest = k_sub.split(section.nonzero(), section.bundle.patch.zero())
        return Section(quotient, tuple(rest))

    pairing = [[courant.pair(k1, w) for w in comp_sections] for k1 in k_sub.sections]
    big_dmat = courant.d_matrix()
    # rows of the quotient d: complement coordinates of the big D matrix columns
    cols = [project(Section(big, tuple(row[l] for row in big_dmat))).coeffs
            for l in range(base.dim)]
    dmat = [[col[j] for col in cols] for j in range(quotient.rank)]
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
    if all(sec.is_constant() for sec in rho_k):
        s_sub = SubBundle("S", [sec for sec in rho_k if not sec.is_zero()],
                          Bundle.tangent(base))
        for i, k1 in enumerate(k_sub.sections):
            for j, w in enumerate(comp_sections):
                for phi, text in base.battery:
                    value = delta.apply(k_bundle.frame_section(i),
                                        project(w).scale(phi))
                    lifted = sum((comp_sections[m].scale(value.coeffs[m])
                                  for m in range(quotient.rank)), big.zero_section())
                    lhs = courant.anchor.apply(lifted)
                    rhs = vf_bracket(rho_k[i], courant.anchor.apply(w.scale(phi)))
                    diff = lhs - rhs
                    chk.record("bott-anchor", f"(k{i + 1}; ({text})*w{j + 1}) mod rho(K)",
                               s_sub.residual(diff))
    else:
        chk.note("bott-anchor: skipped (rho(K) frame is not constant)")
    return delta, chk.report()
