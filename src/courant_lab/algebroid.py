"""Anchored brackets on trivialized bundles, and the bracket axioms.

An AnchoredBracket stores an anchor matrix and the bracket values on frame
pairs; the bracket of arbitrary sections is `bundle.leibniz` applied to
that frame table (a `bundle.FrameTable`, built on first use), so the
Leibniz identity holds by construction.
Structure functions are stored for all ordered pairs: antisymmetry is a
checkable property, never an assumption.

record_jacobi (Jacobi in Leibniz form), record_symmetrized,
record_anchor_morphism, record_metric (axiom (c)) and record_right_leibniz
(axiom (b)) are the one kernel per Courant algebroid identity (Liu,
Weinstein and Xu) for every check that verifies one.  Each reads the
values its check already holds, over a `bundle.Battery`, whose bundle
fixes its functions, labels and layout (Bundle.battery).  A BatteryTable
keeps op(s_p, t_q) by position, evaluated on first read: an
AnchoredBracket keeps [s_p, s_q] over the battery of its bundle for its
lifetime, read by its Lie and anchor checks and by the Dorfman checks.
On a bundle of rank 0 the Lie check records nothing: it passes with a
detail line.

frame_jacobiators is the one table of frame Jacobiators, for record_jacobi
and DorfmanConnection.curvature_vs_jacobiator.  The battery cases of an
identity that is a Leibniz extension of frame data are derived from frame
values where the rule is exact.  Given the anchor of its operation,
record_jacobi reads the Jacobiator on frame triples and derives each case
phi e_k of its third slot by the lemma in its docstring;
record_symmetrized and record_anchor_morphism derive the cases with a
battery function in one slot (the Lie check) or in both (courant-axioms)
from the frame pair; given the anchor and d_B of a Dorfman connection,
record_metric derives axiom (c) at phi q_i from frame v.  So the Lie
check reads only the frame entries of its table, courant-axioms only its
frame rows and columns, and the derived values are the very normal forms
that the nested brackets give (tests/test_derived_battery.py).
The battery itself is unchanged, and so is what it cannot see.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .bundle import (Battery, Bundle, BundleError, FrameTable, HomSection, Section, SubBundle,
                     Terms, leibniz, random_sections, vf_apply, vf_bracket,
                     BATTERY_SEED)
from .poly import ScalarPoly, sum_of_products
from .report import Checker, CheckReport, PASS

Entries = Sequence[Tuple[str, Section]]  # labelled sections


class AnchoredBracket:
    """A bundle Q with anchor rho: Q -> TM and frame structure functions."""

    def __init__(self, bundle: Bundle, anchor: HomSection,
                 structure: Sequence[Sequence[Section]]):
        tangent = Bundle.tangent(bundle.patch)
        if anchor.source is not bundle or anchor.target is not tangent:
            raise BundleError("anchor must map the bundle to TM over its patch")
        r = bundle.rank
        if len(structure) != r or any(len(row) != r for row in structure):
            raise BundleError("structure functions need one section per ordered frame pair")
        for row in structure:
            for sec in row:
                if sec.bundle is not bundle:
                    raise BundleError("structure functions must be sections of the bundle")
        self.bundle = bundle
        self.anchor = anchor
        self.structure = tuple(tuple(row) for row in structure)
        # anchor images of the frame; the anchor is fixed once built
        self.frame_rho = [anchor.apply(sec).coeffs for sec in bundle.frame_sections()]
        # check_lie reports by seed; anchor and structure never change
        self._lie_reports: Dict[int, CheckReport] = {}

    @classmethod
    def from_pairs(cls, bundle: Bundle, anchor: HomSection,
                   pairs: Dict[Tuple[int, int], Section] | None = None,
                   antisymmetrize: bool = False) -> "AnchoredBracket":
        r = bundle.rank
        table = [[bundle.zero_section() for _ in range(r)] for _ in range(r)]
        for (i, j), sec in (pairs or {}).items():
            table[i][j] = sec
            if antisymmetrize:
                table[j][i] = -sec
        return cls(bundle, anchor, table)

    # -- anchor ---------------------------------------------------------

    def rho(self, q: Section) -> Section:
        return self.anchor.apply(q)

    # -- bracket ----------------------------------------------------------

    def bracket(self, q1: Section, q2: Section) -> Section:
        """Leibniz extension of the frame structure functions.

        [phi qi, psi qj] = phi psi [qi,qj] + phi rho(qi)(psi) qj
                            - psi rho(qj)(phi) qi, summed coefficientwise.
        """
        bundle = self.bundle
        if q1.bundle is not bundle or q2.bundle is not bundle:
            raise BundleError("bracket arguments must be sections of the bundle")
        return leibniz(q1, q2, self.frame_table, bundle, bracket=True)

    @cached_property
    def frame_table(self) -> FrameTable:
        """The structure functions and frame anchors, as leibniz reads them."""
        return FrameTable(self.structure, self.frame_rho)

    def jacobiator(self, q1: Section, q2: Section, q3: Section,
                   b12: Section, b23: Section) -> Section:
        """[[q1, q2], q3] + [q2, [q1, q3]] - [q1, [q2, q3]], given the inner
        brackets b12 = [q1, q2] and b23 = [q2, q3]."""
        return (self.bracket(b12, q3)
                + self.bracket(q2, self.bracket(q1, q3))
                - self.bracket(q1, b23))

    @cached_property
    def battery_table(self) -> "BatteryTable":
        """[s_p, s_q] over the battery of the bundle, kept as long as the bracket."""
        return BatteryTable(self.bundle.battery, self.bundle.battery)

    def battery_bracket(self, p: int, q: int) -> Section:
        """[s_p, s_q] for the battery positions p and q, evaluated once."""
        return self.battery_table.get(self.bracket, p, q)

    # -- checks ----------------------------------------------------------

    def check_anchor_compat(self) -> CheckReport:
        """rho[q, q'] = [rho q, rho q'] on frames and the coefficient battery."""
        chk = Checker("anchor-compat", "anchor intertwines the bracket with vector fields")
        table = self.battery_table
        record_anchor_morphism(chk, "anchor-compat", table, self.bracket, self.anchor,
                               [self.rho(q) for q in table.rows.sections])
        return chk.report()

    def check_lie(self, seed: int = BATTERY_SEED) -> CheckReport:
        """Antisymmetry plus Jacobi on the frame battery -> Lie algebroid.

        Both are read off frame values.  Antisymmetry on phi e_i, psi e_j
        is phi psi ([e_i, e_j] + [e_j, e_i]) (record_symmetrized; a
        bracket has no pairing term).  Jacobi with a scaled third slot
        follows from the frame Jacobiators and the anchor (record_jacobi).
        The Jacobiators of consecutive random sections, drawn from seed,
        are evaluated literally, so a fault of the extension itself still
        shows there.  Computed once per seed; every later call returns the
        same report.
        """
        report = self._lie_reports.get(seed)
        if report is None:
            report = self._lie_reports[seed] = self._lie_report(seed)
        return report

    def _lie_report(self, seed: int) -> CheckReport:
        chk = Checker("lie", "bracket is antisymmetric and satisfies the Jacobi identity")
        if not self.bundle.rank:
            chk.note("rank 0: trivially a Lie algebroid")
            return chk.report(PASS)
        table = self.battery_table
        record_symmetrized(chk, "antisymmetry", table, self.bracket, scaled=1)
        # [[q_i, q_j], s] + [q_j, [q_i, s]] - [q_i, [q_j, s]]: the Courant form negated
        record_jacobi(chk, "jacobi", table, self.bracket, negate=True, anchor=self.anchor)
        rng = random.Random(seed)
        randoms = random_sections(self.bundle, 8, rng)
        # adjacent[k] = [r_k, r_{k+1}]: the first inner bracket of window k
        # and the last of window k - 1
        adjacent = [self.bracket(r1, r2) for r1, r2 in zip(randoms, randoms[1:])]
        for k in range(len(randoms) - 2):
            chk.record("jacobi", f"(random {k}; random {k + 1}; random {k + 2})",
                       self.jacobiator(*randoms[k:k + 3], adjacent[k], adjacent[k + 1]))
        return chk.report()

    # -- restriction -------------------------------------------------------

    @classmethod
    def induced(cls, sub: SubBundle, anchors: Sequence[Section],
                values: Sequence[Sequence[Section]]) -> "AnchoredBracket":
        """The bracket induced on a constant subbundle: anchors[i] is the
        anchor image of its i-th frame section and values[i][j] the bracket
        of its i-th and j-th frame sections, a section of the subbundle."""
        small = sub.as_bundle()
        anchor = HomSection.from_columns(small, Bundle.tangent(small.patch), anchors)
        return cls(small, anchor, [[Section(small, tuple(sub.coords(value))) for value in row]
                                   for row in values])

    def restrict(self, sub: SubBundle,
                 values: Optional[Sequence[Sequence[Section]]] = None) -> "AnchoredBracket":
        """The induced bracket on a constant subbundle closed under it;
        values[i][j], when given, is the bracket of its i-th and j-th frame
        sections, computed here otherwise."""
        if values is None:
            values = [[self.bracket(s1, s2) for s2 in sub.sections] for s1 in sub.sections]
        for s1, row in zip(sub.sections, values):
            for s2, value in zip(sub.sections, row):
                if not sub.contains(value):
                    raise BundleError(
                        f"bracket does not restrict to {sub.name}: [{s1}; {s2}] = {value}")
        return AnchoredBracket.induced(sub, [self.rho(sec) for sec in sub.sections], values)


# -- the bracket axioms over a battery ------------------------------------------


class BatteryTable:
    """op(s_p, t_q) over a row and a column Battery, by position: an entry is
    evaluated on its first read, by the op that read passes (the owner's
    public bracket or apply, which a wrapper of it sees), and kept.  Only
    sections are stored, so an owner that keeps a table makes no cycle."""

    def __init__(self, rows: Battery, cols: Battery):
        self.rows, self.cols = rows, cols
        self._entries: List[List[Optional[Section]]] = [[None] * len(cols.sections)
                                                        for _ in rows.sections]

    def get(self, op: Callable[[Section, Section], Section], p: int, q: int) -> Section:
        value = self._entries[p][q]
        if value is None:
            value = self._entries[p][q] = op(self.rows.sections[p], self.cols.sections[q])
        return value


def frame_jacobiators(table: BatteryTable, op: Callable, inner: Sequence[int]
                      ) -> Iterator[Tuple[int, int, List[Section]]]:
    """Yields (i, j, [J_ijk for s_k at the positions inner]) for the frame
    sections e_i, e_j of the battery table.rows, J_ijk = [e_i, [e_j, s_k]]
    - [[e_i, e_j], s_k] - [e_j, [e_i, s_k]], reading op over it lazily:
    r^2 |inner| nested calls, each shared by (i, j) and (j, i), and as many
    outer ones."""
    frames, sections = table.rows.frames, table.rows.sections
    nested = [[[op(sections[p], table.get(op, q, t)) for t in inner] for q in frames]
              for p in frames]
    for i, p in enumerate(frames):
        for j, q in enumerate(frames):
            outer = table.get(op, p, q)
            yield i, j, [nested[i][j][k] - (op(outer, sections[t]) + nested[j][i][k])
                         for k, t in enumerate(inner)]


def record_jacobi(chk: Checker, identity: str, table: BatteryTable, op: Callable,
                  third: Optional[Sequence[int]] = None, negate: bool = False,
                  anchor: Optional[HomSection] = None) -> None:
    """[e_i, [e_j, s]] = [[e_i, e_j], s] + [e_j, [e_i, s]] for frame sections
    e_i, e_j and s at the positions third (all by default) of the battery
    table.rows; table holds op over it and is read lazily.  negate records
    the difference with the opposite sign.

    Without an anchor, every case is a frame Jacobiator (frame_jacobiators).
    With the anchor rho of op, only those for s = e_k are, and the case
    s = phi e_k is derived from them, by the lemma

        J(e_i, e_j, phi e_k) = phi J(e_i, e_j, e_k) + D_ij(phi) e_k,
        D_ij = [rho e_i, rho e_j] - rho([e_i, e_j]).

    Proof: expand each of the three terms by right Leibniz, [x, phi y] =
    phi [x, y] + rho(x)(phi) y; the rho_i(phi) [e_j, e_k] and rho_j(phi)
    [e_i, e_k] terms cancel, and the multiples of e_k that remain are
    D_ij(phi) e_k.
    Right Leibniz holds exactly, term by term of `leibniz`, for a bracket,
    a Courant bracket and the Dorfman-like bracket with anchor rho pr_A,
    so the derived value is the normal form the nested brackets give.  The
    battery needs a function layout (Battery.factors); D_ij is formed once
    per frame pair, by anchor_defect.
    """
    batt, frames = table.rows, table.rows.frames
    third = range(len(batt.sections)) if third is None else third
    # the third slots that op evaluates: the frame sections when the anchor derives the rest
    inner = third if anchor is None else frames
    columns = [] if anchor is None else [anchor.column(l) for l in range(len(frames))]
    for i, j, jacs in frame_jacobiators(table, op, inner):
        p, q = frames[i], frames[j]
        if anchor is not None:
            defect = anchor_defect(anchor, columns[i], columns[j], table.get(op, p, q))
            jacs = [_scaled_jacobiator(batt, jacs, defect, t) for t in third]
        for t, jac in zip(third, jacs):
            chk.record(identity, f"({batt.labels[p]}; {batt.labels[q]}; {batt.labels[t]})",
                       -jac if negate else jac)


def anchor_defect(anchor: HomSection, rho_i: Section, rho_j: Section, outer: Section) -> Terms:
    """The view of the vector field D_ij = [rho_i, rho_j] - rho(outer), for
    rho_i = rho(e_i), rho_j = rho(e_j) and outer = [e_i, e_j]: the anchor
    term that the Leibniz lemmas of record_jacobi and of
    DorfmanConnection.check_curvature_tensorial leave.  The anchor is
    applied only to a nonzero outer."""
    defect = vf_bracket(rho_i, rho_j)
    if outer.nonzero():
        defect = defect - anchor.apply(outer)
    return defect.nonzero()


def _scaled_jacobiator(batt: Battery, jacs: Sequence[Section], defect: Terms,
                       t: int) -> Section:
    """phi J_ijk + D_ij(phi) e_k for the entry t = phi e_k of batt, given
    jacs[k] = J_ijk and the view of the vector field D_ij."""
    k, f = batt.factors(t)
    if not f:
        return jacs[k]
    phi, e_k = batt.functions[f], batt.sections[batt.frames[k]]
    value = jacs[k].scale(phi)
    if defect:
        value = value + e_k.scale(vf_apply(e_k.bundle.patch, defect, phi))
    return value


def record_symmetrized(chk: Checker, identity: str, table: BatteryTable, op: Callable,
                       exact: Optional[Callable[[int, int], Section]] = None,
                       scaled: int = 0) -> None:
    """[s_p, s_q] + [s_q, s_p] = exact(p, q), zero when exact is not given,
    over the battery table.rows, reading op lazily from table.  With
    scaled (see _record_cases), the case phi e_i, psi e_j is phi psi S_ij,
    S_ij the case e_i, e_j, for op with the rules of `leibniz` and exact(p,
    q) = D<s_p, s_q>.  Proof: the anchor terms of [phi e_i, psi e_j] and
    [psi e_j, phi e_i] cancel in pairs, and D = dmat . grad is a
    derivation, so their pairing terms <e_i, e_j> (psi D phi + phi D psi)
    are those of D(phi psi <e_i, e_j>)."""
    def case(p: int, q: int) -> Section:
        value = table.get(op, p, q) + table.get(op, q, p)
        return value if exact is None else value - exact(p, q)

    _record_cases(chk, identity, table.rows, case, scaled)


def record_anchor_morphism(chk: Checker, identity: str, table: BatteryTable, op: Callable,
                           anchor: HomSection, anchors: Sequence[Section],
                           predual=None) -> None:
    """rho[s_p, s_q] = [rho s_p, rho s_q], with anchors[p] = rho(s_p), over
    the battery table.rows, reading op lazily from table.  Given the
    pre-dual pair (<,>, D) of op, the case phi e_i, psi e_j, phi and psi
    non-constant, is phi psi A_ij + psi <e_i, e_j> rho(D phi), A_ij the case
    e_i, e_j.  Proof: by the rules of record_symmetrized, rho[phi e_i,
    psi e_j] and [phi rho_i, psi rho_j] share the anchor terms
    phi rho_i(psi) rho_j - psi rho_j(phi) rho_i, and the first also has
    psi <e_i, e_j> rho(D phi), which is not assumed zero."""
    functions, rho_d = table.rows.functions, {}

    def case(p: int, q: int) -> Section:
        return anchor.apply(table.get(op, p, q)) - vf_bracket(anchors[p], anchors[q])

    def pairing_term(i: int, j: int, f: int, g: int) -> Section:
        paired = predual.pairing[i][j]
        if not paired._terms:
            return anchor.target.zero_section()
        if f not in rho_d:
            rho_d[f] = anchor.apply(predual.d(functions[f]))
        return rho_d[f].scale(functions[g] * paired)

    _record_cases(chk, identity, table.rows, case, 0 if predual is None else 2, pairing_term)


def _record_cases(chk: Checker, identity: str, batt: Battery, case: Callable[[int, int], Section],
                  scaled: int, extra: Optional[Callable[[int, int, int, int], Section]] = None
                  ) -> None:
    """case(p, q) over every pair of battery positions, in row order.  Given
    scaled (1 or 2), a case phi e_i, psi e_j with at least scaled
    non-constant functions among phi and psi (battery functions f and g) is
    phi psi case(e_i, e_j), plus extra(i, j, f, g) when given: the frame
    case comes first in row order."""
    functions = batt.functions if scaled else ()
    products = [[phi * psi for psi in functions] for phi in functions]
    frame: Dict[Tuple[int, int], Section] = {}
    for p, label1 in enumerate(batt.labels):
        i, f = batt.factors(p) if scaled else (p, 0)
        for q, label2 in enumerate(batt.labels):
            j, g = batt.factors(q) if scaled else (q, 0)
            if scaled and (f > 0) + (g > 0) >= scaled:
                value = frame[i, j].scale(products[f][g])
                if extra is not None:
                    value = value + extra(i, j, f, g)
            else:
                value = case(p, q)
                if scaled and not f and not g:
                    frame[i, j] = value
            chk.record(identity, f"({label1}; {label2})", value)


def record_metric(chk: Checker, identity: str, pair: Callable[[Section, Section], ScalarPoly],
                  w_entries: Entries, s_entries: Entries, rows: Iterable[tuple],
                  anchor: Optional[HomSection] = None,
                  d: Optional[Callable[[ScalarPoly], Section]] = None) -> None:
    """rho(v)<w, s> = <[v, w], s> + <w, Delta_v s> (axiom (c)) for w and s
    over the labelled entries; rows yields, one v at a time, its label,
    rho(v), [v, w] over w_entries and Delta_v s over s_entries.

    Without an anchor, every case is evaluated as rows gives it.  Given the
    anchor rho of the bracket, on Q, and the d_B of Delta, v runs over the
    battery of Q and rows yields only its frame sections q_i, in frame
    order; each case phi q_i is derived by the lemma

        C(phi q_i, w, s) = phi C(q_i, w, s) + <q_i, s> (rho(w)(phi) - <w, d_B phi>),

    C(v, w, s) = rho(v)<w, s> - <[v, w], s> - <w, Delta_v s> the recorded
    difference.  Proof: rho(phi q_i) = phi rho(q_i), the anchor being a
    bundle map; [phi q_i, w] = phi [q_i, w] - rho(w)(phi) q_i by the left
    Leibniz rule of a dull bracket, and Delta_{phi q_i} s = phi Delta_{q_i}
    s + <q_i, s> d_B phi by the pairing rule, both of which `leibniz`
    satisfies term by term; the pairing is C-infinity-bilinear, so the phi
    terms add up to phi C(q_i, w, s) and what is left is <q_i, s>
    rho(w)(phi) - <q_i, s> <w, d_B phi>.  The correction rho(w)(phi) -
    <w, d_B phi> is formed once per (w, phi) and is not assumed zero (with
    the canonical pairing and rho = pr_TM it is X_w(phi) - X_w(phi)).  So
    the derived value is the normal form that the literal route gives, and
    only the cases of frame v apply Delta and the bracket.
    """
    pairings = [[pair(w, s) for _, s in s_entries] for _, w in w_entries]

    def frame_row(rho_v: Section, brackets: Sequence[Section],
                  applied: Sequence[Section]) -> List[List[ScalarPoly]]:
        """C(v, w, s) over w_entries and s_entries, evaluated."""
        rho_terms, base = rho_v.nonzero(), rho_v.bundle.patch
        values = []
        for j, (_, w) in enumerate(w_entries):
            values.append([])
            for k, (_, s) in enumerate(s_entries):
                paired = pairings[j][k]
                lhs = vf_apply(base, rho_terms, paired) if paired._terms else paired
                rhs = pair(brackets[j], s) + pair(w, applied[k])
                values[-1].append(lhs - rhs if rhs._terms else lhs)
        return values

    def record_row(label: str, values: List[List[ScalarPoly]]) -> None:
        for (name, _), row in zip(w_entries, values):
            for (label_s, _), value in zip(s_entries, row):
                chk.record(identity, f"({label}; {name}; {label_s})", value)

    if anchor is None:
        for label, rho_v, brackets, applied in rows:
            record_row(label, frame_row(rho_v, brackets, applied))
        return
    batt, base = anchor.source.battery, anchor.source.patch
    functions, zero = batt.functions, base.zero()
    # corrections[j][f] = rho(w_j)(phi_f) - <w_j, d_B phi_f>; function 0 is 1
    d_phis, corrections = [d(phi) for phi in functions[1:]], []
    for _, w in w_entries:
        rho_w = anchor.apply(w).nonzero()
        corrections.append([zero])
        for phi, d_phi in zip(functions[1:], d_phis):
            acted, paired = vf_apply(base, rho_w, phi), pair(w, d_phi)
            corrections[-1].append(acted - paired if paired._terms else acted)
    for i, (label, rho_v, brackets, applied) in enumerate(rows):
        values = frame_row(rho_v, brackets, applied)
        record_row(label, values)
        v_pairings = [pair(batt.sections[batt.frames[i]], s) for _, s in s_entries]
        for f, phi in enumerate(functions[1:], 1):
            scaled = []
            for row, correction in zip(values, corrections):
                c = correction[f]
                scaled.append([_sum_of_products(zero, ((phi, value), (v_paired, c)))
                               for value, v_paired in zip(row, v_pairings)] if c._terms
                              else [phi * value if value._terms else zero for value in row])
            record_row(batt.labels[batt.pos(i, f)], scaled)


def _sum_of_products(zero: ScalarPoly, pairs: Iterable[Tuple[ScalarPoly, ScalarPoly]]
                     ) -> ScalarPoly:
    """The sum of a * b over the pairs whose factors are both nonzero, or
    zero: no product has a zero operand."""
    terms = [(a, b, 1) for a, b in pairs if a._terms and b._terms]
    return sum_of_products(zero, terms) if terms else zero


def record_right_leibniz(chk: Checker, identity: str, label: str, rho: Sequence[ScalarPoly],
                         row: Sequence[Section], batt: Battery, f: int) -> None:
    """[q, phi s] = phi [q, s] + rho(q)(phi) s for one q and battery function
    phi = batt.functions[f], with row[p] = [q, s_p] over the battery of a
    bundle and rho the components of rho(q)."""
    phi = batt.functions[f]
    rho_phi = vf_apply(batt.sections[0].bundle.patch, enumerate(rho), phi)
    for l, p in enumerate(batt.frames):
        scaled = batt.pos(l, f)
        chk.record(identity, f"({label}; {batt.labels[scaled]})",
                   row[scaled] - (row[p].scale(phi) + batt.sections[p].scale(rho_phi)))
