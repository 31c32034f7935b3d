"""VB-triples (U, K, [Delta]) and the Dirac conditions.

A VB-triple is a pair of constant subbundles U in TM+E*, K in E+T*M and a
Dorfman connection; it presents a sub-double-vector-bundle of the
Pontryagin bundle of E.  This module decides whether the triple is
isotropic, Lagrangian, closed under the bracket, and Dirac, with symbolic
witnesses for every failed condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from .algebroid import AnchoredBracket
from .bundle import BATTERY_SEED, BundleError, Section, SubBundle
from .dorfman import DorfmanConnection
from .report import Checker, CheckReport


@dataclass(frozen=True)
class VBTriple:
    """(U, K, [Delta]); immutable, so what is derived from it is computed
    once.  seed seeds the random sections of the Lie checks run on it."""

    delta: DorfmanConnection
    u_sub: SubBundle
    k_sub: SubBundle
    seed: int = BATTERY_SEED

    def __post_init__(self):
        u, k, q, b = self.u_sub.ambient, self.k_sub.ambient, self.delta.q, self.delta.b
        if u is not q or k is not b:
            raise BundleError("U must live in the acting bundle and K in its pre-dual")

    @cached_property
    def u_annihilator(self) -> SubBundle:
        return self.u_sub.annihilator_in(self.delta.b, "Uann")

    @cached_property
    def u_brackets(self) -> Tuple[Tuple[Section, ...], ...]:
        """[[u_i, u_j]] on every pair of the U-frame, for the restricted
        bracket and for skew-UU, the constant row of bracket-restricts and
        curvature-into-K of the Dirac conditions."""
        bracket, sections = self.delta.bracket.bracket, self.u_sub.sections
        return tuple(tuple(bracket(u1, u2) for u2 in sections) for u1 in sections)

    @cached_property
    def restricted_bracket(self) -> AnchoredBracket:
        """The dull bracket restricted to U; raises BundleError unless
        [[U, U]] lies in U on the U-frame."""
        return self.delta.bracket.restrict(self.u_sub, self.u_brackets)

    @cached_property
    def _dirac(self) -> CheckReport:
        return _dirac_conditions(self)


def shift_dorfman(delta: DorfmanConnection,
                  shifts: Dict[Tuple[int, int], Section]) -> DorfmanConnection:
    """A new representative: symbols moved by sections of B on E-columns.

    Only columns in the E summand may be shifted; shifting the T*M columns
    would break Delta_v(0, theta) = (0, L_X theta) and with it the anchor
    of the dual bracket.
    """
    e_columns = delta.b.positions(delta.e)
    symbols = [list(row) for row in delta.symbols]
    for (i, j), shift in shifts.items():
        if j not in e_columns:
            raise BundleError("symbol shifts are only allowed on E-frame columns")
        symbols[i][j] = symbols[i][j] + shift
    return DorfmanConnection.with_dual_bracket(delta.predual, delta.bracket.anchor, symbols)


def check_equivalent(d1: DorfmanConnection, d2: DorfmanConnection,
                     u_sub: SubBundle, k_sub: SubBundle) -> CheckReport:
    """(U,K)-equivalence: (Delta - Delta')(Gamma(U) x Gamma(E+0)) in Gamma(K)."""
    chk = Checker("equivalence", "difference of the connections is K-valued on U x E")
    if d1.q is not d2.q or d1.b is not d2.b:
        raise BundleError("representatives must share the pre-dual")
    b = d1.b
    e_columns = b.positions(d1.e)
    for ui, u in enumerate(u_sub.sections):
        for phi, text in b.patch.battery:
            scaled = u.scale(phi)
            for j in e_columns:
                s = b.frame_section(j)
                diff = d1.apply(scaled, s) - d2.apply(scaled, s)
                chk.record("difference-in-K",
                           f"(({text})*u{ui + 1}; {b.frame[j]})", k_sub.residual(diff))
    return chk.report()


def check_dirac(triple: VBTriple) -> CheckReport:
    """All sub-conditions of the sub-DVB / Dirac characterization.

    Sub-checks: (closure) Delta_u k in Gamma(K); (skew-UU) the skew tensor
    vanishes on U x U; (K-in-ann / lagrangian) K in U-annihilator resp.
    equality; (bracket-restricts) [[U,U]] in U; (restricted-lie) the
    restricted bracket is a Lie algebroid; (curvature-into-K)
    R(U, U)(E+T*M) in K.  The verdict lines label the triple.  The report
    is computed once per triple.
    """
    return triple._dirac


def _dirac_conditions(triple: VBTriple) -> CheckReport:
    delta, u_sub, k_sub = triple.delta, triple.u_sub, triple.k_sub
    chk = Checker("dirac", "sub-double-vector-bundle and Dirac conditions for (U, K, [Delta])")

    for ui, u in enumerate(u_sub.sections):
        for phi, text in delta.q.patch.battery:
            scaled_u = u.scale(phi)
            for ki, k in enumerate(k_sub.sections):
                chk.record("closure", f"(({text})*u{ui + 1}; k{ki + 1})",
                           k_sub.residual(delta.apply(scaled_u, k)))

    lies = triple.u_brackets
    for i, row in enumerate(lies):
        for j, lie in enumerate(row):
            chk.record("skew-UU", f"(u{i + 1}; u{j + 1})", lie + lies[j][i])

    u_ann = triple.u_annihilator
    for ki, k in enumerate(k_sub.sections):
        chk.record("K-in-ann", f"k{ki + 1}", u_ann.residual(k))
    chk.require("lagrangian", f"rank K = {k_sub.rank}, rank U-ann = {u_ann.rank}",
                chk.sub_passed("K-in-ann") and k_sub.rank == u_ann.rank,
                "K is a proper subbundle of the annihilator of U")

    restricts = True
    for i, u1 in enumerate(u_sub.sections):
        for f, (phi, text) in enumerate(delta.q.patch.battery):
            for j, u2 in enumerate(u_sub.sections):
                # battery function 0 is 1
                value = delta.bracket.bracket(u1.scale(phi), u2) if f else lies[i][j]
                if not chk.record("bracket-restricts", f"(({text})*u{i + 1}; u{j + 1})",
                                  u_sub.residual(value)):
                    restricts = False

    if restricts and u_sub.rank:
        chk.relay("restricted-lie", triple.restricted_bracket.check_lie(triple.seed),
                  "restricted bracket")
    elif not restricts:
        chk.require("restricted-lie", "bracket does not restrict to U", False,
                    "not a bracket on U")
    else:
        chk.require("restricted-lie", "U = 0", True)

    # R(u_i, u_j) b_m = twice[i][j][m] - twice[j][i][m] - Delta_{[[u_i, u_j]]} b_m,
    # with moved[j][m] = Delta_{u_j} b_m and twice[i][j][m] = Delta_{u_i} moved[j][m]
    b_frames = delta.b.frame_sections()
    moved = [[delta.apply(u, bf) for bf in b_frames] for u in u_sub.sections]
    twice = [[[delta.apply(u1, value) for value in row] for row in moved]
             for u1 in u_sub.sections]
    for i, row in enumerate(lies):
        for j, lie in enumerate(row):
            for m, bf in enumerate(b_frames):
                curvature = twice[i][j][m] - twice[j][i][m] - delta.apply(lie, bf)
                chk.record("curvature-into-K",
                           f"(u{i + 1}; u{j + 1}; {delta.b.frame[m]})",
                           k_sub.residual(curvature))

    isotropic = chk.sub_passed("skew-UU") and chk.sub_passed("K-in-ann")
    lagrangian = isotropic and chk.sub_passed("lagrangian")
    closed = (chk.sub_passed("closure") and chk.sub_passed("bracket-restricts")
              and chk.sub_passed("curvature-into-K"))
    dirac = (chk.sub_passed("lagrangian") and chk.sub_passed("closure")
             and chk.sub_passed("bracket-restricts") and chk.sub_passed("restricted-lie"))
    chk.note(f"verdict isotropic: {isotropic}")
    chk.note(f"verdict lagrangian: {lagrangian}")
    chk.note(f"verdict sub-dvb-closed: {closed}")
    chk.note(f"verdict dirac: {dirac}")
    return chk.report()


def dirac_verdicts(report: CheckReport) -> Dict[str, bool]:
    out = {}
    for line in report.details:
        if line.startswith("verdict "):
            key, _, value = line[len("verdict "):].partition(": ")
            out[key] = value == "True"
    return out


def check_bracket_well_defined_on_u(triple: VBTriple,
                                    other: Optional[DorfmanConnection] = None) -> CheckReport:
    """Two (U,K)-equivalent representatives induce the same bracket on U."""
    delta, u_sub, k_sub = triple.delta, triple.u_sub, triple.k_sub
    chk = Checker("bracket-well-defined",
                  "U-restricted dual brackets agree across representatives")
    u_ann = triple.u_annihilator
    if not (k_sub.same_subspace(u_ann)):
        chk.error("precondition", "K = U-annihilator", "K is not the annihilator of U")
        return chk.report()
    if other is None:
        other = _default_shift(delta, k_sub)
        chk.note("representative: deterministic K-valued symbol shift")
    equiv = check_equivalent(delta, other, u_sub, k_sub)
    chk.note(f"representatives equivalent: {equiv.status}")
    for i, u1 in enumerate(u_sub.sections):
        for j, u2 in enumerate(u_sub.sections):
            chk.record("brackets-equal", f"(u{i + 1}; u{j + 1})",
                       delta.bracket.bracket(u1, u2) - other.bracket.bracket(u1, u2))
    return chk.report()


def _default_shift(delta: DorfmanConnection, k_sub: SubBundle) -> DorfmanConnection:
    if not k_sub.sections:
        return delta
    b = delta.b
    battery = b.patch.battery
    shifts = {}
    count = 0
    for i in range(delta.q.rank):
        for j in b.positions(delta.e):
            k = k_sub.sections[count % len(k_sub.sections)]
            phi, _ = battery[count % len(battery)]
            shifts[(i, j)] = k.scale(phi)
            count += 1
    return shift_dorfman(delta, shifts)
