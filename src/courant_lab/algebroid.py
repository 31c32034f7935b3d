"""Anchored brackets on trivialized bundles.

An AnchoredBracket stores an anchor matrix and the bracket values on frame
pairs; the bracket of arbitrary sections is `bundle.leibniz` applied to
that frame table, so the Leibniz identity holds by construction.
Structure functions are stored for all ordered pairs: antisymmetry is a
checkable property, never an assumption.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from .bundle import (Bundle, BundleError, HomSection, Section, SubBundle,
                     battery_functions, leibniz, random_sections, vf_bracket,
                     BATTERY_SEED)
from .report import Checker, CheckReport


class AnchoredBracket:
    """A bundle Q with anchor rho: Q -> TM and frame structure functions."""

    def __init__(self, bundle: Bundle, anchor: HomSection,
                 structure: Sequence[Sequence[Section]]):
        tangent = Bundle.tangent(bundle.patch)
        if anchor.source != bundle or anchor.target != tangent:
            raise BundleError("anchor must map the bundle to TM over its patch")
        r = bundle.rank
        if len(structure) != r or any(len(row) != r for row in structure):
            raise BundleError("structure functions need one section per ordered frame pair")
        for row in structure:
            for sec in row:
                if sec.bundle != bundle:
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
        if q1.bundle != self.bundle or q2.bundle != self.bundle:
            raise BundleError("bracket arguments must be sections of the bundle")
        return leibniz(q1, q2, self.structure, self.frame_rho, self.bundle, bracket=True)

    def jacobiator(self, q1: Section, q2: Section, q3: Section) -> Section:
        return (self.bracket(self.bracket(q1, q2), q3)
                + self.bracket(q2, self.bracket(q1, q3))
                - self.bracket(q1, self.bracket(q2, q3)))

    # -- checks ----------------------------------------------------------

    def check_anchor_compat(self) -> CheckReport:
        """rho[q, q'] = [rho q, rho q'] on frames and the coefficient battery."""
        chk = Checker("anchor-compat", "anchor intertwines the bracket with vector fields")
        batt = battery_sections(self.bundle)
        anchors = [self.rho(q) for _, q in batt]
        for p, (label1, q1) in enumerate(batt):
            for q, (label2, q2) in enumerate(batt):
                lhs = self.rho(self.bracket(q1, q2))
                rhs = vf_bracket(anchors[p], anchors[q])
                chk.record("anchor-compat", f"({label1}; {label2})", lhs - rhs)
        return chk.report()

    def check_lie(self, seed: int = BATTERY_SEED) -> CheckReport:
        """Antisymmetry plus Jacobi on the frame battery -> Lie algebroid.

        Computed once per seed; every later call returns the same report.
        """
        report = self._lie_reports.get(seed)
        if report is None:
            report = self._lie_reports[seed] = self._lie_report(seed)
        return report

    def _lie_report(self, seed: int) -> CheckReport:
        chk = Checker("lie", "bracket is antisymmetric and satisfies the Jacobi identity")
        batt = battery_sections(self.bundle)
        sections = [q for _, q in batt]
        pairs = [[self.bracket(q1, q2) for q2 in sections] for q1 in sections]
        for p, (label1, q1) in enumerate(batt):
            for q, (label2, q2) in enumerate(batt):
                chk.record("antisymmetry", f"({label1}; {label2})", pairs[p][q] + pairs[q][p])
        frames = self.bundle.frame_sections()
        names = self.bundle.frame
        # row l * w of pairs is [q_l, .] (see battery_sections); nested[i][j][k]
        # = [q_i, [q_j, s_k]] is the last jacobiator term of (i, j, k) and the
        # middle one of (j, i, k)
        w = len(battery_functions(self.bundle.patch))
        nested = [[[self.bracket(q1, value) for value in pairs[j * w]]
                   for j in range(len(frames))] for q1 in frames]
        for i in range(len(frames)):
            for j in range(len(frames)):
                for k, (label3, q3) in enumerate(batt):
                    chk.record("jacobi", f"({names[i]}; {names[j]}; {label3})",
                               self.bracket(pairs[i * w][j * w], q3)
                               + nested[j][i][k] - nested[i][j][k])
        rng = random.Random(seed)
        randoms = random_sections(self.bundle, 8, rng)
        for k in range(len(randoms) - 2):
            chk.record("jacobi", f"(random {k}; random {k + 1}; random {k + 2})",
                       self.jacobiator(randoms[k], randoms[k + 1], randoms[k + 2]))
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

    def restrict(self, sub: SubBundle) -> "AnchoredBracket":
        """The induced bracket on a constant subbundle closed under it."""
        values = []
        for s1 in sub.sections:
            values.append([])
            for s2 in sub.sections:
                value = self.bracket(s1, s2)
                if not sub.contains(value):
                    raise BundleError(
                        f"bracket does not restrict to {sub.name}: [{s1}; {s2}] = {value}")
                values[-1].append(value)
        return AnchoredBracket.induced(sub, [self.rho(sec) for sec in sub.sections], values)


def battery_sections(bundle: Bundle) -> List[Tuple[str, Section]]:
    """Frame sections multiplied by the deterministic function battery.

    Frame section l times battery function f is entry l * w + f, for w
    battery functions; function 0 is the constant 1, so entry l * w is
    frame section l itself.
    """
    functions = battery_functions(bundle.patch)
    # each function is rendered once; the constant 1 labels its entry by the frame name
    prefixes = [""] + [f"({phi})*" for phi in functions[1:]]
    out = []
    for name, sec in zip(bundle.frame, bundle.frame_sections()):
        for phi, prefix in zip(functions, prefixes):
            out.append((prefix + name, sec.scale(phi)))
    return out
