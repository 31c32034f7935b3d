"""Anchored brackets on trivialized bundles.

An AnchoredBracket stores an anchor matrix and the bracket values on frame
pairs; the bracket of arbitrary sections is defined by the Leibniz
extension, so the Leibniz identity holds by construction.  Structure
functions are stored for all ordered pairs: antisymmetry is a checkable
property, never an assumption.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from .bundle import (Bundle, BundleError, HomSection, Section, SubBundle,
                     battery_functions, random_sections, vf_apply, vf_bracket,
                     BATTERY_SEED)
from .poly import ScalarPoly
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
        self.structure = [list(row) for row in structure]
        # anchor images of the frame; the anchor is fixed once built
        self._frame_rho = [anchor.apply(sec).coeffs for sec in bundle.frame_sections()]

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

    def rho_d(self, q: Section, phi: ScalarPoly) -> ScalarPoly:
        """rho(q) acting as a derivation on a function."""
        return vf_apply(self.bundle.patch.coords, self.rho(q).coeffs, phi)

    # -- bracket ----------------------------------------------------------

    def bracket(self, q1: Section, q2: Section) -> Section:
        """Leibniz extension of the frame structure functions.

        [phi qi, psi qj] = phi psi [qi,qj] + phi rho(qi)(psi) qj
                            - psi rho(qj)(phi) qi, summed coefficientwise.
        """
        if q1.bundle != self.bundle or q2.bundle != self.bundle:
            raise BundleError("bracket arguments must be sections of the bundle")
        out = self.bundle.zero_section()
        frames = self.bundle.frame_sections()
        coords = self.bundle.patch.coords
        frame_rho = self._frame_rho
        for i, phi in enumerate(q1.coeffs):
            if phi.is_zero():
                continue
            rho_i = frame_rho[i]
            for j, psi in enumerate(q2.coeffs):
                if psi.is_zero():
                    continue
                out = out + self.structure[i][j].scale(phi * psi)
                d_psi = vf_apply(coords, rho_i, psi)
                if not d_psi.is_zero():
                    out = out + frames[j].scale(phi * d_psi)
                d_phi = vf_apply(coords, frame_rho[j], phi)
                if not d_phi.is_zero():
                    out = out - frames[i].scale(psi * d_phi)
        return out

    def jacobiator(self, q1: Section, q2: Section, q3: Section) -> Section:
        return (self.bracket(self.bracket(q1, q2), q3)
                + self.bracket(q2, self.bracket(q1, q3))
                - self.bracket(q1, self.bracket(q2, q3)))

    # -- checks ----------------------------------------------------------

    def check_anchor_compat(self) -> CheckReport:
        """rho[q, q'] = [rho q, rho q'] on frames and the coefficient battery."""
        chk = Checker("anchor-compat", "anchor intertwines the bracket with vector fields")
        for label1, q1 in battery_sections(self.bundle):
            for label2, q2 in battery_sections(self.bundle):
                lhs = self.rho(self.bracket(q1, q2))
                rhs = vf_bracket(self.rho(q1), self.rho(q2))
                chk.record("anchor-compat", f"({label1}; {label2})", lhs - rhs)
        return chk.report()

    def check_lie(self, seed: int = BATTERY_SEED) -> CheckReport:
        """Antisymmetry plus Jacobi on the frame battery -> Lie algebroid."""
        chk = Checker("lie", "bracket is antisymmetric and satisfies the Jacobi identity")
        batt = battery_sections(self.bundle)
        for label1, q1 in batt:
            for label2, q2 in batt:
                chk.record("antisymmetry", f"({label1}; {label2})",
                           self.bracket(q1, q2) + self.bracket(q2, q1))
        frames = self.bundle.frame_sections()
        names = self.bundle.frame
        for i, q1 in enumerate(frames):
            for j, q2 in enumerate(frames):
                for label3, q3 in batt:
                    chk.record("jacobi", f"({names[i]}; {names[j]}; {label3})",
                               self.jacobiator(q1, q2, q3))
        rng = random.Random(seed)
        randoms = random_sections(self.bundle, 8, rng)
        for k in range(len(randoms) - 2):
            chk.record("jacobi", f"(random {k}; random {k + 1}; random {k + 2})",
                       self.jacobiator(randoms[k], randoms[k + 1], randoms[k + 2]))
        return chk.report()

    def is_antisymmetric_on_frames(self) -> bool:
        r = self.bundle.rank
        return all((self.structure[i][j] + self.structure[j][i]).is_zero()
                   for i in range(r) for j in range(r))

    # -- restriction -------------------------------------------------------

    def restrict(self, sub: SubBundle) -> "AnchoredBracket":
        """The induced bracket on a constant subbundle closed under it."""
        small = sub.as_bundle()
        tangent = Bundle.tangent(self.bundle.patch)
        anchor_cols = [self.rho(sec) for sec in sub.sections]
        anchor = HomSection(small, tangent,
                            [[col.coeffs[i] for col in anchor_cols]
                             for i in range(tangent.rank)]) if sub.rank else \
            HomSection.zero(small, tangent)
        table = []
        for s1 in sub.sections:
            row = []
            for s2 in sub.sections:
                value = self.bracket(s1, s2)
                if not sub.contains(value):
                    raise BundleError(
                        f"bracket does not restrict to {sub.name}: [{s1}; {s2}] = {value}")
                row.append(Section(small, tuple(sub.coords(value))))
            table.append(row)
        if not sub.rank:
            table = []
        return AnchoredBracket(small, anchor, table)


def battery_sections(bundle: Bundle) -> List[Tuple[str, Section]]:
    """Frame sections multiplied by the deterministic function battery."""
    out = []
    for i, sec in enumerate(bundle.frame_sections()):
        name = bundle.frame[i]
        for phi in battery_functions(bundle.patch):
            scaled = sec.scale(phi)
            label = name if phi == bundle.patch.one() else f"({phi})*{name}"
            out.append((label, scaled))
    return out


def tangent_algebroid(base) -> AnchoredBracket:
    """TM with the vector-field bracket (structure functions vanish)."""
    tangent = Bundle.tangent(base)
    anchor = HomSection.identity(tangent)
    r = tangent.rank
    table = [[tangent.zero_section() for _ in range(r)] for _ in range(r)]
    return AnchoredBracket(tangent, anchor, table)
