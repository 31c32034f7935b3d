"""Trivial structures the tests build often and the package never needs:
the flat connection, the identity bundle map, and the canonical pairing of
two sections straight from its matrix (a reference for the frame-level
pairings the package reads)."""

from courant_lab.bundle import Bundle, HomSection, Section, pairing_matrix
from courant_lab.dorfman import Connection
from courant_lab.poly import ScalarPoly


def flat_connection(bundle: Bundle) -> Connection:
    """The connection whose Christoffel symbols all vanish."""
    z = bundle.zero_section()
    return Connection(bundle, [[z] * bundle.rank for _ in range(bundle.patch.dim)])


def identity_map(bundle: Bundle) -> HomSection:
    """The identity map of a bundle, e.g. the anchor of TM."""
    return HomSection.from_columns(bundle, bundle, bundle.frame_sections())


def canonical_pairing(v: Section, s: Section) -> ScalarPoly:
    """<(X, xi), (e, theta)> = xi(e) + theta(X), computed coefficientwise."""
    matrix = pairing_matrix(v.bundle, s.bundle)
    total = v.bundle.patch.zero()
    for i, a in enumerate(v.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(s.coeffs):
            if matrix[i][j]:
                total = total + a * b * matrix[i][j]
    return total
