"""Trivial structures the tests build often and the package never needs:
the flat connection, the identity bundle map, the canonical pairing of
two sections straight from its matrix (a reference for the frame-level
pairings the package reads), and the curvature and the symmetrized dull
bracket of a Dorfman connection straight from their definitions (the
oracles for the frame values that the package reads from its tables)."""

from courant_lab.bundle import Bundle, HomSection, Section, pairing_matrix
from courant_lab.dorfman import Connection, DorfmanConnection
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


def curvature(delta: DorfmanConnection, v1: Section, v2: Section) -> HomSection:
    """R(v1,v2) = Delta_{v1} Delta_{v2} - Delta_{v2} Delta_{v1} - Delta_{[v1,v2]}."""
    lie = delta.bracket.bracket(v1, v2)
    cols = [delta.apply(v1, delta.apply(v2, bf)) - delta.apply(v2, delta.apply(v1, bf))
            - delta.apply(lie, bf) for bf in delta.b.frame_sections()]
    return HomSection.from_columns(delta.b, delta.b, cols)


def skew_symmetrization(delta: DorfmanConnection, v1: Section, v2: Section) -> Section:
    """[[v1,v2]] + [[v2,v1]]; its E*-part is the skew tensor."""
    return delta.bracket.bracket(v1, v2) + delta.bracket.bracket(v2, v1)
