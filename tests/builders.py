"""Trivial structures the tests build often and the package never needs:
the flat connection and the identity bundle map."""

from courant_lab.bundle import Bundle, HomSection
from courant_lab.dorfman import Connection


def flat_connection(bundle: Bundle) -> Connection:
    """The connection whose Christoffel symbols all vanish."""
    z = bundle.zero_section()
    return Connection(bundle, [[z] * bundle.rank for _ in range(bundle.patch.dim)])


def identity_map(bundle: Bundle) -> HomSection:
    """The identity map of a bundle, e.g. the anchor of TM."""
    return HomSection.from_columns(bundle, bundle, bundle.frame_sections())
