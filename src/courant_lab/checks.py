"""The checks a [checks] line may name, each declared once in CHECKS.

A Check holds the statement it verifies, the section kind of the object
each argument names and its runner.  parse_spec validates every [checks]
line against CHECKS.  run_check looks the argument names up with
StructureSpec.resolve, the lookup parse_spec uses too, and calls the
runner with the spec, the battery seed and the resolved objects.  An
unknown name, an argument that does not resolve and an internal error
become error reports rather than crashes, so negative fixtures always
terminate cleanly.

The Lie algebroid data, the triples and the Manin pairs the runners build
from their objects are built once per spec (keyed by those objects and the
seed) and shared by every line that names them.  Runners reach the other
layers through module globals and methods looked up when they run, so
anything that rebinds those names sees every call.
"""

from __future__ import annotations

import dataclasses
import traceback
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

from .algebroid import AnchoredBracket
from .bundle import BundleError
from .courant import (ManinPairData, build_manin_pair, check_c_iso,
                      im2form_standard_iso, recover_triple, roundtrip_check)
from .dirac import VBTriple, check_bracket_well_defined_on_u, check_dirac
from .dorfman import bott_dorfman
from .laops import (LieAlgebroidData, check_basic_curvature,
                    check_basic_identities, check_dlike, check_identity_lemmas,
                    check_la_dirac, check_omega_properties, check_ruth_compat,
                    k_algebroid)
from .poly import PolyError
from .prolong import (canonical_form_check, check_geometric_dirac,
                      linear_poisson_check, ta_generator_check,
                      verify_splitting_theorems)
from .report import CheckReport, ERROR

if TYPE_CHECKING:  # specfile imports this module
    from .specfile import StructureSpec


class Check(NamedTuple):
    """One check: run(spec, seed, *objects) verifies the statement on the
    objects the arguments name, one of the section kind given per position."""

    statement: str
    kinds: Tuple[str, ...]
    run: Callable[..., List[CheckReport]]
    optional: int = 0  # how many trailing arguments a line may leave out

    @property
    def arity(self) -> Tuple[int, ...]:
        """The argument counts a [checks] line may give."""
        full = len(self.kinds)
        return (full - self.optional, full) if self.optional else (full,)


def _derived(spec, key: tuple, build: Callable):
    """build() once per key and spec; a build that raises stores nothing."""
    memo = spec._derived
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _lad(spec, seed: int, bracket: AnchoredBracket, delta=None) -> LieAlgebroidData:
    """The Lie algebroid data of bracket; a Dorfman connection delta that the
    line pairs with it must act on its TM + A*, or the line is refused (after
    A is read as a summand of A + T*M, so that a sum A is named as such)."""
    lad = _derived(spec, ("lad", bracket, seed),
                   lambda: LieAlgebroidData(bracket, lie_report=bracket.check_lie(seed)))
    if delta is not None and delta.q is not lad.v_bundle:
        lad.sigma_bundle.positions(lad.a_bundle)
        raise BundleError(f"the Dorfman connection acts on {delta.q.label()}, "
                          f"not on TM + A* = {lad.v_bundle.label()}")
    return lad


def _triple(spec, seed: int, delta, u_sub, k_sub) -> VBTriple:
    return _derived(spec, ("triple", delta, u_sub, k_sub, seed),
                    lambda: VBTriple(delta, u_sub, k_sub, seed))


def _manin_pair(spec, seed: int, bracket, *triple) -> Tuple[Optional[ManinPairData], CheckReport]:
    """build_manin_pair for the (A, Delta, U, K) of a check line."""
    return _derived(spec, ("manin_pair", bracket, *triple, seed), lambda: build_manin_pair(
        _lad(spec, seed, bracket, triple[0]), _triple(spec, seed, *triple)))


def _section4(spec, seed, bracket, delta):
    lad = _lad(spec, seed, bracket, delta)
    return [check_omega_properties(lad, delta), check_dlike(lad, delta),
            check_basic_identities(lad, delta), check_basic_curvature(lad, delta)]


def _manin_pair_line(spec, seed, *la_triple):
    mp, report = _manin_pair(spec, seed, *la_triple)
    if mp is None:
        return [report]
    return [report, mp.courant.check_axioms(), check_c_iso(mp)]


def _standard_iso(spec, seed, bracket, delta, u_sub, k_sub, sigma):
    mp, report = _manin_pair(spec, seed, bracket, delta, u_sub, k_sub)
    return [report if mp is None else im2form_standard_iso(mp, sigma)]


def _recover_perturbed(spec, seed, *la_triple):
    """Build the Manin pair, break condition (c) on a core pair, recover."""
    mp, report = _manin_pair(spec, seed, *la_triple)
    if mp is None:
        return [report]
    i = mp.u_sub.rank
    j = mp.c_bundle.rank - 1
    perturbed = mp.courant.shifted(i, j, mp.c_bundle.frame_section(j))
    return [recover_triple(dataclasses.replace(mp, courant=perturbed))[1]]


_TRIPLE = ("dorfman", "subbundle", "subbundle")
_LA_TRIPLE = ("bracket",) + _TRIPLE

CHECKS: Dict[str, Check] = {
    "anchor-compat": Check(
        "the anchor intertwines the bracket with vector fields", ("bracket",),
        lambda spec, seed, a: [a.check_anchor_compat()]),
    "lie": Check(
        "antisymmetry and the Jacobi identity", ("bracket",),
        lambda spec, seed, a: [a.check_lie(seed)]),
    "dorfman-axioms": Check(
        "Dorfman connection axioms (a)-(c)", ("dorfman",),
        lambda spec, seed, delta: [delta.check_axioms()]),
    "duality": Check(
        "equivalence of the connection and its dull bracket", ("dorfman",),
        lambda spec, seed, delta: [delta.check_duality()]),
    "curvature": Check(
        "curvature tensoriality and its Jacobiator pairing", ("dorfman",),
        lambda spec, seed, delta: [delta.check_curvature_tensorial(),
                                   delta.curvature_vs_jacobiator()]),
    "skew": Check(
        "properties of the symmetrization tensor", ("dorfman",),
        lambda spec, seed, delta: [delta.check_skew()]),
    "dirac": Check(
        "sub-double-vector-bundle and Dirac conditions", _TRIPLE,
        lambda spec, seed, *t: [check_dirac(_triple(spec, seed, *t))]),
    "geometric-dirac": Check(
        "total-space Dirac verification", _TRIPLE,
        lambda spec, seed, *t: [check_geometric_dirac(_triple(spec, seed, *t))]),
    "bracket-well-defined": Check(
        "U-brackets agree across equivalent representatives", _TRIPLE,
        lambda spec, seed, *t: [check_bracket_well_defined_on_u(_triple(spec, seed, *t))]),
    "splitting-theorems": Check(
        "total-space pairing and bracket identities", ("dorfman",),
        lambda spec, seed, delta: [verify_splitting_theorems(delta)]),
    "la-dirac": Check(
        "LA-Dirac triple conditions", _LA_TRIPLE,
        lambda spec, seed, a, *t: [check_la_dirac(_lad(spec, seed, a, t[0]),
                                                  _triple(spec, seed, *t))]),
    "section4": Check(
        "Omega, Dorfman-like bracket, basic connections and curvature", ("bracket", "dorfman"),
        _section4),
    "identity-lemmas": Check(
        "basic-connection identity lemmas", _LA_TRIPLE,
        lambda spec, seed, a, delta, *uk: [check_identity_lemmas(
            _lad(spec, seed, a, delta), delta, _triple(spec, seed, delta, *uk) if uk else None)],
        optional=2),
    "ruth-compat": Check(
        "mixed compatibility identities", _LA_TRIPLE,
        lambda spec, seed, a, delta, *uk: [check_ruth_compat(
            _lad(spec, seed, a, delta), delta, _triple(spec, seed, delta, *uk))]),
    "k-algebroid": Check(
        "induced Lie algebroid on K and its morphism to U", _LA_TRIPLE,
        lambda spec, seed, a, *t: [k_algebroid(_lad(spec, seed, a, t[0]),
                                               _triple(spec, seed, *t))[1]]),
    "manin-pair": Check(
        "Courant algebroid on the quotient, with axioms and extension", _LA_TRIPLE,
        _manin_pair_line),
    "roundtrip": Check(
        "triple to Manin pair and back", _LA_TRIPLE,
        lambda spec, seed, a, *t: [roundtrip_check(_lad(spec, seed, a, t[0]),
                                                   _triple(spec, seed, *t),
                                                   built=_manin_pair(spec, seed, a, *t))]),
    "standard-iso": Check(
        "isomorphism with the standard Courant algebroid", _LA_TRIPLE + ("hom",),
        _standard_iso),
    "recover-perturbed": Check(
        "recovery from a Manin pair with a broken core bracket", _LA_TRIPLE,
        _recover_perturbed),
    "courant-axioms": Check(
        "Courant algebroid axioms (1)-(5)", ("courant",),
        lambda spec, seed, courant: [courant.check_axioms()]),
    "bott-dorfman": Check(
        "quotient connection along an isotropic subalgebroid", ("courant", "subbundle"),
        lambda spec, seed, courant, k_sub: [bott_dorfman(courant, k_sub)[1]]),
    "linear-poisson": Check(
        "sharp map of the fiberwise-linear dual bracket", ("bracket",),
        lambda spec, seed, a: [linear_poisson_check(_lad(spec, seed, a))]),
    "canonical-form": Check(
        "pullback canonical one- and two-forms", ("hom", "connection"),
        lambda spec, seed, sigma, conn: [canonical_form_check(sigma, conn)]),
    "ta-generators": Check(
        "generator calculus over TM + A*", ("bracket", "dorfman"),
        lambda spec, seed, a, delta: [ta_generator_check(_lad(spec, seed, a, delta), delta)]),
}


def run_check(spec: StructureSpec, name: str, args: List[str], seed: int) -> List[CheckReport]:
    from .specfile import SpecError  # not at import time: specfile reads CHECKS

    check = CHECKS.get(name)
    if check is None:
        return [CheckReport(name, "unknown check name", ERROR,
                            details=[f"no check named {name!r}"])]
    try:
        return check.run(spec, seed, *spec.resolve(name, args))
    except (SpecError, BundleError, PolyError) as exc:
        return [CheckReport(name, check.statement, ERROR,
                            details=[f"{type(exc).__name__}: {exc}"])]
    except Exception as exc:  # safety net for fixtures
        # the traceback names absolute paths, so it goes to stderr, not the report
        traceback.print_exc()
        return [CheckReport(name, check.statement, ERROR,
                            details=[f"unexpected {type(exc).__name__}: {exc}"])]
