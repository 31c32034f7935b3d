"""Check registry: maps check names from spec files to verification runs.

Every runner takes the parsed StructureSpec, the argument names from the
[checks] line and the battery seed, and returns a list of CheckReports.
Unknown names, missing objects and internal errors become error reports
rather than crashes, so negative fixtures always terminate cleanly.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict, List

from .algebroid import AnchoredBracket
from .bundle import BundleError
from .courant import (build_manin_pair, check_c_iso, im2form_standard_iso,
                      recover_triple, roundtrip_check)
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
from .specfile import CHECK_STATEMENTS, SpecError, StructureSpec


class CheckArgError(ValueError):
    pass


def _need(mapping, name, what):
    if name not in mapping:
        raise CheckArgError(f"unknown {what} {name!r}")
    return mapping[name]


def _bracket(spec, name) -> AnchoredBracket:
    return _need(spec.brackets, name, "bracket")


def _lad(spec, name, seed) -> LieAlgebroidData:
    bracket = _bracket(spec, name)
    return LieAlgebroidData(bracket, lie_report=bracket.check_lie(seed))


def _triple(spec, dorfman_name, u_name, k_name) -> VBTriple:
    delta = _need(spec.dorfmans, dorfman_name, "dorfman connection")
    u_sub = _need(spec.subbundles, u_name, "subbundle")
    k_sub = _need(spec.subbundles, k_name, "subbundle")
    return VBTriple(delta, u_sub, k_sub)


def run_anchor_compat(spec, args, seed):
    return [_bracket(spec, args[0]).check_anchor_compat()]


def run_lie(spec, args, seed):
    return [_bracket(spec, args[0]).check_lie(seed)]


def run_dorfman_axioms(spec, args, seed):
    return [_need(spec.dorfmans, args[0], "dorfman connection").check_axioms()]


def run_duality(spec, args, seed):
    return [_need(spec.dorfmans, args[0], "dorfman connection").check_duality()]


def run_curvature(spec, args, seed):
    delta = _need(spec.dorfmans, args[0], "dorfman connection")
    return [delta.check_curvature_tensorial(), delta.curvature_vs_jacobiator()]


def run_skew(spec, args, seed):
    return [_need(spec.dorfmans, args[0], "dorfman connection").check_skew()]


def run_dirac(spec, args, seed):
    return [check_dirac(_triple(spec, *args[:3]))]


def run_geometric_dirac(spec, args, seed):
    return [check_geometric_dirac(_triple(spec, *args[:3]))]


def run_bracket_well_defined(spec, args, seed):
    return [check_bracket_well_defined_on_u(_triple(spec, *args[:3]))]


def run_splitting(spec, args, seed):
    return [verify_splitting_theorems(_need(spec.dorfmans, args[0], "dorfman connection"))]


def run_la_dirac(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    return [check_la_dirac(lad, _triple(spec, *args[1:4]))]


def run_section4(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    delta = _need(spec.dorfmans, args[1], "dorfman connection")
    return [check_omega_properties(lad, delta), check_dlike(lad, delta),
            check_basic_identities(lad, delta), check_basic_curvature(lad, delta)]


def run_identity_lemmas(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    triple = _triple(spec, *args[1:4]) if len(args) >= 4 else None
    delta = _need(spec.dorfmans, args[1], "dorfman connection")
    return [check_identity_lemmas(lad, delta, triple)]


def run_ruth(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    delta = _need(spec.dorfmans, args[1], "dorfman connection")
    return [check_ruth_compat(lad, delta, _triple(spec, *args[1:4]))]


def run_k_algebroid(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    _, report = k_algebroid(lad, _triple(spec, *args[1:4]))
    return [report]


def run_manin_pair(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    mp, report = build_manin_pair(lad, _triple(spec, *args[1:4]))
    out = [report]
    if mp is not None:
        out.append(mp.courant.check_axioms())
        out.append(check_c_iso(mp))
    return out


def run_roundtrip(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    return [roundtrip_check(lad, _triple(spec, *args[1:4]))]


def run_standard_iso(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    sigma = _need(spec.homs, args[4], "hom")
    mp, report = build_manin_pair(lad, _triple(spec, *args[1:4]))
    if mp is None:
        return [report]
    return [im2form_standard_iso(mp, sigma)]


def run_recover_perturbed(spec, args, seed):
    """Build the Manin pair, break condition (c) on a core pair, recover."""
    lad = _lad(spec, args[0], seed)
    mp, report = build_manin_pair(lad, _triple(spec, *args[1:4]))
    if mp is None:
        return [report]
    i = mp.u_sub.rank
    j = mp.c_bundle.rank - 1
    mp.courant.symbols[i][j] = mp.courant.symbols[i][j] + mp.c_bundle.frame_section(j)
    _, rec_report = recover_triple(mp)
    return [rec_report]


def run_courant_axioms(spec, args, seed):
    return [_need(spec.courants, args[0], "courant data").check_axioms()]


def run_bott(spec, args, seed):
    courant = _need(spec.courants, args[0], "courant data")
    k_sub = _need(spec.subbundles, args[1], "subbundle")
    _, report = bott_dorfman(courant, k_sub)
    return [report]


def run_linear_poisson(spec, args, seed):
    return [linear_poisson_check(_lad(spec, args[0], seed))]


def run_canonical_form(spec, args, seed):
    sigma = _need(spec.homs, args[0], "hom")
    conn = _need(spec.connections, args[1], "connection")
    return [canonical_form_check(sigma, conn)]


def run_ta_generators(spec, args, seed):
    lad = _lad(spec, args[0], seed)
    delta = _need(spec.dorfmans, args[1], "dorfman connection")
    return [ta_generator_check(lad, delta)]


REGISTRY: Dict[str, Callable] = {
    "anchor-compat": run_anchor_compat,
    "lie": run_lie,
    "dorfman-axioms": run_dorfman_axioms,
    "duality": run_duality,
    "curvature": run_curvature,
    "skew": run_skew,
    "dirac": run_dirac,
    "geometric-dirac": run_geometric_dirac,
    "bracket-well-defined": run_bracket_well_defined,
    "splitting-theorems": run_splitting,
    "la-dirac": run_la_dirac,
    "section4": run_section4,
    "identity-lemmas": run_identity_lemmas,
    "ruth-compat": run_ruth,
    "k-algebroid": run_k_algebroid,
    "manin-pair": run_manin_pair,
    "roundtrip": run_roundtrip,
    "standard-iso": run_standard_iso,
    "recover-perturbed": run_recover_perturbed,
    "courant-axioms": run_courant_axioms,
    "bott-dorfman": run_bott,
    "linear-poisson": run_linear_poisson,
    "canonical-form": run_canonical_form,
    "ta-generators": run_ta_generators,
}


def run_check(spec: StructureSpec, name: str, args: List[str], seed: int) -> List[CheckReport]:
    if name not in REGISTRY:
        return [CheckReport(name, "unknown check name", ERROR,
                            details=[f"no check named {name!r}"])]
    try:
        return REGISTRY[name](spec, args, seed)
    except (CheckArgError, SpecError, BundleError, PolyError) as exc:
        return [CheckReport(name, CHECK_STATEMENTS.get(name, ""), ERROR,
                            details=[f"{type(exc).__name__}: {exc}"])]
    except Exception as exc:  # safety net for fixtures
        # the traceback names absolute paths, so it goes to stderr, not the report
        traceback.print_exc()
        return [CheckReport(name, CHECK_STATEMENTS.get(name, ""), ERROR,
                            details=[f"unexpected {type(exc).__name__}: {exc}"])]
