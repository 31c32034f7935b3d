"""Benchmark workloads: spec texts made from a seed, each with its known answer.

A workload is the list of specs that one pass sends through
`courant-lab run`.  Every check line carries the verdict it must get.  For
the catalog that verdict is the line's `xfail` marker, read here from the
spec text.  For the generated workloads it follows from the construction:
the `scaling-r3` lines hold by theorem, and every `perturbed-r3` line is
broken on purpose.  No known answer is read from the program's own output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WORKLOADS = ("catalog", "scaling-r3", "perturbed-r3")

# The CLI's own default battery seed, so that the catalog at the default
# seed is exactly `courant-lab verify-all`.
DEFAULT_SEED = 7

COORDS = ("x1", "x2", "x3")
PERTURBED_DORFMAN_SPECS = 4


@dataclass(frozen=True)
class Line:
    check: str
    args: Tuple[str, ...]
    expect_fail: bool


@dataclass(frozen=True)
class Spec:
    name: str
    text: str
    lines: Tuple[Line, ...]


def generate(workload: str, seed: int, pass_index: int = 0) -> List[Spec]:
    """The specs of one pass.  The same arguments give the same texts."""
    if workload == "catalog":
        return _catalog()
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "scaling-r3":
        return _scaling(rng)
    if workload == "perturbed-r3":
        return _perturbed(rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- known answers ------------------------------------------------------------

def checks_section(text: str) -> Tuple[Line, ...]:
    """The [checks] lines of a spec text, with their xfail markers."""
    lines = []
    in_checks = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            in_checks = line == "[checks]"
            continue
        if not in_checks or not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        expect_fail = key.startswith("xfail ")
        check = key[len("xfail "):].strip() if expect_fail else key
        args = tuple(v.strip() for v in value.split(",") if v.strip())
        lines.append(Line(check, args, expect_fail))
    return tuple(lines)


def line_as_expected(line: Line, result: Optional[dict]) -> bool:
    """Judge one result of a `run --format json` document against its known answer.

    A line that must pass needs at least one report and only pass or
    not-applicable statuses.  A line that must fail needs a fail or error
    report that carries a witness, so an exception report (details, no
    witness) or a missing result never satisfies it.
    """
    if result is None or result.get("check") != line.check \
            or tuple(result.get("args", ())) != line.args:
        return False
    reports = result.get("reports", [])
    if line.expect_fail:
        return any(r["status"] in ("fail", "error") and r["witnesses"] for r in reports)
    return bool(reports) and all(r["status"] in ("pass", "not-applicable") for r in reports)


def unexpected_lines(spec: Spec, document: Optional[dict], seed: int) -> int:
    """Check lines of `spec` whose verdict in `document` differs from the known answer."""
    if document is None or document.get("seed") != seed:
        return len(spec.lines)
    results = document.get("results", [])
    if len(results) != len(spec.lines):
        return len(spec.lines)
    return sum(not line_as_expected(line, result)
               for line, result in zip(spec.lines, results))


# -- catalog ------------------------------------------------------------------

def _catalog() -> List[Spec]:
    from courant_lab.catalog import catalog_names, catalog_text

    return [Spec(name, catalog_text(name), checks_section(catalog_text(name)))
            for name in catalog_names()]


# -- generated fixtures over R^3 --------------------------------------------------

def _nonzero(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _affine(rng: random.Random, coord: str) -> str:
    c0, c1 = _nonzero(rng), _nonzero(rng)
    return f"({c0} {'+' if c1 > 0 else '-'} {abs(c1)}*{coord})"


def _spec(name: str, body: str, lines: List[Line]) -> Spec:
    checks = "\n".join(f"{'xfail ' if line.expect_fail else ''}{line.check} = "
                       f"{', '.join(line.args)}" for line in lines)
    text = f"[patch]\ncoords = {', '.join(COORDS)}\n\n{body.strip()}\n\n[checks]\n{checks}\n"
    return Spec(name, text, tuple(lines))


def _curved_line_connection(rng: random.Random) -> str:
    """Gamma_i = c0 + c1*x_{i+1}: the curvature d Gamma has dx1^dx2 part -c1 != 0."""
    rows = [f"{COORDS[i]}, e1 = {_affine(rng, COORDS[(i + 1) % 3])}*e1" for i in range(3)]
    return "[connection.nabla]\nbundle = E\n" + "\n".join(rows)


_DORFMAN_THEOREMS = ("dorfman-axioms", "duality", "curvature", "skew", "splitting-theorems")


def _scaling(rng: random.Random) -> List[Spec]:
    """A rank-1 and a rank-2 connection through standard-of, and the standard
    Courant algebroid with the graph of a constant 2-form as K.  Every line
    holds by theorem, whatever the coefficients."""
    specs = []
    rank1 = f"""
[bundle.E]
frame = e1

{_curved_line_connection(rng)}

[dorfman.Delta]
e = E
standard-of = nabla
"""
    specs.append(_spec("rank1-r3", rank1,
                       [Line(c, ("Delta",), False) for c in _DORFMAN_THEOREMS]))
    rank2 = f"""
[bundle.E]
frame = e1, e2

[connection.nabla]
bundle = E
x1, e1 = {_affine(rng, "x2")}*e2
x2, e2 = {_affine(rng, "x3")}*e1
x3, e1 = {_affine(rng, "x1")}*e1 + {_nonzero(rng)}*e2

[dorfman.Delta]
e = E
standard-of = nabla
"""
    specs.append(_spec("rank2-r3", rank2,
                       [Line(c, ("Delta",), False) for c in _DORFMAN_THEOREMS]))
    # K = {X + i_X w} for the constant 2-form w = c dx_a ^ dx_b: isotropic
    # and closed under the Courant bracket, so the Bott quotient exists.
    a, b = rng.sample(COORDS, 2)
    c = _nonzero(rng)
    courant = f"""
[courant.C]
standard = yes

[subbundle.K]
ambient = TM+T*M
span = D{a} + {c}*d{b} ; D{b} - {c}*d{a}
"""
    specs.append(_spec("courant-r3", courant,
                       [Line("courant-axioms", ("C",), False),
                        Line("bott-dorfman", ("C", "K"), False)]))
    return specs


def _perturbed(rng: random.Random) -> List[Spec]:
    """Kept-bracket shifts of standard Dorfman connections, and a shifted
    standard Courant algebroid.  Every line must fail:

    * dorfman-axioms: the shift moves one symbol Delta_{Dx_a} e1 by
      c*x_b*dx_d while the dual bracket is kept, so axiom (c) breaks at
      (Dx_a; Dx_d; e1) by c*x_b;
    * dirac, geometric-dirac: U = TM + E*, K = 0 is Dirac only for a flat
      connection, and the kept bracket is that of a curved one;
    * courant-axioms: one ordered frame pair's bracket moves by a nonzero
      1-form, so the symmetrized-bracket axiom (3) breaks on that pair.
    """
    specs = []
    for n in range(PERTURBED_DORFMAN_SPECS):
        a, b, d = (rng.choice(COORDS) for _ in range(3))
        body = f"""
[bundle.E]
frame = e1

{_curved_line_connection(rng)}

[dorfman.Delta]
e = E
standard-of = nabla
keep-bracket = yes
shift D{a}, e1 = {_nonzero(rng)}*{b}*d{d}

[subbundle.U]
ambient = TM+E*
span = Dx1 ; Dx2 ; Dx3 ; e1s

[subbundle.K]
ambient = E+T*M
span =
"""
        specs.append(_spec(f"shifted-dorfman-{n + 1}", body,
                           [Line("dorfman-axioms", ("Delta",), True),
                            Line("dirac", ("Delta", "U", "K"), True),
                            Line("geometric-dirac", ("Delta", "U", "K"), True)]))
    a, b, d, e = (rng.choice(COORDS) for _ in range(4))
    body = f"""
[courant.C]
standard = yes
shift D{a}, D{b} = {_nonzero(rng)}*{e}*d{d}
"""
    specs.append(_spec("shifted-courant", body, [Line("courant-axioms", ("C",), True)]))
    return specs
