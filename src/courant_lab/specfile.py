"""Structure spec files: a restricted sectioned text format.

A spec file declares one coordinate patch, bundles, connections, bundle
maps, anchored brackets, Dorfman connections, constant subbundles and
Courant data, followed by a [checks] section listing the verifications to
run.  Values are strings in the polynomial grammar, extended to section
expressions (polynomial coefficients times frame names).

    [patch]
    coords = x1, x2

    [bundle.E]
    frame = eps

    [connection.nabla]          # nabla_{d/dxi} frame = section
    bundle = E
    x2, eps = x1*eps

    [hom.sigma]                 # bundle map, one image per source frame
    source = E
    target = T*M
    eps = x2*dx1

    [anchor.rho]                # anchor image of each frame element
    bundle = A
    a1 = Dx1

    [bracket.A]                 # anchored bracket; unset pairs are zero
    bundle = A
    anchor = rho
    antisymmetric = yes
    a1, a2 = a2

    [dorfman.Delta]
    e = E                       # canonical pre-dual of E; or:
    # q = <bracket>, b = <bundle ref>, pairing = zero
    standard-of = nabla         # or im2form-of = sigma, nabla
    # or lie-derivative-of = <bracket>; explicit lines override:
    Dx1, eps = 0
    shift Dx1, eps = x1*eps     # added on top (perturbed fixtures)
    keep-bracket = yes          # keep the unshifted dual bracket

    [subbundle.U]
    ambient = TM+E*
    span = Dx1 ; Dx2 - epss     # constant sections, ';'-separated, may be empty

    [courant.C]
    standard = yes
    shift Dx1, Dx2 = dx1

    [checks]
    dorfman-axioms = Delta
    xfail dirac = Delta, U, K   # expected to fail (negative fixture)

Bundle references are sums over {TM, T*M, <name>, <name>*}; dual frames
carry an 's' suffix (eps -> epss).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .algebroid import AnchoredBracket
from .bundle import Bundle, BundleError, HomSection, Patch, Section, SubBundle
from .courant import CourantData, standard_courant
from .dorfman import (Connection, DorfmanConnection, canonical_predual,
                      im2form_dorfman, lie_derivative_dorfman, pr_tm_hom,
                      standard_dorfman, zero_predual)
from .poly import PolyError, ScalarPoly, parse_poly


class SpecError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class RawSection:
    kind: str
    name: str
    line: int
    entries: List[Tuple[str, str, int]] = field(default_factory=list)


def _tokenize(text: str) -> List[RawSection]:
    sections: List[RawSection] = []
    current: Optional[RawSection] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecError("unterminated section header", lineno)
            header = line[1:-1].strip()
            kind, _, name = header.partition(".")
            current = RawSection(kind.strip(), name.strip(), lineno)
            sections.append(current)
            continue
        if current is None:
            raise SpecError("entry outside of any section", lineno)
        if "=" not in line:
            raise SpecError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        current.entries.append((key.strip(), value.strip(), lineno))
    return sections


@dataclass
class StructureSpec:
    """All objects declared by one spec file."""

    base: Patch
    bundles: Dict[str, Bundle]
    connections: Dict[str, Connection]
    homs: Dict[str, HomSection]
    brackets: Dict[str, AnchoredBracket]
    dorfmans: Dict[str, DorfmanConnection]
    subbundles: Dict[str, SubBundle]
    courants: Dict[str, CourantData]
    checks: List[Tuple[str, List[str], bool]]  # (check name, args, expect_fail)

    def resolve_bundle_ref(self, ref: str) -> Bundle:
        parts = [p.strip() for p in ref.split("+")]
        out: Optional[Bundle] = None
        for part in parts:
            if part == "TM":
                piece = Bundle.tangent(self.base)
            elif part == "T*M":
                piece = Bundle.cotangent(self.base)
            elif part.endswith("*"):
                name = part[:-1]
                if name not in self.bundles:
                    raise SpecError(f"unknown bundle {name!r} in reference {ref!r}")
                piece = self.bundles[name].dual()
            else:
                if part not in self.bundles:
                    raise SpecError(f"unknown bundle {part!r} in reference {ref!r}")
                piece = self.bundles[part]
            out = piece if out is None else out + piece
        if out is None:
            raise SpecError(f"empty bundle reference {ref!r}")
        return out

    def parse_section(self, text: str, bundle: Bundle, line: Optional[int] = None) -> Section:
        return parse_section_expr(text, bundle, line)


def parse_section_expr(text: str, bundle: Bundle, line: Optional[int] = None) -> Section:
    """Parse 'poly * frame + ...' into a Section of the bundle."""
    frame = bundle.frame
    vars_ = tuple(bundle.patch.coords) + frame
    try:
        poly = parse_poly(text, vars_)
    except PolyError as exc:
        raise SpecError(f"bad section expression {text!r}: {exc}", line) from exc
    n = len(bundle.patch.coords)
    coeffs = [bundle.patch.zero() for _ in range(bundle.rank)]
    for exps, value in poly.terms.items():
        frame_part = exps[n:]
        total = sum(frame_part)
        if total == 0:
            raise SpecError(
                f"section expression {text!r} has a scalar term with no frame factor", line)
        if total > 1 or max(frame_part) > 1:
            raise SpecError(
                f"section expression {text!r} is not linear in the frame", line)
        idx = frame_part.index(1)
        mono = ScalarPoly(bundle.patch.coords, {exps[:n]: value})
        coeffs[idx] = coeffs[idx] + mono
    return Section(bundle, tuple(coeffs))


def _check_ident(name: str, line: Optional[int]) -> str:
    if not name or not name[0].isalpha() or not name.isalnum():
        raise SpecError(f"{name!r} is not a valid identifier "
                        "(letter followed by letters or digits)", line)
    return name

# The check names a [checks] line may use, with the statement each verifies;
# checks.REGISTRY maps the same names to their runners.
CHECK_STATEMENTS: Dict[str, str] = {
    "anchor-compat": "the anchor intertwines the bracket with vector fields",
    "lie": "antisymmetry and the Jacobi identity",
    "dorfman-axioms": "Dorfman connection axioms (a)-(c)",
    "duality": "equivalence of the connection and its dull bracket",
    "curvature": "curvature tensoriality and its Jacobiator pairing",
    "skew": "properties of the symmetrization tensor",
    "dirac": "sub-double-vector-bundle and Dirac conditions",
    "geometric-dirac": "total-space Dirac verification",
    "bracket-well-defined": "U-brackets agree across equivalent representatives",
    "splitting-theorems": "total-space pairing and bracket identities",
    "la-dirac": "LA-Dirac triple conditions",
    "section4": "Omega, Dorfman-like bracket, basic connections and curvature",
    "identity-lemmas": "basic-connection identity lemmas",
    "ruth-compat": "mixed compatibility identities",
    "k-algebroid": "induced Lie algebroid on K and its morphism to U",
    "manin-pair": "Courant algebroid on the quotient, with axioms and extension",
    "roundtrip": "triple to Manin pair and back",
    "standard-iso": "isomorphism with the standard Courant algebroid",
    "recover-perturbed": "recovery from a Manin pair with a broken core bracket",
    "courant-axioms": "Courant algebroid axioms (1)-(5)",
    "bott-dorfman": "quotient connection along an isotropic subalgebroid",
    "linear-poisson": "sharp map of the fiberwise-linear dual bracket",
    "canonical-form": "pullback canonical one- and two-forms",
    "ta-generators": "generator calculus over TM + A*",
}

# The argument counts each check accepts; parse_spec rejects any other count.
CHECK_ARITY: Dict[str, Tuple[int, ...]] = {
    **dict.fromkeys(["anchor-compat", "lie", "dorfman-axioms", "duality", "curvature", "skew",
                     "splitting-theorems", "courant-axioms", "linear-poisson"], (1,)),
    **dict.fromkeys(["section4", "bott-dorfman", "canonical-form", "ta-generators"], (2,)),
    **dict.fromkeys(["dirac", "geometric-dirac", "bracket-well-defined"], (3,)),
    **dict.fromkeys(["la-dirac", "ruth-compat", "k-algebroid", "manin-pair", "roundtrip",
                     "recover-perturbed"], (4,)),
    "identity-lemmas": (2, 4),
    "standard-iso": (5,),
}


def parse_spec(text: str) -> StructureSpec:
    sections = _tokenize(text)
    base: Optional[Patch] = None
    for sec in sections:
        if sec.kind == "patch":
            coords: Tuple[str, ...] = ()
            for key, value, lineno in sec.entries:
                if key != "coords":
                    raise SpecError(f"unknown patch key {key!r}", lineno)
                coords = tuple(_check_ident(v.strip(), lineno)
                               for v in value.split(",") if v.strip())
            base = Patch(coords)
    if base is None:
        raise SpecError("missing [patch] section")

    spec = StructureSpec(base, {}, {}, {}, {}, {}, {}, {}, [])
    for sec in sections:
        try:
            _build_section(spec, sec)
        except (BundleError, PolyError) as exc:
            raise SpecError(f"in [{sec.kind}.{sec.name}]: {exc}", sec.line) from exc
    return spec


def _entries_dict(sec: RawSection) -> Dict[str, str]:
    return {key: value for key, value, _ in sec.entries}


def _build_section(spec: StructureSpec, sec: RawSection) -> None:
    if sec.kind == "patch":
        return
    if sec.kind == "bundle":
        data = _entries_dict(sec)
        frame = tuple(_check_ident(v.strip(), sec.line)
                      for v in data.get("frame", "").split(",") if v.strip())
        spec.bundles[sec.name] = Bundle.vector(spec.base, sec.name, frame)
        return
    if sec.kind == "connection":
        data = _entries_dict(sec)
        bundle = spec.resolve_bundle_ref(data["bundle"])
        gamma = [[bundle.zero_section() for _ in range(bundle.rank)]
                 for _ in range(spec.base.dim)]
        for key, value, lineno in sec.entries:
            if key == "bundle":
                continue
            coord, _, frame_name = (p.strip() for p in key.partition(","))
            if coord not in spec.base.coords or frame_name not in bundle.frame:
                raise SpecError(f"bad connection key {key!r}", lineno)
            gamma[spec.base.coords.index(coord)][bundle.frame.index(frame_name)] = \
                spec.parse_section(value, bundle, lineno)
        spec.connections[sec.name] = Connection(bundle, gamma)
        return
    if sec.kind == "hom":
        data = _entries_dict(sec)
        source = spec.resolve_bundle_ref(data["source"])
        target = spec.resolve_bundle_ref(data["target"])
        cols = [target.zero_section() for _ in range(source.rank)]
        for key, value, lineno in sec.entries:
            if key in ("source", "target"):
                continue
            if key not in source.frame:
                raise SpecError(f"{key!r} is not a source frame name", lineno)
            cols[source.frame.index(key)] = spec.parse_section(value, target, lineno)
        spec.homs[sec.name] = HomSection.from_columns(source, cols)
        return
    if sec.kind == "anchor":
        data = _entries_dict(sec)
        bundle = spec.resolve_bundle_ref(data["bundle"])
        tangent = Bundle.tangent(spec.base)
        cols = [tangent.zero_section() for _ in range(bundle.rank)]
        for key, value, lineno in sec.entries:
            if key == "bundle":
                continue
            if key not in bundle.frame:
                raise SpecError(f"{key!r} is not a frame name of the bundle", lineno)
            cols[bundle.frame.index(key)] = spec.parse_section(value, tangent, lineno)
        spec.homs[sec.name] = HomSection.from_columns(bundle, cols)
        return
    if sec.kind == "bracket":
        data = _entries_dict(sec)
        bundle = spec.resolve_bundle_ref(data["bundle"])
        tangent = Bundle.tangent(spec.base)
        if "anchor" in data:
            anchor = spec.homs.get(data["anchor"])
            if anchor is None:
                raise SpecError(f"unknown anchor {data['anchor']!r}", sec.line)
        else:
            anchor = HomSection.zero(bundle, tangent)
        anti = data.get("antisymmetric", "no") == "yes"
        pairs = {}
        for key, value, lineno in sec.entries:
            if key in ("bundle", "anchor", "antisymmetric"):
                continue
            f1, _, f2 = (p.strip() for p in key.partition(","))
            if f1 not in bundle.frame or f2 not in bundle.frame:
                raise SpecError(f"bad bracket key {key!r}", lineno)
            pairs[(bundle.frame.index(f1), bundle.frame.index(f2))] = \
                spec.parse_section(value, bundle, lineno)
        spec.brackets[sec.name] = AnchoredBracket.from_pairs(
            bundle, anchor, pairs, antisymmetrize=anti)
        return
    if sec.kind == "dorfman":
        _build_dorfman(spec, sec)
        return
    if sec.kind == "subbundle":
        data = _entries_dict(sec)
        ambient = spec.resolve_bundle_ref(data["ambient"])
        span_text = data.get("span", "")
        sections = []
        for piece in span_text.split(";"):
            piece = piece.strip()
            if piece:
                sections.append(spec.parse_section(piece, ambient, sec.line))
        spec.subbundles[sec.name] = SubBundle(sec.name, sections, ambient)
        return
    if sec.kind == "courant":
        data = _entries_dict(sec)
        if data.get("standard", "no") != "yes":
            raise SpecError("only standard = yes Courant data is supported", sec.line)
        courant = standard_courant(spec.base)
        for key, value, lineno in sec.entries:
            if not key.startswith("shift "):
                continue
            f1, _, f2 = (p.strip() for p in key[len("shift "):].partition(","))
            if f1 not in courant.bundle.frame or f2 not in courant.bundle.frame:
                raise SpecError(f"bad shift key {key!r}", lineno)
            i, j = courant.bundle.frame.index(f1), courant.bundle.frame.index(f2)
            courant.symbols[i][j] = courant.symbols[i][j] + \
                spec.parse_section(value, courant.bundle, lineno)
        spec.courants[sec.name] = courant
        return
    if sec.kind == "checks":
        for key, value, lineno in sec.entries:
            expect_fail = False
            name = key
            if key.startswith("xfail "):
                expect_fail = True
                name = key[len("xfail "):].strip()
            if name not in CHECK_STATEMENTS:
                raise SpecError(f"unknown check {name!r}", lineno)
            args = [v.strip() for v in value.split(",") if v.strip()]
            if len(args) not in CHECK_ARITY[name]:
                counts = " or ".join(map(str, CHECK_ARITY[name]))
                raise SpecError(f"check {name!r} takes {counts} argument(s), "
                                f"got {len(args)}", lineno)
            spec.checks.append((name, args, expect_fail))
        return
    raise SpecError(f"unknown section kind {sec.kind!r}", sec.line)


def _build_dorfman(spec: StructureSpec, sec: RawSection) -> None:
    data = _entries_dict(sec)
    named_bracket = spec.brackets.get(data["bracket"]) if "bracket" in data else None

    if data.get("pairing") == "zero":
        if named_bracket is None:
            raise SpecError("a zero-pairing connection needs an explicit bracket", sec.line)
        b_bundle = spec.resolve_bundle_ref(data["b"])
        predual = zero_predual(named_bracket.bundle, b_bundle)
        symbols = [[predual.b.zero_section() for _ in range(predual.b.rank)]
                   for _ in range(predual.q.rank)]
        _apply_symbol_lines(spec, sec, predual, symbols)
        spec.dorfmans[sec.name] = DorfmanConnection(predual, named_bracket, symbols)
        return

    if "lie-derivative-of" in data:
        bracket = spec.brackets.get(data["lie-derivative-of"])
        if bracket is None:
            raise SpecError(f"unknown bracket {data['lie-derivative-of']!r}", sec.line)
        spec.dorfmans[sec.name] = lie_derivative_dorfman(bracket)
        return

    if "standard-of" in data:
        conn = spec.connections.get(data["standard-of"])
        if conn is None:
            raise SpecError(f"unknown connection {data['standard-of']!r}", sec.line)
        delta = standard_dorfman(conn)
    elif "im2form-of" in data:
        names = [v.strip() for v in data["im2form-of"].split(",")]
        if len(names) != 2 or names[0] not in spec.homs or names[1] not in spec.connections:
            raise SpecError("im2form-of needs 'hom, connection'", sec.line)
        delta = im2form_dorfman(spec.homs[names[0]], spec.connections[names[1]])
    else:
        e_bundle = spec.resolve_bundle_ref(data["e"])
        predual = canonical_predual(e_bundle)
        symbols = [[predual.b.zero_section() for _ in range(predual.b.rank)]
                   for _ in range(predual.q.rank)]
        helper = DorfmanConnection(
            predual, AnchoredBracket.from_pairs(predual.q, pr_tm_hom(predual.q)), symbols)
        delta = DorfmanConnection(predual, helper.dual_bracket(), symbols)

    symbols = [list(row) for row in delta.symbols]
    changed = _apply_symbol_lines(spec, sec, delta.predual, symbols)
    shifted = _apply_shift_lines(spec, sec, delta.predual, symbols)
    if changed or shifted:
        if data.get("keep-bracket") == "yes":
            bracket = named_bracket or delta.bracket
            spec.dorfmans[sec.name] = DorfmanConnection(delta.predual, bracket, symbols)
        else:
            helper = DorfmanConnection(delta.predual, delta.bracket, symbols)
            spec.dorfmans[sec.name] = DorfmanConnection(
                delta.predual, helper.dual_bracket(), symbols)
    else:
        spec.dorfmans[sec.name] = delta


_DORFMAN_KEYS = {"e", "q", "b", "bracket", "pairing", "standard-of", "im2form-of",
                 "lie-derivative-of", "keep-bracket"}


def _apply_symbol_lines(spec: StructureSpec, sec: RawSection, predual, symbols) -> bool:
    changed = False
    for key, value, lineno in sec.entries:
        if key in _DORFMAN_KEYS or key.startswith("shift "):
            continue
        f1, _, f2 = (p.strip() for p in key.partition(","))
        if f1 not in predual.q.frame or f2 not in predual.b.frame:
            raise SpecError(f"bad symbol key {key!r}", lineno)
        i, j = predual.q.frame.index(f1), predual.b.frame.index(f2)
        symbols[i][j] = parse_section_expr(value, predual.b, lineno)
        changed = True
    return changed


def _apply_shift_lines(spec: StructureSpec, sec: RawSection, predual, symbols) -> bool:
    changed = False
    for key, value, lineno in sec.entries:
        if not key.startswith("shift "):
            continue
        f1, _, f2 = (p.strip() for p in key[len("shift "):].partition(","))
        if f1 not in predual.q.frame or f2 not in predual.b.frame:
            raise SpecError(f"bad shift key {key!r}", lineno)
        i, j = predual.q.frame.index(f1), predual.b.frame.index(f2)
        symbols[i][j] = symbols[i][j] + parse_section_expr(value, predual.b, lineno)
        changed = True
    return changed
