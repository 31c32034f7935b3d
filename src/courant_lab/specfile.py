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

    [anchor.rho]                # the same, with target TM
    bundle = A
    a1 = Dx1

    [bracket.A]                 # anchored bracket; unset pairs are zero
    bundle = A
    anchor = rho                # default: the zero anchor
    antisymmetric = yes         # yes or no (the default)
    a1, a2 = a2

    [dorfman.Delta]             # at most one constructor: standard-of = nabla,
    e = E                       # im2form-of = sigma, nabla, lie-derivative-of = A
    standard-of = nabla         # or pairing = zero (with bracket = A, b = B);
    Dx1, eps = 0                # none: zero symbols on the canonical pre-dual of e
    shift Dx1, eps = x1*eps     # added on top (perturbed fixtures)
    keep-bracket = yes          # keep the unshifted (or named) bracket; default no

    [subbundle.U]
    ambient = TM+E*
    span = Dx1 ; Dx2 - epss     # constant sections, ';'-separated, may be empty

    [courant.C]
    standard = yes
    shift Dx1, Dx2 = dx1

    [checks]
    dorfman-axioms = Delta
    xfail dirac = Delta, U, K   # expected to fail (negative fixture)

KINDS declares each section kind once: its keys (those shown above), the
values a key may take, the form of its other lines and its builder.
bundle, source, target, ambient and standard are required.  An unknown
key, a missing required key and a value a key does not take (yes or no;
pairing only zero, standard only yes) are spec errors.  A given e must
name the E with B = E + T*M for the connection's B (for standard-of and
im2form-of, the bundle of their connection); only pairing reads b.

Every section but [patch] and [checks] needs a name ([bundle.E]), and a
bundle name may be neither TM nor contain + or *.  Bundle references are
sums over {TM, T*M, <name>, <name>*} that repeat no summand, so e, bundle
and ambient may name TM; a repeated summand (E+E, or e = T*M, which
makes E + T*M repeat T*M) is a SpecError on its line.  Dual frames carry
an 's' suffix (eps -> epss).  A frame name and its dual may repeat no coordinate, no
frame name of TM, T*M, this bundle or an earlier one, and no dual frame
name, since a section expression reads a name at its first place in a sum;
the frame line is the error's line.  A section, and a key within one, may be declared only
once ([anchor.X] and [hom.X] declare the same map X); [checks] lines may
repeat.  Each [checks] line must name a check of checks.CHECKS, the one
table that declares every check, with an argument count it accepts, and
each argument must name an object of the section kind CHECKS gives that
position; parse_spec rejects any other name, wherever in the file the
object is declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebroid import AnchoredBracket
from .bundle import Bundle, BundleError, HomSection, Patch, Section, SubBundle
from .checks import CHECKS
from .courant import standard_courant
from .dorfman import (Connection, DorfmanConnection, PreDual, canonical_predual,
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
    objects: Dict[str, Dict[str, object]]  # section kind -> name -> object
    checks: List[Tuple[str, List[str], bool]]  # (check name, args, expect_fail)
    # objects the check runners derive from the declared ones, keyed by those objects
    _derived: Dict[tuple, object] = field(default_factory=dict, init=False,
                                          compare=False, repr=False)

    def resolve_bundle_ref(self, ref: str, line: Optional[int] = None) -> Bundle:
        pieces = []
        for part in (p.strip() for p in ref.split("+")):
            name = part.removesuffix("*")
            if part in ("TM", "T*M"):
                pieces.append(Bundle.tangent(self.base) if part == "TM" else
                              Bundle.cotangent(self.base))
            elif name not in self.objects["bundle"]:
                raise SpecError(f"unknown bundle {name!r} in reference {ref!r}", line)
            else:
                bundle = self.objects["bundle"][name]
                pieces.append(bundle.dual() if part.endswith("*") else bundle)
        try:
            return sum(pieces[1:], pieces[0])
        except BundleError as exc:  # a sum that repeats a summand
            raise SpecError(str(exc), line) from exc

    def lookup(self, kind: str, name: str, line: Optional[int] = None,
               context: str = "") -> object:
        """The object of this section kind and name; a SpecError, prefixed
        by context, when the spec declares none."""
        if name in self.objects[kind]:
            return self.objects[kind][name]
        others = [other for other, table in self.objects.items() if name in table]
        problem = f"{name!r} is a {others[0]}, not a {kind}" if others else \
            f"unknown {kind} {name!r}"
        raise SpecError(context + problem, line)

    def resolve(self, name: str, args: Sequence[str], line: Optional[int] = None) -> list:
        """The declared objects the arguments of check `name` name, each one
        of the section kind checks.CHECKS gives its position.  parse_spec
        and checks.run_check both call it, so a wrong argument count or name
        is a SpecError on either path."""
        check = CHECKS[name]
        if len(args) not in check.arity:
            counts = " or ".join(map(str, check.arity))
            raise SpecError(f"check {name!r} takes {counts} argument(s), got {len(args)}", line)
        return [self.lookup(kind, arg, line, f"check {name!r} argument {position}: ")
                for position, (arg, kind) in enumerate(zip(args, check.kinds), start=1)]


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


def _idents(text: str, line: int) -> Tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    for i, name in enumerate(names):
        if not name[0].isalpha() or not name.isalnum():
            raise SpecError(f"{name!r} is not a valid identifier "
                            "(letter followed by letters or digits)", line)
        if name in names[:i]:
            raise SpecError(f"{name!r} is named twice", line)
    return names


def _header(sec: RawSection) -> str:
    return f"[{sec.kind}.{sec.name}]" if sec.name else f"[{sec.kind}]"


class _Body:
    """One section checked against its kind: the keys it gives, each with
    its line, and its other lines as (prefix, key, value, line)."""

    def __init__(self, spec: Optional[StructureSpec], sec: RawSection, kind: "Kind"):
        self.spec, self.sec = spec, sec
        self.keys: Dict[str, Tuple[str, int]] = {}
        self.lines: List[Tuple[str, str, str, int]] = []
        for key, value, lineno in sec.entries:
            if key in kind.required or key in kind.optional:
                if value not in kind.choices.get(key, (value,)):
                    raise SpecError(f"{key} = {value} in {_header(sec)}: expected "
                                    + " or ".join(kind.choices[key]), lineno)
                self.keys[key] = (value, lineno)
            elif (prefix := next((p for p in kind.lines if key.startswith(p)), None)) is not None:
                self.lines.append((prefix, key[len(prefix):].strip(), value, lineno))
            else:
                raise self.unknown(key, lineno)
        for key in kind.required:
            self.value(key)  # a SpecError when the section leaves it out
        given = sorted((self.keys[key][1], key) for key in kind.one_of if key in self.keys)
        if len(given) > 1:
            raise SpecError(f"{_header(sec)} names both {given[0][1]} and {given[1][1]}; "
                            "give at most one", given[1][0])

    def unknown(self, key: str, line: int) -> SpecError:
        return SpecError(f"unknown key {key!r} in {_header(self.sec)}", line)

    def get(self, key: str) -> Tuple[str, int]:
        """The value of a key and its line; the empty value when not given."""
        return self.keys.get(key, ("", self.sec.line))

    def value(self, key: str) -> Tuple[str, int]:
        """The value of a key the section must give, and its line."""
        if key not in self.keys:
            raise SpecError(f"{_header(self.sec)} needs the key {key!r}", self.sec.line)
        return self.keys[key]

    def ref(self, key: str) -> Bundle:
        return self.spec.resolve_bundle_ref(*self.value(key))

    def one_bundle(self, key: str) -> Bundle:
        """The bundle a key names, which must be one bundle, not a sum: the
        canonical pre-dual and the Dorfman constructors read E as the one
        summand of E + T*M besides T*M, so a sum is a SpecError on the
        key's line."""
        bundle = self.ref(key)
        if len(bundle.atoms) > 1:
            value, line = self.value(key)
            raise SpecError(f"{key} = {value} in {_header(self.sec)} names a sum of bundles; "
                            "name one bundle", line)
        return bundle

    def named(self, kind: str, key: str):
        value, line = self.value(key)
        return self.spec.lookup(kind, value, line, f"{key}: ")

    def cells(self, target: Bundle, *axes: Sequence[str]) -> List[Tuple[str, tuple, Section]]:
        """(prefix, index per axis, value) of every line 'n1, n2 = expr',
        n_k a name on axes[k] and expr a section of target."""
        out = []
        for prefix, key, value, lineno in self.lines:
            names = [p.strip() for p in key.split(",")]
            if len(names) != len(axes) or any(n not in axis for n, axis in zip(names, axes)):
                raise self.unknown(prefix + key, lineno)
            out.append((prefix, tuple(axis.index(n) for n, axis in zip(names, axes)),
                        parse_section_expr(value, target, lineno)))
        return out


def _patch(body: _Body) -> Patch:
    return Patch(_idents(*body.get("coords")))


def _bundle(body: _Body) -> Bundle:
    name = body.sec.name
    if name == "TM" or "+" in name or "*" in name:
        raise SpecError(f"{_header(body.sec)}: a bundle cannot be named {name!r}; TM and T*M "
                        "name the tangent and cotangent bundles, + and * build references",
                        body.sec.line)
    text, line = body.get("frame")
    frame, coords = _idents(text, line), body.spec.base.coords
    # each name a section expression may read, with what it names: a frame
    # name of this or an earlier bundle, or its dual, is read as its first
    # occurrence in a sum, so a repeat is refused
    taken = {prefix + c: "a coordinate or a frame name of TM or T*M"
             for c in coords for prefix in ("", "D", "d")}
    for earlier in body.spec.objects["bundle"].values():
        for f in earlier.frame:
            taken[f], taken[f + "s"] = (f"a frame name of {earlier.label()}",
                                        f"a frame name of {earlier.label()}*")
    for f in frame:
        for clash, what in ((f, f"frame name {f!r}"), (f + "s", f"'{f}s', the dual of '{f}',")):
            if clash in taken:
                raise SpecError(f"{what} is also {taken[clash]}", line)
        taken[f], taken[f + "s"] = f"a frame name of {name}", f"a frame name of {name}*"
    return Bundle.vector(body.spec.base, name, frame)


def _connection(body: _Body) -> Connection:
    bundle, coords = body.one_bundle("bundle"), body.spec.base.coords
    gamma = [[bundle.zero_section()] * bundle.rank for _ in coords]
    for _, (i, j), value in body.cells(bundle, coords, bundle.frame):
        gamma[i][j] = value
    return Connection(bundle, gamma)


def _hom(body: _Body, source: Bundle, target: Bundle) -> HomSection:
    cols = [target.zero_section()] * source.rank
    for _, (i,), value in body.cells(target, source.frame):
        cols[i] = value
    return HomSection.from_columns(source, target, cols)


def _bracket(body: _Body) -> AnchoredBracket:
    bundle = body.ref("bundle")
    anchor = body.named("hom", "anchor") if "anchor" in body.keys else \
        HomSection.zero(bundle, Bundle.tangent(body.spec.base))
    pairs = {ij: value for _, ij, value in body.cells(bundle, bundle.frame, bundle.frame)}
    return AnchoredBracket.from_pairs(bundle, anchor, pairs,
                                      antisymmetrize=body.get("antisymmetric")[0] == "yes")


def _zero_symbols(predual: PreDual) -> List[List[Section]]:
    return [[predual.b.zero_section()] * predual.b.rank for _ in range(predual.q.rank)]


def _im2form_of(body: _Body) -> DorfmanConnection:
    value, line = body.value("im2form-of")
    names = [v.strip() for v in value.split(",")]
    if len(names) != 2:
        raise SpecError("im2form-of needs 'hom, connection'", line)
    return im2form_dorfman(*(body.spec.lookup(kind, name, line, "im2form-of: ")
                             for kind, name in zip(("hom", "connection"), names)))


def _zero_pairing(body: _Body) -> DorfmanConnection:
    bracket = body.named("bracket", "bracket")
    predual = zero_predual(bracket.bundle, body.ref("b"))
    return DorfmanConnection(predual, bracket, _zero_symbols(predual))


# the constructors a [dorfman] section may name
_DORFMAN_FORMS: Dict[str, Callable[[_Body], DorfmanConnection]] = {
    "standard-of": lambda body: standard_dorfman(body.named("connection", "standard-of")),
    "im2form-of": _im2form_of,
    "lie-derivative-of": lambda body: lie_derivative_dorfman(
        body.named("bracket", "lie-derivative-of")),
    "pairing": _zero_pairing,
}


def _dorfman(body: _Body) -> DorfmanConnection:
    # delta acts on E + T*M for the E that e names, refused on e's line
    # when it repeats a summand (E = T*M), before a constructor builds it
    if "e" in body.keys:
        value, line = body.value("e")
        try:
            named = body.one_bundle("e") + Bundle.cotangent(body.spec.base)
        except BundleError as exc:
            raise SpecError(str(exc), line) from exc
    form = next((key for key in _DORFMAN_FORMS if key in body.keys), None)
    if form:
        delta = _DORFMAN_FORMS[form](body)
    else:
        predual = canonical_predual(body.one_bundle("e"))
        delta = DorfmanConnection.with_dual_bracket(predual, pr_tm_hom(predual.q),
                                                    _zero_symbols(predual))
    if "e" in body.keys and named is not delta.b:
        raise SpecError(f"e = {value} is not the bundle E of {form} = {body.get(form)[0]}", line)
    if "b" in body.keys and form != "pairing":
        raise SpecError("b is read only with pairing = zero", body.keys["b"][1])
    bracket = body.named("bracket", "bracket") if "bracket" in body.keys else delta.bracket
    cells = body.cells(delta.b, delta.q.frame, delta.b.frame)
    if not cells:
        return delta
    symbols = [list(row) for row in delta.symbols]
    # explicit symbols first, then the shifts on top of them
    for prefix, (i, j), value in sorted(cells, key=lambda cell: cell[0]):
        symbols[i][j] = symbols[i][j] + value if prefix else value
    if form == "pairing" or body.get("keep-bracket")[0] == "yes":
        return DorfmanConnection(delta.predual, bracket, symbols)
    return DorfmanConnection.with_dual_bracket(delta.predual, delta.bracket.anchor, symbols)


def _subbundle(body: _Body) -> SubBundle:
    ambient = body.ref("ambient")
    span, line = body.get("span")
    frame = [parse_section_expr(piece, ambient, line) for piece in span.split(";") if piece.strip()]
    try:
        return SubBundle(body.sec.name, frame, ambient)
    except BundleError as exc:
        raise SpecError(f"in {_header(body.sec)}: {exc}", line) from exc


def _courant(body: _Body):
    courant = standard_courant(body.spec.base)
    frame = courant.bundle.frame
    for _, (i, j), value in body.cells(courant.bundle, frame, frame):
        courant = courant.shifted(i, j, value)
    return courant


def _checks(body: _Body) -> None:
    for prefix, name, value, lineno in body.lines:
        if name not in CHECKS:
            raise SpecError(f"unknown check {name!r}", lineno)
        args = [v.strip() for v in value.split(",") if v.strip()]
        body.spec.checks.append((name, args, prefix == "xfail "))


class Kind(NamedTuple):
    """One section kind.  lines lists the prefixes its other lines may
    carry ('' for a plain line; none when every line is a key); build makes
    its object, filed under store, from the checked section."""

    required: Tuple[str, ...]
    optional: Tuple[str, ...]
    lines: Tuple[str, ...]
    build: Callable[[_Body], object]
    store: Optional[str] = None
    choices: Dict[str, Tuple[str, ...]] = {}  # the values a key may take
    one_of: Tuple[str, ...] = ()  # keys of which a section gives at most one


YES_NO = ("yes", "no")

# The section kinds that declare objects come first, in the order a name
# declared by several kinds is reported.
KINDS: Dict[str, Kind] = {
    "bracket": Kind(("bundle",), ("anchor", "antisymmetric"), ("",), _bracket, "bracket",
                    {"antisymmetric": YES_NO}),
    "dorfman": Kind((), ("e", "b", "bracket", "keep-bracket", *_DORFMAN_FORMS),
                    ("shift ", ""), _dorfman, "dorfman",
                    {"keep-bracket": YES_NO, "pairing": ("zero",)}, tuple(_DORFMAN_FORMS)),
    "subbundle": Kind(("ambient",), ("span",), (), _subbundle, "subbundle"),
    "courant": Kind(("standard",), (), ("shift ",), _courant, "courant",
                    {"standard": ("yes",)}),
    "hom": Kind(("source", "target"), (), ("",),
                lambda body: _hom(body, body.ref("source"), body.ref("target")), "hom"),
    "anchor": Kind(("bundle",), (), ("",),
                   lambda body: _hom(body, body.ref("bundle"), Bundle.tangent(body.spec.base)),
                   "hom"),
    "connection": Kind(("bundle",), (), ("",), _connection, "connection"),
    "bundle": Kind((), ("frame",), (), _bundle, "bundle"),
    "patch": Kind((), ("coords",), (), _patch),
    "checks": Kind((), (), ("xfail ", ""), _checks),
}


def parse_spec(text: str) -> StructureSpec:
    sections = _tokenize(text)
    patch = next((sec for sec in sections if sec.kind == "patch"), None)
    if patch is None:
        raise SpecError("missing [patch] section")
    spec = StructureSpec(_patch(_Body(None, patch, KINDS["patch"])),
                         {kind.store: {} for kind in KINDS.values() if kind.store}, [])
    declared: Dict[Tuple[str, str], RawSection] = {}
    for sec in sections:
        kind = KINDS.get(sec.kind)
        if kind is None:
            raise SpecError(f"unknown section kind {sec.kind!r}", sec.line)
        if kind.store and not sec.name:
            raise SpecError(f"[{sec.kind}] needs a name, as in [{sec.kind}.X]", sec.line)
        _reject_repeats(sec, kind, declared)
        if sec is patch:
            continue
        try:
            built = kind.build(_Body(spec, sec, kind))
        except (BundleError, PolyError) as exc:
            raise SpecError(f"in {_header(sec)}: {exc}", sec.line) from exc
        if kind.store:
            spec.objects[kind.store][sec.name] = built
    # objects may be declared after [checks], so argument counts and names
    # are checked at the end
    check_lines = [lineno for sec in sections if sec.kind == "checks"
                   for _, _, lineno in sec.entries]
    for (name, args, _), lineno in zip(spec.checks, check_lines):
        spec.resolve(name, args, lineno)
    return spec


def _reject_repeats(sec: RawSection, kind: Kind,
                    declared: Dict[Tuple[str, str], RawSection]) -> None:
    """A section and a key within it are declared once; [anchor.X] and
    [hom.X] both declare the bundle map X.  [checks] lines may repeat."""
    if sec.kind == "checks":
        return
    first = declared.setdefault((kind.store or sec.kind, sec.name), sec)
    if first is not sec:
        raise SpecError(f"{_header(sec)} repeats the declaration {_header(first)} "
                        f"on line {first.line}", sec.line)
    keys: Dict[str, int] = {}
    for key, _, lineno in sec.entries:
        if key in keys:
            raise SpecError(f"key {key!r} in {_header(sec)} repeats line {keys[key]}", lineno)
        keys[key] = lineno
