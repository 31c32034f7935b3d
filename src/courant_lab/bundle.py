"""Trivialized bundles over polynomial coordinate patches.

A Patch is a list of base coordinates; a Bundle is a direct sum of tagged
atoms (TM, T*M, named bundles and their duals), each carrying a constant
frame.  Sections are coefficient vectors of ScalarPoly over the frame.
The module also houses the canonical pairing, the elementary Cartan
operations, annihilators of constant subbundles, and the deterministic
function battery used by every identity check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .linalg import SpanBasis, nullspace, rank as mat_rank
from .poly import Rational, ScalarPoly, parse_poly

TM = "TM"
COTM = "T*M"
VEC = "V"
VEC_DUAL = "V*"

_DUAL_KIND = {TM: COTM, COTM: TM, VEC: VEC_DUAL, VEC_DUAL: VEC}


class BundleError(ValueError):
    pass


@dataclass(frozen=True)
class Patch:
    """A polynomial coordinate patch; coords may be empty (a point)."""

    coords: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise BundleError(f"coordinate names must be distinct: {self.coords}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def zero(self) -> ScalarPoly:
        return self._zero

    def one(self) -> ScalarPoly:
        return self._one

    # polynomials and bundles are immutable, so each patch builds these once
    @cached_property
    def _zero(self) -> ScalarPoly:
        return ScalarPoly.zero(self.coords)

    @cached_property
    def _one(self) -> ScalarPoly:
        return ScalarPoly.one(self.coords)

    @cached_property
    def _tangent(self) -> "Bundle":
        return Bundle(self, (Atom(TM, "", tuple("D" + c for c in self.coords)),))

    @cached_property
    def _cotangent(self) -> "Bundle":
        return Bundle(self, (Atom(COTM, "", tuple("d" + c for c in self.coords)),))

    def const(self, value: Rational) -> ScalarPoly:
        return ScalarPoly.const(self.coords, value)

    def coord(self, name: str) -> ScalarPoly:
        return ScalarPoly.var(self.coords, name)

    def poly(self, text: Union[str, ScalarPoly, Rational]) -> ScalarPoly:
        if isinstance(text, ScalarPoly):
            if text.vars != self.coords:
                raise BundleError(f"polynomial over {text.vars}, patch has {self.coords}")
            return text
        if isinstance(text, (int, Fraction)):
            return self.const(text)
        return parse_poly(text, self.coords)


def patch(*coords: str) -> Patch:
    return Patch(tuple(coords))


@dataclass(frozen=True)
class Atom:
    kind: str
    name: str
    frame: Tuple[str, ...]

    def dual(self) -> "Atom":
        kind = _DUAL_KIND[self.kind]
        if self.kind == TM:
            frame = tuple("d" + f[1:] for f in self.frame)
        elif self.kind == COTM:
            frame = tuple("D" + f[1:] for f in self.frame)
        elif self.kind == VEC:
            frame = tuple(f + "s" for f in self.frame)
        else:
            frame = tuple(f[:-1] for f in self.frame)
        return Atom(kind, self.name, frame)

    def label(self) -> str:
        return {TM: "TM", COTM: "T*M"}.get(self.kind, self.name + ("*" if self.kind == VEC_DUAL else ""))


@dataclass(frozen=True)
class Bundle:
    """A direct sum of atoms over a patch.

    Immutable once built: the frame names and the rank are computed in
    __post_init__, the frame sections and the zero section on first use,
    and all are shared by every caller afterwards.
    """

    patch: Patch
    atoms: Tuple[Atom, ...]

    def __post_init__(self):
        frame = tuple(name for atom in self.atoms for name in atom.frame)
        object.__setattr__(self, "_frame", frame)
        object.__setattr__(self, "_rank", len(frame))

    @staticmethod
    def tangent(base: Patch) -> "Bundle":
        return base._tangent

    @staticmethod
    def cotangent(base: Patch) -> "Bundle":
        return base._cotangent

    @staticmethod
    def vector(base: Patch, name: str, frame: Iterable[str]) -> "Bundle":
        return Bundle(base, (Atom(VEC, name, tuple(frame)),))

    def dual(self) -> "Bundle":
        return Bundle(self.patch, tuple(a.dual() for a in self.atoms))

    def __add__(self, other: "Bundle") -> "Bundle":
        if other.patch != self.patch:
            raise BundleError("direct sum over different patches")
        return Bundle(self.patch, self.atoms + other.atoms)

    @property
    def frame(self) -> Tuple[str, ...]:
        return self._frame

    @property
    def rank(self) -> int:
        return self._rank

    def label(self) -> str:
        return "+".join(a.label() for a in self.atoms) if self.atoms else "0"

    def atom_index(self, kind: str, name: str = "") -> int:
        for i, atom in enumerate(self.atoms):
            if atom.kind == kind and (atom.name == name or not name):
                return i
        raise BundleError(f"no {kind} {name!r} summand in {self.label()}")

    def atom_slice(self, index: int) -> slice:
        start = sum(len(a.frame) for a in self.atoms[:index])
        return slice(start, start + len(self.atoms[index].frame))

    def zero_section(self) -> "Section":
        return self._zero_section

    def frame_section(self, i: int) -> "Section":
        return self._frame_sections[i]

    def frame_sections(self) -> List["Section"]:
        return list(self._frame_sections)

    @cached_property
    def _zero_section(self) -> "Section":
        return Section(self, (self.patch.zero(),) * self._rank)

    @cached_property
    def _frame_sections(self) -> Tuple["Section", ...]:
        zero, one = self.patch.zero(), self.patch.one()
        return tuple(Section(self, tuple(one if k == i else zero for k in range(self._rank)))
                     for i in range(self._rank))

    def section(self, mapping: Dict[str, Union[str, ScalarPoly, Rational]] | None = None,
                **by_name) -> "Section":
        """Build a section from {frame name: coefficient} data."""
        data = dict(mapping or {})
        data.update(by_name)
        coeffs = [self.patch.zero() for _ in range(self.rank)]
        frame = self.frame
        for name, value in data.items():
            if name not in frame:
                raise BundleError(f"{name!r} is not a frame name of {self.label()}")
            coeffs[frame.index(name)] = self.patch.poly(value)
        return Section(self, tuple(coeffs))


class Section:
    """An element of Gamma of a trivialized bundle: ScalarPoly coefficients."""

    __slots__ = ("bundle", "coeffs")

    def __init__(self, bundle: Bundle, coeffs: Sequence[ScalarPoly]):
        if len(coeffs) != bundle.rank:
            raise BundleError(f"{len(coeffs)} coefficients for rank {bundle.rank}")
        self.bundle = bundle
        self.coeffs = tuple(coeffs)

    def __add__(self, other: "Section") -> "Section":
        self._same(other)
        return Section(self.bundle, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Section") -> "Section":
        self._same(other)
        return Section(self.bundle, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Section":
        return Section(self.bundle, tuple(-a for a in self.coeffs))

    def scale(self, factor: Union[ScalarPoly, Rational]) -> "Section":
        if not isinstance(factor, ScalarPoly):
            factor = self.bundle.patch.const(factor)
        zero = self.bundle.patch.zero()
        return Section(self.bundle, tuple(zero if a.is_zero() else factor * a
                                          for a in self.coeffs))

    def _same(self, other: "Section") -> None:
        if other.bundle != self.bundle:
            raise BundleError(
                f"sections of different bundles: {self.bundle.label()} vs {other.bundle.label()}")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.coeffs)

    def constant_coeffs(self) -> List[Fraction]:
        return [c.constant_value() for c in self.coeffs]

    def part(self, atom_index: int) -> Tuple[ScalarPoly, ...]:
        return self.coeffs[self.bundle.atom_slice(atom_index)]

    def with_part(self, atom_index: int, coeffs: Sequence[ScalarPoly]) -> "Section":
        s = self.bundle.atom_slice(atom_index)
        new = list(self.coeffs)
        new[s.start:s.stop] = list(coeffs)
        return Section(self.bundle, tuple(new))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return self.bundle == other.bundle and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.bundle, self.coeffs))

    def __str__(self) -> str:
        pieces = []
        for name, coeff in zip(self.bundle.frame, self.coeffs):
            if coeff.is_zero():
                continue
            text = str(coeff)
            if text == "1":
                pieces.append(("+", name))
            elif text == "-1":
                pieces.append(("-", name))
            elif ("+" in text) or (" - " in text):
                pieces.append(("+", f"({text})*{name}"))
            elif text.startswith("-"):
                pieces.append(("-", f"{text[1:]}*{name}"))
            else:
                pieces.append(("+", f"{text}*{name}"))
        if not pieces:
            return "0"
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Section[{self.bundle.label()}]({self})"


class HomSection:
    """A bundle map as a matrix of ScalarPoly (target rank x source rank)."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Bundle, target: Bundle, matrix: Sequence[Sequence[ScalarPoly]]):
        if len(matrix) != target.rank or any(len(row) != source.rank for row in matrix):
            raise BundleError("matrix shape does not match the bundles")
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)

    @staticmethod
    def zero(source: Bundle, target: Bundle) -> "HomSection":
        z = source.patch.zero()
        return HomSection(source, target, [[z] * source.rank for _ in range(target.rank)])

    @staticmethod
    def from_columns(source: Bundle, columns: Sequence[Section]) -> "HomSection":
        if len(columns) != source.rank:
            raise BundleError("need one image column per source frame element")
        target = columns[0].bundle
        matrix = [[col.coeffs[i] for col in columns] for i in range(target.rank)]
        return HomSection(source, target, matrix)

    @staticmethod
    def identity(bundle: Bundle) -> "HomSection":
        return HomSection.from_columns(bundle, bundle.frame_sections())

    def column(self, j: int) -> Section:
        return Section(self.target, tuple(self.matrix[i][j] for i in range(self.target.rank)))

    def apply(self, section: Section) -> Section:
        if section.bundle != self.source:
            raise BundleError("section is not in the source bundle")
        zero = self.source.patch.zero()
        nonzero = [(j, coeff) for j, coeff in enumerate(section.coeffs) if not coeff.is_zero()]
        out = []
        for row in self.matrix:
            total = zero
            for j, coeff in nonzero:
                entry = row[j]
                if not entry.is_zero():
                    total = total + entry * coeff
            out.append(total)
        return Section(self.target, tuple(out))

    def compose(self, inner: "HomSection") -> "HomSection":
        if inner.target != self.source:
            raise BundleError("composition shape mismatch")
        cols = [self.apply(inner.column(j)) for j in range(inner.source.rank)]
        return HomSection.from_columns(inner.source, cols)

    def __add__(self, other: "HomSection") -> "HomSection":
        if other.source != self.source or other.target != self.target:
            raise BundleError("hom sections over different bundles")
        return HomSection(self.source, self.target,
                          [[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.matrix, other.matrix)])

    def __sub__(self, other: "HomSection") -> "HomSection":
        return self + HomSection(other.source, other.target,
                                 [[-e for e in row] for row in other.matrix])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.matrix for e in row)

    def __str__(self) -> str:
        cols = "; ".join(str(self.column(j)) for j in range(self.source.rank))
        return f"[{cols}]"


# -- canonical pairing ---------------------------------------------------

def pairing_matrix(left: Bundle, right: Bundle) -> List[List[Fraction]]:
    """Matrix of the canonical pairing: <v, s> = v^T M s over the frames.

    Defined when every atom of the left bundle has exactly one dual atom in
    the right bundle and vice versa (rank mismatches are rejected).
    """
    matrix = [[Fraction(0)] * right.rank for _ in range(left.rank)]
    used = set()
    for i, atom in enumerate(left.atoms):
        matches = [j for j, other in enumerate(right.atoms)
                   if other.kind == _DUAL_KIND[atom.kind] and other.name == atom.name
                   and j not in used]
        if not matches:
            raise BundleError(
                f"no dual of {atom.label()} in {right.label()} for the canonical pairing")
        j = matches[0]
        used.add(j)
        if len(right.atoms[j].frame) != len(atom.frame):
            raise BundleError("paired atoms have different ranks")
        ls, rs = left.atom_slice(i), right.atom_slice(j)
        for k in range(len(atom.frame)):
            matrix[ls.start + k][rs.start + k] = Fraction(1)
    if len(used) != len(right.atoms):
        raise BundleError(f"{right.label()} has atoms unmatched by {left.label()}")
    return matrix


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


def dual_pair(s1: Section, s2: Section) -> ScalarPoly:
    """sum_k s1_k s2_k: the pairing of two sections over mutually dual frames."""
    total = s1.bundle.patch.zero()
    for a, b in zip(s1.coeffs, s2.coeffs):
        total = total + a * b
    return total


def d_scalar(base: Patch, phi: ScalarPoly) -> Section:
    """The de Rham differential of a function, as a section of T*M."""
    ct = Bundle.cotangent(base)
    return Section(ct, tuple(phi.partial(c) for c in base.coords))


def db_canonical(bundle_b: Bundle, phi: ScalarPoly) -> Section:
    """d_B phi = (0, d phi) for a bundle with a T*M summand."""
    idx = bundle_b.atom_index(COTM)
    out = bundle_b.zero_section()
    return out.with_part(idx, tuple(phi.partial(c) for c in bundle_b.patch.coords))


# -- Cartan calculus (generic over a variable list) ----------------------

def vf_apply(vars_: Sequence[str], x_comps: Sequence[ScalarPoly], phi: ScalarPoly) -> ScalarPoly:
    """X(phi) = sum_i X^i d phi / d vars_i, the one kernel for a vector field
    acting on a function; a zero component costs neither a partial nor a product."""
    total = ScalarPoly.zero(phi.vars)
    for xi, v in zip(x_comps, vars_):
        if not xi.is_zero():
            total = total + xi * phi.partial(v)
    return total


def vf_bracket_comps(vars_: Sequence[str], x: Sequence[ScalarPoly],
                     y: Sequence[ScalarPoly]) -> List[ScalarPoly]:
    return [vf_apply(vars_, x, y[j]) - vf_apply(vars_, y, x[j]) for j in range(len(vars_))]


def lie_form_comps(vars_: Sequence[str], x: Sequence[ScalarPoly],
                   theta: Sequence[ScalarPoly]) -> List[ScalarPoly]:
    out = []
    for j, v in enumerate(vars_):
        term = vf_apply(vars_, x, theta[j])
        for i in range(len(vars_)):
            if not theta[i].is_zero():
                term = term + theta[i] * x[i].partial(v)
        out.append(term)
    return out


def two_form_of_oneform(vars_: Sequence[str], theta: Sequence[ScalarPoly]) -> List[List[ScalarPoly]]:
    """Coefficients W[i][j] = d_i theta_j - d_j theta_i of d(theta)."""
    n = len(vars_)
    return [[theta[j].partial(vars_[i]) - theta[i].partial(vars_[j]) for j in range(n)]
            for i in range(n)]


def interior_two_form(x: Sequence[ScalarPoly], w: Sequence[Sequence[ScalarPoly]]) -> List[ScalarPoly]:
    n = len(x)
    out = []
    for j in range(n):
        total = None
        for i in range(n):
            piece = x[i] * w[i][j]
            total = piece if total is None else total + piece
        out.append(total)
    return out


def vf_bracket(x: Section, y: Section) -> Section:
    """Lie bracket of vector fields, [X, Y]^j = X^i d_i Y^j - Y^i d_i X^j."""
    base = x.bundle.patch
    if x.bundle != Bundle.tangent(base) or y.bundle != x.bundle:
        raise BundleError("vf_bracket expects two TM sections over one patch")
    return Section(x.bundle, tuple(vf_bracket_comps(base.coords, x.coeffs, y.coeffs)))


def lie_derivative_form(x: Section, theta: Section) -> Section:
    """Lie derivative of a 1-form along a vector field (Cartan identity holds)."""
    base = x.bundle.patch
    if theta.bundle != Bundle.cotangent(base):
        raise BundleError("lie_derivative_form expects a T*M section")
    return Section(theta.bundle, tuple(lie_form_comps(base.coords, x.coeffs, theta.coeffs)))


def courant_dorfman_form_part(x1, theta1, x2, theta2, vars_):
    """The T*M-component L_{X1} theta2 - i_{X2} d theta1, over any variable list."""
    lie = lie_form_comps(vars_, x1, theta2)
    dtheta = two_form_of_oneform(vars_, theta1)
    contraction = interior_two_form(x2, dtheta)
    return [a - b for a, b in zip(lie, contraction)]


# -- annihilators and constant subbundles --------------------------------

def annihilator(frame: Sequence[Section], partner: Bundle) -> List[Section]:
    """Constant frame of the annihilator under the canonical pairing."""
    if not frame:
        return partner.frame_sections()
    ambient = frame[0].bundle
    for sec in frame:
        if not sec.is_constant():
            raise BundleError("annihilator supports constant-coefficient frames only")
    matrix = pairing_matrix(ambient, partner)
    rows = []
    for sec in frame:
        consts = sec.constant_coeffs()
        rows.append([sum((consts[i] * matrix[i][j] for i in range(ambient.rank)), Fraction(0))
                     for j in range(partner.rank)])
    if mat_rank(rows) != len(rows):
        raise BundleError("annihilator frame is linearly dependent")
    basis = nullspace(rows, partner.rank)
    zero = partner.patch.zero()
    out = []
    for vec in basis:
        out.append(Section(partner, tuple(
            partner.patch.const(v) if v else zero for v in vec)))
    return out


class SubBundle:
    """A constant-coefficient subbundle with canonical complement.

    Membership of a polynomial section is decided by projecting onto the
    deterministic rational complement and testing zero.
    """

    def __init__(self, name: str, sections: Sequence[Section], ambient: Bundle | None = None):
        if sections:
            ambient = sections[0].bundle
        if ambient is None:
            raise BundleError("empty subbundle needs an explicit ambient bundle")
        self.name = name
        self.ambient = ambient
        self.sections = list(sections)
        rows = []
        for sec in self.sections:
            if sec.bundle != ambient:
                raise BundleError("subbundle frame is not in one ambient bundle")
            if not sec.is_constant():
                raise BundleError("subbundle frames must have constant coefficients")
            rows.append(sec.constant_coeffs())
        self.span = SpanBasis(rows, ambient.rank)

    @property
    def rank(self) -> int:
        return len(self.sections)

    def contains(self, section: Section) -> bool:
        return self.span.contains(section.coeffs)

    def residual(self, section: Section) -> Section:
        """Component of the section transverse to the span (zero iff member)."""
        rest = self.span.residual(section.coeffs)
        out = self.ambient.zero_section()
        for coeff, comp in zip(rest, self.span.complement):
            vec = Section(self.ambient, tuple(self.ambient.patch.const(v) for v in comp))
            out = out + vec.scale(coeff)
        return out

    def coords(self, section: Section) -> List[ScalarPoly]:
        """Coefficients over the subbundle frame; section must be a member."""
        head, rest = self.span.coords(section.coeffs)
        if not all(r.is_zero() if isinstance(r, ScalarPoly) else r == 0 for r in rest):
            raise BundleError(f"section is not in span of {self.name}")
        return list(head)

    def include(self, coeffs: Sequence[ScalarPoly]) -> Section:
        out = self.ambient.zero_section()
        for coeff, sec in zip(coeffs, self.sections):
            out = out + sec.scale(coeff)
        return out

    def as_bundle(self) -> Bundle:
        frame = tuple(f"{self.name}{i + 1}" for i in range(self.rank))
        return Bundle.vector(self.ambient.patch, self.name, frame)

    def annihilator_in(self, partner: Bundle, name: str) -> "SubBundle":
        return SubBundle(name, annihilator(self.sections, partner), partner)

    def same_subspace(self, other: "SubBundle") -> bool:
        return (self.rank == other.rank
                and all(other.contains(sec) for sec in self.sections))


# -- test battery ---------------------------------------------------------

BATTERY_SEED = 7


def battery_functions(base: Patch) -> List[ScalarPoly]:
    """Deterministic coefficient battery {1, x1, x2, x1*x2, x1^2}, truncated."""
    out = [base.one()]
    coords = base.coords
    if len(coords) >= 1:
        x1 = base.coord(coords[0])
        out.append(x1)
    if len(coords) >= 2:
        x2 = base.coord(coords[1])
        out.extend([x2, x1 * x2])
    if len(coords) >= 1:
        out.append(x1 * x1)
    return out


def random_poly(base: Patch, rng: random.Random, degree: int = 2) -> ScalarPoly:
    coords = base.coords
    poly = base.const(Fraction(rng.randint(-2, 2)))
    for _ in range(2):
        term = base.const(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        for _ in range(rng.randint(0, degree)):
            if coords:
                term = term * base.coord(rng.choice(coords))
        poly = poly + term
    return poly


def random_sections(bundle: Bundle, count: int, rng: random.Random,
                    degree: int = 2) -> List[Section]:
    out = []
    for _ in range(count):
        out.append(Section(bundle, tuple(random_poly(bundle.patch, rng, degree)
                                         for _ in range(bundle.rank))))
    return out
