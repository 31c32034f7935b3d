"""Trivialized bundles over polynomial coordinate patches.

A Patch is a list of base coordinates; a Bundle is a direct sum of tagged
atoms (TM, T*M, named bundles and their duals), each carrying a constant
frame.  Sections are coefficient vectors of ScalarPoly over the frame.
Every bundle of one structure sits over one base manifold, so build every
object of one structure over one Patch.  A Patch and a Bundle are equal
only to themselves and hash by identity, and each patch builds one Bundle
per atoms tuple (Patch.bundle), so `is` is the one bundle comparison:
sections over two equal but distinct patches never mix.

Zero is shared, not built.  A Patch owns its zero polynomial (Patch.zero)
and a Bundle its zero section (Bundle.zero_section), each built once.  A
kernel whose result vanishes returns that owner's zero, or an operand it
hands back unchanged: the section kernels (Section `+`, `-`, unary `-`,
`scale` and `component`, Bundle.join, `leibniz`, `column_section`,
`vf_bracket`, `lie_derivative_form`) return the bundle's zero section, and
the polynomial kernels (`column_apply`, and the Cartan kernels `vf_apply`,
`vf_bracket_comps`, `lie_form_comps`, `courant_dorfman_form_part`, which
take the Patch their polynomials live over) return its zero polynomial,
also for a component that cancels.  The kernels here read the stored
zeros (Patch._zero, Bundle._zero_section) directly, without a method
call each time; other modules call Patch.zero() and zero_section().
Section `-` returns the zero section at once, after its bundle check,
when the two coefficient tuples are equal: nearly every difference a
check forms cancels.

A section carries its nonzero components: Section.nonzero() gives the
(index, coefficient) pairs of its nonzero coefficients, found on the first
call and kept (a section is immutable).  Every kernel here iterates such
views, a section's or FrameTable anchors, and no other module rescans a
section's coefficients.  A fixed matrix (an anchor, d_B, D, a pairing, a
subbundle projection, a constant solve, a fixed two-form) is read once
into Marked rows or columns: its nonzero entries, an entry equal to 1
marked so that it costs no product.  `column_apply` applies a ColumnTable
to a view (HomSection.apply keeps its map's table), and `matrix_pair` and
`leibniz` walk the rows of a pairing (pairing_rows) against a view.

The layout of a direct sum is known to this module alone.  A summand is
named by the bundle that fills it, the very Bundle that Bundle.tangent,
`dual`, `vector` and so on return (E, E.dual(), Bundle.tangent(base)),
so whoever built a sum names its summands: Section.component (the
projection onto a summand) and Bundle.join (the inclusion of summand
sections) read and write them, and Bundle.positions gives a summand's
frame positions to the tables indexed by frame position.  A direct sum
that repeats an atom (T*M + T*M) is refused where it is built, since its
summands could not be told apart.

The module also houses the canonical pairing, the elementary Cartan
operations, the one Leibniz kernel (`leibniz`, which reads an operator's
frame data from a FrameTable its owner builds once), annihilators of
constant subbundles, and the deterministic function battery used by every
identity check.  This module alone knows the battery: its functions and
their texts (Patch.battery), and the labelled sections of a bundle's
battery with their layout (Bundle.battery, a Battery).  Its random
sections (random_sections) are built from polynomials that random_poly
collects by exponents and builds by one constructor call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .linalg import complete_basis, invert, nullspace, rank as mat_rank
from .poly import Rational, ScalarPoly, parse_poly, sum_of_products

TM = "TM"
COTM = "T*M"
VEC = "V"
VEC_DUAL = "V*"

# a view: the nonzero (index, component) pairs of a vector, in index order
Terms = Sequence[Tuple[int, ScalarPoly]]


class BundleError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Patch:
    """A polynomial coordinate patch; coords may be empty (a point).
    Equal only to itself (see the module docstring)."""

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
        return self.bundle((Atom(TM, "", tuple("D" + c for c in self.coords)),))

    @cached_property
    def _cotangent(self) -> "Bundle":
        return self.bundle((Atom(COTM, "", tuple("d" + c for c in self.coords)),))

    @cached_property
    def _bundles(self) -> Dict[Tuple["Atom", ...], "Bundle"]:
        return {}

    def bundle(self, atoms: Tuple["Atom", ...]) -> "Bundle":
        """The one Bundle over this patch with these atoms: every bundle
        constructor asks its patch, so `is` compares bundles."""
        found = self._bundles.get(atoms)
        if found is None:
            found = self._bundles[atoms] = Bundle(self, atoms)
        return found

    @cached_property
    def battery(self) -> Tuple[Tuple[ScalarPoly, str], ...]:
        """The function battery {1, x1, x2, x1*x2, x1^2}, truncated to the
        coordinates there are, each function with its text (see Battery)."""
        functions = [self._one]
        if self.coords:
            x1 = self.coord(self.coords[0])
            functions.append(x1)
            if len(self.coords) >= 2:
                x2 = self.coord(self.coords[1])
                functions += [x2, x1 * x2]
            functions.append(x1 * x1)
        return tuple((phi, str(phi)) for phi in functions)

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
        if self.kind == TM:
            return Atom(COTM, self.name, tuple("d" + f[1:] for f in self.frame))
        if self.kind == COTM:
            return Atom(TM, self.name, tuple("D" + f[1:] for f in self.frame))
        if self.kind == VEC:
            return Atom(VEC_DUAL, self.name, tuple(f + "s" for f in self.frame))
        return Atom(VEC, self.name, tuple(f[:-1] for f in self.frame))

    def label(self) -> str:
        return {TM: "TM", COTM: "T*M"}.get(self.kind, self.name + ("*" if self.kind == VEC_DUAL else ""))


@dataclass(frozen=True, eq=False)
class Bundle:
    """A direct sum of atoms over a patch.

    Immutable once built: the frame names and the rank are computed in
    __post_init__, the dual bundle, the frame sections, the summand slices
    and the zero section on first use, and all are shared by every caller
    afterwards.  Build one through its patch (Patch.bundle, which tangent,
    cotangent, vector, + and dual call), so that each is built once; it
    is equal only to itself.
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
        return base.bundle((Atom(VEC, name, tuple(frame)),))

    def dual(self) -> "Bundle":
        return self._dual

    def __add__(self, other: "Bundle") -> "Bundle":
        if other.patch is not self.patch:
            raise BundleError("direct sum over different patches")
        for atom in other.atoms:
            if atom in self.atoms:
                raise BundleError(f"{self.label()}+{other.label()} repeats the summand "
                                  f"{atom.label()}")
        return self.patch.bundle(self.atoms + other.atoms)

    @property
    def frame(self) -> Tuple[str, ...]:
        return self._frame

    @property
    def rank(self) -> int:
        return self._rank

    def label(self) -> str:
        return "+".join(a.label() for a in self.atoms) if self.atoms else "0"

    def positions(self, summand: "Bundle") -> range:
        """The positions of a summand's frame in this bundle's frame, for
        the tables indexed by frame position (frame_section, symbols, the
        battery frames) and coefficient lists over other patches."""
        where = self._where(summand)
        return range(where.start, where.stop)

    def join(self, *parts: "Section") -> "Section":
        """The inclusion of summand sections: the section of this bundle
        whose component on each part's summand is that part, zero on the
        summands not given, and the shared zero section when nothing
        survives."""
        if len({part.bundle for part in parts}) < len(parts):
            raise BundleError(f"a summand of {self.label()} is given twice")
        coeffs = list(self._zero_section.coeffs)
        for part in parts:
            coeffs[self._where(part.bundle)] = part.coeffs
        return _nonzero(self, tuple(coeffs))

    def _where(self, summand: "Bundle") -> slice:
        where = self._summands.get(summand)
        if where is None:
            raise BundleError(f"{summand.label()} is not a summand of {self.label()}")
        return where

    @cached_property
    def _summands(self) -> Dict["Bundle", slice]:
        """The slice of the frame of each summand, in order, keyed by the
        summand's bundle.  Built on first use: a summand is built through
        the patch, which builds this bundle first."""
        layout, start = {}, 0
        for atom in self.atoms:
            layout[self.patch.bundle((atom,))] = slice(start, start + len(atom.frame))
            start += len(atom.frame)
        return layout

    def zero_section(self) -> "Section":
        return self._zero_section

    def frame_section(self, i: int) -> "Section":
        return self._frame_sections[i]

    def frame_sections(self) -> List["Section"]:
        return list(self._frame_sections)

    @cached_property
    def _dual(self) -> "Bundle":
        return self.patch.bundle(tuple(a.dual() for a in self.atoms))

    @cached_property
    def _zero_section(self) -> "Section":
        return Section(self, (self.patch._zero,) * self._rank)

    @cached_property
    def _frame_sections(self) -> Tuple["Section", ...]:
        zero, one = self.patch._zero, self.patch._one
        return tuple(Section(self, tuple(one if k == i else zero for k in range(self._rank)))
                     for i in range(self._rank))

    @cached_property
    def battery(self) -> "Battery":
        """The frame sections times the battery functions of the patch."""
        functions, texts = zip(*self.patch.battery)
        prefixes = [""] + [f"({text})*" for text in texts[1:]]
        sections = tuple(sec.scale(phi) for sec in self._frame_sections for phi in functions)
        return Battery(tuple(prefix + name for name in self._frame for prefix in prefixes),
                       sections, tuple(range(0, len(sections), len(functions))),
                       functions, texts)

    def section(self, mapping: Dict[str, Union[str, ScalarPoly, Rational]] | None = None,
                **by_name) -> "Section":
        """Build a section from {frame name: coefficient} data."""
        data = dict(mapping or {})
        data.update(by_name)
        coeffs = [self.patch._zero for _ in range(self.rank)]
        frame = self.frame
        for name, value in data.items():
            if name not in frame:
                raise BundleError(f"{name!r} is not a frame name of {self.label()}")
            coeffs[frame.index(name)] = self.patch.poly(value)
        return Section(self, tuple(coeffs))


class Section:
    """An element of Gamma of a trivialized bundle: ScalarPoly coefficients.

    A section is immutable, so its nonzero components are found once: the
    first call of nonzero() scans the coefficients and keeps the (index,
    coefficient) pairs in a slot of the instance, and every section kernel
    (`+`, `-`, `scale`, `is_zero`, the pairings, HomSection.apply, `leibniz`
    and the SubBundle decompositions) iterates that view instead of the
    coefficients.  A battery section f*e_i has one entry in it.  Its hash
    is kept in a slot as well, from the first call of __hash__."""

    __slots__ = ("bundle", "coeffs", "_nonzero", "_hash")  # see nonzero(), __hash__

    def __init__(self, bundle: Bundle, coeffs: Sequence[ScalarPoly]):
        if len(coeffs) != bundle.rank:
            raise BundleError(f"{len(coeffs)} coefficients for rank {bundle.rank}")
        self.bundle = bundle
        self.coeffs = tuple(coeffs)
        self._nonzero = None

    def nonzero(self) -> Terms:
        """The (index, coefficient) pairs of the nonzero coefficients, in
        frame order: computed on the first call, the same tuple afterwards."""
        view = self._nonzero
        if view is None:
            view = self._nonzero = tuple([(k, c) for k, c in enumerate(self.coeffs)
                                          if c._terms])
        return view

    def __add__(self, other: "Section") -> "Section":
        if other.bundle is not self.bundle:
            raise BundleError("sections of different bundles (build both over one Patch): "
                              f"{self.bundle.label()} vs {other.bundle.label()}")
        zero = self.bundle._zero_section
        if other is zero:
            return self
        if self is zero:
            return other
        coeffs = list(self.coeffs)
        for k, b in other.nonzero():
            c = coeffs[k] + b
            coeffs[k] = c if c._terms else self.bundle.patch._zero
        return _nonzero(self.bundle, tuple(coeffs))

    def __sub__(self, other: "Section") -> "Section":
        if other.bundle is not self.bundle:
            raise BundleError("sections of different bundles (build both over one Patch): "
                              f"{self.bundle.label()} vs {other.bundle.label()}")
        zero = self.bundle._zero_section
        if other is zero:
            return self
        if self.coeffs == other.coeffs:  # the operands cancel, as most checked differences do
            return zero
        coeffs = list(self.coeffs)
        for k, b in other.nonzero():
            c = coeffs[k] - b
            coeffs[k] = c if c._terms else self.bundle.patch._zero
        return _nonzero(self.bundle, tuple(coeffs))

    def __neg__(self) -> "Section":
        coeffs = list(self.coeffs)
        for k, a in self.nonzero():
            coeffs[k] = -a
        return _nonzero(self.bundle, tuple(coeffs))

    def scale(self, factor: Union[ScalarPoly, Rational]) -> "Section":
        if not isinstance(factor, ScalarPoly):
            factor = self.bundle.patch.const(factor)
        view = self.nonzero()
        if not factor._terms or not view:
            return self.bundle._zero_section
        coeffs = list(self.coeffs)
        for k, a in view:
            coeffs[k] = factor * a
        return _nonzero(self.bundle, tuple(coeffs))

    def is_zero(self) -> bool:
        return not self.nonzero()

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.coeffs)

    def constant_coeffs(self) -> List[Fraction]:
        return [c.constant_value() for c in self.coeffs]

    def component(self, summand: Bundle) -> "Section":
        """The projection onto a summand, named by the bundle that fills it:
        a section of that bundle, its shared zero section when nothing
        survives."""
        return _nonzero(summand, self.coeffs[self.bundle._where(summand)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return self.bundle is other.bundle and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # the first call, as in ScalarPoly.__hash__
            self._hash = hash((self.bundle, self.coeffs))
            return self._hash

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


def _section(bundle: Bundle, coeffs: Tuple[ScalarPoly, ...]) -> Section:
    """A Section over coeffs, unchecked: the caller guarantees a tuple of
    bundle.rank polynomials, as ring-op results of sections of bundle are."""
    sec = object.__new__(Section)
    sec.bundle = bundle
    sec.coeffs = coeffs
    sec._nonzero = None
    return sec


def _nonzero(bundle: Bundle, coeffs: Tuple[ScalarPoly, ...]) -> Section:
    """_section over coeffs, or the bundle's shared zero section when no
    coefficient survives."""
    for c in coeffs:
        if c._terms:
            return _section(bundle, coeffs)
    return bundle._zero_section


# -- the function battery ------------------------------------------------


class Battery(NamedTuple):
    """Labelled sections s_p and the positions of the frame sections among
    them: the entries that the tensoriality, Leibniz and axiom checks test
    an operator on, since brackets and Dorfman connections are Leibniz
    extensions of frame data.

    The battery of a bundle (Bundle.battery, built once per bundle and
    shared) also keeps the battery functions of its patch (Patch.battery,
    each rendered once per patch) and their texts.  Frame section l times
    function f is entry pos(l, f); function 0 is the constant 1, so entry
    pos(l, 0) is frame section l itself, labelled by its frame name, and
    entry pos(l, f) is labelled "(text)*name" for f > 0.
    """

    labels: Tuple[str, ...]
    sections: Tuple["Section", ...]
    frames: Tuple[int, ...]
    functions: Tuple[ScalarPoly, ...] = ()
    texts: Tuple[str, ...] = ()

    def pos(self, l: int, f: int) -> int:
        """The position of battery function f times frame section l."""
        return l * len(self.functions) + f

    def factors(self, p: int) -> Tuple[int, int]:
        """The frame index l and function index f of entry p: the inverse of pos."""
        return divmod(p, len(self.functions))


class HomSection:
    """A bundle map as a matrix of ScalarPoly (target rank x source rank)."""

    __slots__ = ("source", "target", "matrix", "_columns")  # see apply()

    def __init__(self, source: Bundle, target: Bundle, matrix: Sequence[Sequence[ScalarPoly]]):
        if len(matrix) != target.rank or any(len(row) != source.rank for row in matrix):
            raise BundleError("matrix shape does not match the bundles")
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)

    @staticmethod
    def zero(source: Bundle, target: Bundle) -> "HomSection":
        z = source.patch._zero
        return HomSection(source, target, [[z] * source.rank for _ in range(target.rank)])

    @staticmethod
    def from_columns(source: Bundle, target: Bundle, columns: Sequence[Section]) -> "HomSection":
        """The map sending the j-th source frame element to columns[j] in target."""
        if len(columns) != source.rank:
            raise BundleError("need one image column per source frame element")
        if any(col.bundle is not target for col in columns):
            raise BundleError("image columns must be sections of the target")
        matrix = [[col.coeffs[i] for col in columns] for i in range(target.rank)]
        return HomSection(source, target, matrix)

    def column(self, j: int) -> Section:
        return Section(self.target, tuple(self.matrix[i][j] for i in range(self.target.rank)))

    def apply(self, section: Section) -> Section:
        """column_section over the matrix's column table, kept from the first call."""
        if section.bundle is not self.source:
            raise BundleError("section is not in the source bundle")
        try:
            table = self._columns
        except AttributeError:  # the first call, as in ScalarPoly.gradient
            table = self._columns = column_table(self.matrix, self.source.rank)
        return column_section(self.target, table, section.nonzero())

    def transpose(self) -> "HomSection":
        """The map target* -> source* over the dual frames: <T* a, s> = <a, T s>."""
        return HomSection(self.target.dual(), self.source.dual(),
                          [[row[j] for row in self.matrix] for j in range(self.source.rank)])

    def compose(self, inner: "HomSection") -> "HomSection":
        if inner.target is not self.source:
            raise BundleError("composition shape mismatch")
        cols = [self.apply(inner.column(j)) for j in range(inner.source.rank)]
        return HomSection.from_columns(inner.source, self.target, cols)

    def __add__(self, other: "HomSection") -> "HomSection":
        if other.source is not self.source or other.target is not self.target:
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


# -- fixed matrices: marked rows and column tables -----------------------

# the nonzero (index, entry) of a fixed row or column, in order, an entry 1 as None
Marked = Tuple[Tuple[int, Optional[Union[ScalarPoly, Fraction]]], ...]


def _marked(entries: Sequence[Union[ScalarPoly, Rational]]) -> Marked:
    return tuple([(k, None if e == 1 else e) for k, e in enumerate(entries) if e != 0])


class ColumnTable(NamedTuple):
    """A fixed matrix M: its number of rows, and the Marked column j of M."""

    rows: int
    columns: Tuple[Marked, ...]


def column_table(matrix: Sequence[Sequence[Union[ScalarPoly, Rational]]],
                 width: int) -> ColumnTable:
    """The column table of a matrix with width columns (and possibly no rows)."""
    return ColumnTable(len(matrix), tuple(_marked([row[j] for row in matrix])
                                          for j in range(width)))


def column_apply(table: ColumnTable, terms: Terms, zero: ScalarPoly) -> List[ScalarPoly]:
    """M v, out_r = sum M_rj v_j, for v given by its view over zero's
    variables, the one kernel for a fixed matrix times polynomials: v_j
    itself is added for a marked 1, and a product is formed only for
    another nonzero M_rj.  A vanishing out_r, one that cancels too, is zero."""
    out = [zero] * table.rows
    columns = table.columns
    for j, v in terms:
        for r, entry in columns[j]:
            term = v if entry is None else v * entry
            total = out[r]
            if total is not zero:
                term = total + term
                if not term._terms:
                    term = zero
            out[r] = term
    return out


def column_section(target: Bundle, table: ColumnTable, terms: Terms) -> Section:
    """`column_apply` as a section of target, its shared zero section when
    every component vanishes (at once for an empty view)."""
    if not terms:
        return target._zero_section
    return _nonzero(target, tuple(column_apply(table, terms, target.patch._zero)))


# -- canonical pairing ---------------------------------------------------

def pairing_matrix(left: Bundle, right: Bundle) -> List[List[Fraction]]:
    """Matrix of the canonical pairing: <v, s> = v^T M s over the frames.

    Defined when the summands of right are the duals of the summands of
    left, in any order; each summand pairs with its dual frame by frame.
    """
    if len(right.atoms) != len(left.atoms):
        raise BundleError(f"{right.label()} is not the dual of {left.label()} up to order")
    matrix = [[Fraction(0)] * right.rank for _ in range(left.rank)]
    for summand, where in left._summands.items():
        offset = right._where(summand.dual()).start - where.start
        for k in range(where.start, where.stop):
            matrix[k][offset + k] = Fraction(1)
    return matrix


def pairing_rows(matrix: Sequence[Sequence[ScalarPoly]]) -> Tuple[Marked, ...]:
    """The rows of a pairing matrix P as `matrix_pair` and `leibniz` read
    them: for each left frame index i, the Marked nonzero (j, P_ij)."""
    return tuple(_marked(row) for row in matrix)


def matrix_pair(rows: Sequence[Marked], s1: Section, s2: Section) -> ScalarPoly:
    """sum s1_i s2_j P_ij over the nonzero s1_i (s1's view) and the nonzero
    entries of their rows of P (see pairing_rows); a marked 1 is not
    multiplied."""
    total = None
    c2 = s2.coeffs
    for i, a in s1.nonzero():
        for j, entry in rows[i]:
            b = c2[j]
            if b._terms:
                b = a * b if entry is None else a * b * entry
                total = b if total is None else total + b
    return total if total is not None and total._terms else s1.bundle.patch._zero


def dual_pair(s1: Section, s2: Section) -> ScalarPoly:
    """sum_k s1_k s2_k: the pairing of two sections over mutually dual
    frames, over the nonzero s1_k (s1's view), with a product formed only
    where s2_k is nonzero too."""
    total, b = s1.bundle.patch._zero, s2.coeffs
    for k, x in s1.nonzero():
        y = b[k]
        if y._terms:
            total = total + x * y
    return total


def d_scalar(base: Patch, phi: ScalarPoly) -> Section:
    """The de Rham differential of a function, as a section of T*M."""
    return Section(Bundle.cotangent(base), phi.gradient())


def db_canonical(bundle_b: Bundle, phi: ScalarPoly) -> Section:
    """d_B phi = (0, d phi) for a bundle with a T*M summand."""
    return bundle_b.join(d_scalar(bundle_b.patch, phi))


# -- Leibniz extension of a frame table ----------------------------------

def nonzero_terms(comps: Sequence[ScalarPoly]) -> Terms:
    """The (index, component) pairs of the nonzero components of a list; a
    Section keeps its own (Section.nonzero)."""
    return tuple([(k, c) for k, c in enumerate(comps) if c._terms])


class FrameTable:
    """The frame data of an operator, as `leibniz` reads it: entries[i][j]
    holds the nonzero (k, c) of S_ij = op(e_i, f_j) over the frame f of the
    target, and anchors[i] the nonzero (index, component) pairs of rho_i,
    the anchor image of the i-th frame element of the left operand's
    bundle.  Frame data never changes, so an owner builds its table once,
    on first use, and keeps it; the table holds only polynomials, so the
    owner makes no reference cycle by keeping it."""

    __slots__ = ("entries", "anchors")

    def __init__(self, table: Sequence[Sequence[Section]],
                 frame_rho: Sequence[Sequence[ScalarPoly]]):
        self.entries = tuple(tuple(sec.nonzero() for sec in row) for row in table)
        self.anchors = tuple(nonzero_terms(rho) for rho in frame_rho)


def leibniz(x: Section, y: Section, frame: FrameTable, target: Bundle,
            bracket: bool = False, pair_rows: Sequence[Marked] = (),
            d: Optional[Callable[[ScalarPoly], Section]] = None) -> Section:
    """The operator with frame table S, extended to sections by the Leibniz rules:

        sum over nonzero x_i, y_j of  x_i y_j S_ij + x_i rho_i(y_j) f_j,
        less y_j rho_j(x_i) f_i for a bracket,
        plus y_j P_ij d(x_i) over the nonzero pairing entries P_ij,

    with f the frame of target, S and rho read off frame (see FrameTable)
    and P off pair_rows (see `pairing_rows`; no pairing term when empty).
    The one kernel behind the dull bracket, a Dorfman connection, a
    Courant bracket, a TM-connection and the generator bracket over
    TM + A*.  The nonzero x_i and y_j are the views of x and y
    (Section.nonzero).  rho_i(y_j) and rho_j(x_i) come from vf_apply,
    so each coefficient is differentiated at most once (its gradient is
    kept, see ScalarPoly.gradient); x_i y_j is formed only when S_ij is
    nonzero, rho_i(y_j) only when rho_i is, and d(x_i) is taken once per
    i.  Each output coefficient is one sum: its terms (the S_ij, anchor,
    second anchor and pairing terms above) are collected as (a, b, sign)
    triples and added by one `sum_of_products` call, so no partial sum is
    built.  A vanishing result, such as that of a zero x or y (every term
    has factors x_i and y_j), is target.zero_section() itself, and a
    vanishing coefficient is the patch's zero.
    """
    base = target.patch
    zero = target._zero_section
    if x is x.bundle._zero_section or y is y.bundle._zero_section:
        return zero
    xs, ys = x.nonzero(), y.nonzero()
    sums: Dict[int, List[Tuple[ScalarPoly, ScalarPoly, int]]] = {}
    entries, anchors = frame.entries, frame.anchors
    for i, phi in xs:
        rho_i, row = anchors[i], entries[i]
        for j, psi in ys:
            terms = row[j]
            if terms:
                product = phi * psi
                for k, c in terms:
                    sums.setdefault(k, []).append((product, c, 1))
            if rho_i:
                d_psi = vf_apply(base, rho_i, psi)
                if d_psi._terms:
                    sums.setdefault(j, []).append((phi, d_psi, 1))
            if bracket and anchors[j]:
                d_phi = vf_apply(base, anchors[j], phi)
                if d_phi._terms:
                    sums.setdefault(i, []).append((psi, d_phi, -1))
    if pair_rows:
        y_coeffs = y.coeffs
        for i, phi in xs:
            d_phi = None
            for j, entry in pair_rows[i]:
                psi = y_coeffs[j]
                if not psi._terms:
                    continue
                if d_phi is None:
                    d_phi = d(phi).nonzero()
                factor = psi if entry is None else psi * entry
                for k, c in d_phi:
                    sums.setdefault(k, []).append((factor, c, 1))
    if not sums:
        return zero
    out = list(zero.coeffs)
    for k, terms in sums.items():
        out[k] = sum_of_products(base._zero, terms)
    return _nonzero(target, tuple(out))


# -- Cartan calculus (over the patch the polynomials live on) -------------

def vf_apply(base: Patch, x_terms: Iterable[Tuple[int, ScalarPoly]],
             phi: ScalarPoly) -> ScalarPoly:
    """X(phi) = sum_i X^i d phi / d x_i, the one kernel for a vector field
    acting on a function.

    x_terms gives the components of X as (index, X^i) pairs: the sparse
    anchor rows of a FrameTable, a section's view (Section.nonzero), or
    enumerate(comps) for dense components, whose zeros are skipped.  base
    is the patch phi lives over: its coordinates x_i are the order of
    phi.gradient(), which supplies the partials.  A product is formed only
    where both X^i and d phi / d x_i are nonzero.  A zero phi is returned
    at once, and any other vanishing result is base.zero().
    """
    if not phi._terms:
        return phi
    grad = phi.gradient()
    total = None
    for i, xi in x_terms:
        g = grad[i]
        if xi._terms and g._terms:
            total = xi * g if total is None else total + xi * g
    return total if total is not None and total._terms else base._zero


def vf_apply_each(x_terms: Terms, sec: Section) -> List[ScalarPoly]:
    """[X(s_k)] over the components of sec, for the vector field X with
    these nonzero components: vf_apply runs on the nonzero s_k alone (the
    view of sec), and a zero s_k stays as it is."""
    out = list(sec.coeffs)
    for k, c in sec.nonzero():
        out[k] = vf_apply(sec.bundle.patch, x_terms, c)
    return out


def vf_bracket_comps(base: Patch, x_terms: Terms, y_terms: Terms) -> List[ScalarPoly]:
    """[X, Y]^j = X(Y^j) - Y(X^j) for X and Y given by their views (a
    section's, or FrameTable anchors): vf_apply runs only on
    nonzero components, and a zero X or Y gives the patch's zero in every one."""
    zero = base._zero
    out = [zero] * base.dim
    if x_terms and y_terms:
        for j, c in y_terms:
            out[j] = vf_apply(base, x_terms, c)
        for j, c in x_terms:
            rhs = vf_apply(base, y_terms, c)
            if rhs._terms:
                value = out[j] - rhs
                out[j] = value if value._terms else zero
    return out


def lie_form_comps(base: Patch, x_terms: Terms, theta_terms: Terms) -> List[ScalarPoly]:
    """(L_X theta)_j = X(theta_j) + sum_i theta_i d_j X^i for X and theta
    given by their views, as in vf_bracket_comps."""
    out = [base._zero] * base.dim
    if x_terms:
        for j, t in theta_terms:
            out[j] = vf_apply(base, x_terms, t)
        thetas = dict(theta_terms)
        _add_gradient_terms(out, [(thetas[i], xi.gradient()) for i, xi in x_terms if i in thetas],
                            base._zero)
    return out


def _add_gradient_terms(out: List[ScalarPoly], pairs: Sequence[Tuple[ScalarPoly, Sequence[ScalarPoly]]],
                        zero: ScalarPoly) -> None:
    """out[j] += sum c * grad[j] over the (c, grad) of pairs, in place, and
    a vanishing out[j] becomes zero."""
    for j, value in enumerate(out):
        for c, grad in pairs:
            if grad[j]._terms:
                value = value + c * grad[j]
        out[j] = value if value._terms else zero


def two_form_of_oneform(vars_: Sequence[str], theta: Sequence[ScalarPoly]) -> List[List[ScalarPoly]]:
    """Coefficients W[i][j] = d_i theta_j - d_j theta_i of d(theta)."""
    grad = [t.gradient() for t in theta]
    return [[grad[j][i] - grad[i][j] if grad[i][j]._terms else grad[j][i]
             for j in range(len(vars_))] for i in range(len(vars_))]


def vf_bracket(x: Section, y: Section) -> Section:
    """Lie bracket of vector fields, [X, Y]^j = X^i d_i Y^j - Y^i d_i X^j."""
    base = x.bundle.patch
    tangent = Bundle.tangent(base)
    if x.bundle is not tangent or y.bundle is not tangent:
        raise BundleError("vf_bracket expects two TM sections over one patch")
    return _nonzero(x.bundle, tuple(vf_bracket_comps(base, x.nonzero(), y.nonzero())))


def lie_derivative_form(x: Section, theta: Section) -> Section:
    """Lie derivative of a 1-form along a vector field (Cartan identity holds)."""
    base = x.bundle.patch
    cotangent = Bundle.cotangent(base)
    if theta.bundle is not cotangent:
        raise BundleError("lie_derivative_form expects a T*M section")
    return _nonzero(theta.bundle, tuple(lie_form_comps(base, x.nonzero(), theta.nonzero())))


def courant_dorfman_form_part(x1, theta1, x2, theta2, base: Patch) -> List[ScalarPoly]:
    """The T*M-component L_{X1} theta2 - i_{X2} d theta1 for X1, theta1, X2
    and theta2 given by their views (see vf_bracket_comps), over the patch
    the components live over.

    i_{X2} d theta1 is taken as X2(theta1_j) - sum_i X2^i d_j theta1_i, so
    only a nonzero theta1_i with a nonzero X2^i is differentiated.
    """
    out = lie_form_comps(base, x1, theta2)
    if x2 and theta1:
        for j, t in theta1:
            d_theta = vf_apply(base, x2, t)
            if d_theta._terms:
                out[j] = out[j] - d_theta
        x2s = dict(x2)
        _add_gradient_terms(out, [(x2s[i], t.gradient()) for i, t in theta1 if i in x2s],
                            base._zero)
    return out


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
    zero = partner.patch._zero
    out = []
    for vec in basis:
        out.append(Section(partner, tuple(
            partner.patch.const(v) if v else zero for v in vec)))
    return out


class SubBundle:
    """A constant-coefficient subbundle with canonical complement: the
    constant vectors `complement`, the standard-basis completion of
    `linalg.complete_basis`, which other modules read as constant sections
    of the ambient bundle (`complement_sections`) and through `split`.

    Membership of a polynomial section is decided by projecting onto the
    deterministic rational complement and testing zero.  The constant
    matrices of that projection are built once, here, as column tables,
    and every decomposition of a section applies them through
    `column_apply`.
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
            if sec.bundle is not ambient:
                raise BundleError("subbundle frame is not in one ambient bundle")
            if not sec.is_constant():
                raise BundleError("subbundle frames must have constant coefficients")
            rows.append(sec.constant_coeffs())
        try:
            self.complement = complete_basis(rows, ambient.rank)
        except ValueError as exc:  # a dependent frame
            raise BundleError(str(exc)) from exc
        # frame and complement coordinates, from the inverse of the basis
        # matrix whose columns are the frame and complement vectors, and the
        # residual: the sum of the complement coordinates times those vectors
        columns, r = rows + self.complement, len(rows)
        n = ambient.rank
        inv = invert([[vec[i] for vec in columns] for i in range(n)])
        pieces = list(zip(self.complement, inv[r:]))
        projection = [[sum((vec[i] * row[j] for vec, row in pieces if vec[i]), Fraction(0))
                       for j in range(n)] for i in range(n)]
        self._head, self._rest = column_table(inv[:r], n), column_table(inv[r:], n)
        self._projection = column_table(projection, n)

    @property
    def rank(self) -> int:
        return len(self.sections)

    @cached_property
    def complement_sections(self) -> Tuple[Section, ...]:
        """The complement vectors as constant sections of the ambient bundle."""
        patch = self.ambient.patch
        return tuple(Section(self.ambient, [patch.const(v) if v else patch._zero for v in vec])
                     for vec in self.complement)

    def _view(self, section: Section) -> Terms:
        """The view of an ambient section; a section of another rank is refused."""
        count = section.bundle.rank
        if count != self.ambient.rank:
            raise BundleError(f"{count} coefficients for {self.name} in rank {self.ambient.rank}")
        return section.nonzero()

    def split(self, terms: Terms, zero: ScalarPoly) -> Tuple[List[ScalarPoly], List[ScalarPoly]]:
        """(frame coordinates, complement coordinates) of an ambient vector of
        polynomials over any variable list, given by its view, whose zero is
        given."""
        return column_apply(self._head, terms, zero), column_apply(self._rest, terms, zero)

    def contains(self, section: Section) -> bool:
        rest = column_apply(self._rest, self._view(section), self.ambient.patch._zero)
        return not any(c._terms for c in rest)

    def residual(self, section: Section) -> Section:
        """Component of the section transverse to the span (zero iff member)."""
        return column_section(self.ambient, self._projection, self._view(section))

    def coords(self, section: Section) -> List[ScalarPoly]:
        """Coefficients over the subbundle frame; section must be a member."""
        head, rest = self.split(self._view(section), self.ambient.patch._zero)
        if any(c._terms for c in rest):
            raise BundleError(f"section is not in span of {self.name}")
        return head

    def include(self, coeffs: Sequence[ScalarPoly]) -> Section:
        out = self.ambient._zero_section
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


# -- random sections ------------------------------------------------------

BATTERY_SEED = 7


def random_poly(base: Patch, rng: random.Random, degree: int = 2) -> ScalarPoly:
    """c0 + c1 * m1 + c2 * m2: an integer c0 from -2 to 2, each ck for k > 0
    an integer from -2 to 2 over 1 or 2, and each mk a product of 0 to
    degree coordinates drawn with replacement (1 at a point).  The terms
    are collected by exponents and built by one constructor call."""
    coords = base.coords
    constant = (0,) * len(coords)
    terms: Dict[Tuple[int, ...], Rational] = {constant: rng.randint(-2, 2)}
    for _ in range(2):
        coeff = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        exps = list(constant)
        for _ in range(rng.randint(0, degree)):
            if coords:
                exps[coords.index(rng.choice(coords))] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return ScalarPoly(coords, terms)


def random_sections(bundle: Bundle, count: int, rng: random.Random,
                    degree: int = 2) -> List[Section]:
    out = []
    for _ in range(count):
        out.append(Section(bundle, tuple(random_poly(bundle.patch, rng, degree)
                                         for _ in range(bundle.rank))))
    return out
