"""Exact multivariate polynomial arithmetic over the rationals.

ScalarPoly is the function ring of every coordinate patch in this package:
polynomials in the declared variables with rational coefficients, kept in
normal form (no zero terms).  All geometry modules reduce their identities
to equality of ScalarPoly normal forms, so there is no floating point
anywhere.

A polynomial is stored as ``int`` numerators over one positive ``int``
denominator, in lowest terms: the coefficient of a monomial is
``_terms[key] / _den``, every stored numerator is nonzero,
``gcd(_den, *numerators) == 1``, and the zero polynomial has ``_den == 1``.
So a polynomial has exactly one stored form, and ``==`` and ``hash``
compare it directly.  Nearly every polynomial here has ``_den == 1``, and
then the ring operations are the plain ``int`` loops; the one ``math.gcd``
reduction of a result runs only when its denominator is not 1.  This is
the layout of computer-algebra systems that keep exactness without a
rational number per term (an integer polynomial times one rational
content).  ``poly * c`` and ``poly / c`` for an ``int`` or ``Fraction`` c
scale the numerators and the denominator directly, so a rational constant
never becomes a polynomial on the way.

A monomial key is one ``int`` packing the exponent vector, a field of
``FIELD_BITS`` (16) bits per variable with the first variable in the most
significant field, so the order of keys is the lexicographic order of the
exponent tuples.  Every stored exponent is below ``EXPONENT_LIMIT``
(2^15 = 32768), which leaves the top bit of each field clear as a guard:
the product of two monomials adds their keys without a carry between
fields, and a sum that reaches the limit in some field sets that field's
guard bit.  Overflow is refused, never wrapped: the public constructor,
``**`` and so the parser's ``^`` raise ``PolyError`` for an exponent at or
above the limit, and a product raises it when a result key sets a guard
bit; the guard mask of each width up to 63 is formed once, at import.
``gradient`` lowers one field by subtracting its unit.  ``extend``
to a variable list that starts with the old one (the layout of a total
space: base variables, then fiber variables) shifts each key left by one
field per added variable; it refuses any other list.  A product with the
constant 1 returns the other operand, as a product with 0 returns the
zero operand, unary ``-`` returns a zero operand itself, and a product of
one term by one term is a single key addition (over denominator 1, the
common case, built by ``_normal`` at once).
The public views hand out exponent tuples and ``Fraction``: ``terms``
returns a copy keyed by exponent tuples with ``Fraction`` values and
``constant_value`` returns a ``Fraction``.  No module but this one reads
``_den``, the keys or the values of ``_terms``.

Validation happens at the boundary only.  The public constructor
``ScalarPoly(vars, terms)``, ``const``, ``var`` and ``parse_poly`` check
exponent widths, types and ranges and coefficient types.  The ring operations (``+``,
``-``, ``*``, ``/``, ``**``, ``partial``, ``extend``) assume their operands
are in normal form and build their results through ``_normal`` without
checking them again; a zero operand returns at once, possibly as the other
operand itself, and so does the constant 1 in a product, which is safe
because polynomials are never mutated (``terms`` hands out a copy).  For the same reason ``bundle.Patch`` shares
one zero and one unit polynomial per patch, and every vector field acting
on a polynomial goes through the single kernel ``bundle.vf_apply``.  A
difference of two operands with equal terms over one denominator, the
vanishing difference every checked identity ends in, returns the one
``ScalarPoly.zero(vars)`` at once, as any cancelling sum does; the
variable check comes first.
``==`` tests for a ``ScalarPoly`` operand before an ``int`` or
``Fraction`` one, since comparing two sections' coefficient tuples calls
it once per coefficient.

The gradient and the hash are the only state an instance fills in after
it is built: each is computed on first use and kept in a ``__slots__``
entry of that instance (never in a module- or class-level cache).
``partial`` reads the gradient, and the value tables of ``laops``, keyed by
coefficient tuples, read the hash.  That is safe for the same reason: a
polynomial is never mutated, so neither goes stale.  ``**`` squares
repeatedly.
The kernels of ``bundle`` test a polynomial for zero by reading its term
dict (``not p._terms``) rather than calling ``is_zero()``, which in their
loops costs a method call per coefficient.

A sum of many products is one call: ``sum_of_products(zero, terms)``
adds sign * a * b over (a, b, sign) triples of nonzero polynomials into
one ``int``-keyed dict over the lcm of the products' denominators and
normalizes once, where a chain of ``+`` would copy the growing sum at
every step (the geobucket idea of computer-algebra systems, with one
bucket).  Its guard rule is that of a product: every key it forms is
checked against the guard bits before zero coefficients are dropped, so
an overflowing product raises ``PolyError`` even where its coefficient
cancels.  When everything cancels it returns the ``zero`` it was given,
the caller's shared zero (``bundle.leibniz`` passes its patch's), and a
single pair is the plain product ``a * b``, with the fast paths above.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Dict, Iterable, List, Sequence, Tuple, Union

Exponents = Tuple[int, ...]
Rational = Union[int, Fraction]

FIELD_BITS = 16  # bits of a monomial key per variable, its top bit the guard
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)  # every exponent is below it
_FIELD = (1 << FIELD_BITS) - 1


class PolyError(ValueError):
    pass


class PolySyntaxError(PolyError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolyError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable '{name}' (at position {position})")
        self.name = name
        self.position = position


class VariableMismatchError(PolyError):
    pass


def _shifts(width: int) -> range:
    """The bit offset of each variable's field in a key, first variable first."""
    return range(FIELD_BITS * (width - 1), -1, -FIELD_BITS)


def _pack(exps: Exponents) -> int:
    key = 0
    for e in exps:
        key = key << FIELD_BITS | e
    return key


def _unpack(key: int, width: int) -> Exponents:
    return tuple(key >> shift & _FIELD for shift in _shifts(width))


def _guards(width: int) -> int:
    """The guard bit of every field of a key over width variables."""
    return (1 << FIELD_BITS * width) // _FIELD << (FIELD_BITS - 1)


# _guards of every width below _TABLED, formed once at import: every product
# reads its mask here, and only a key over more variables forms its own
_TABLED = 64
_GUARDS = tuple(_guards(width) for width in range(_TABLED))
_ZEROS: Dict[Tuple[str, ...], "ScalarPoly"] = {}  # ScalarPoly.zero, one per vars tuple value


def _overflow(key: int, width: int) -> PolyError:
    return PolyError(f"exponent overflow: a product has the exponents {_unpack(key, width)}, "
                     f"and every exponent must be below {EXPONENT_LIMIT}")


def _ratio(value: Rational) -> Tuple[int, int]:
    """(numerator, denominator) of an exact rational, in lowest terms."""
    if isinstance(value, (int, Fraction)):
        return int(value.numerator), int(value.denominator)
    raise PolyError(f"not an exact rational: {value!r}")


class ScalarPoly:
    """A multivariate polynomial over Q in a fixed ordered variable list.

    Terms are stored as a map from packed exponent keys to nonzero int
    numerators over the common denominator _den (see the module docstring).
    Instances are immutable by convention; every operation returns a
    normal-form polynomial, which may be one of its operands when the other
    is zero.
    """

    __slots__ = ("vars", "_terms", "_den", "_gradient", "_hash")  # see gradient(), __hash__

    def __init__(self, vars: Iterable[str], terms: Dict[Exponents, Rational] | None = None):
        self.vars: Tuple[str, ...] = tuple(vars)
        ratios: Dict[int, Tuple[int, int]] = {}
        if terms:
            width = len(self.vars)
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise PolyError(f"exponent tuple {exps} does not match {width} variables")
                if not all(isinstance(e, int) and 0 <= e < EXPONENT_LIMIT for e in exps):
                    raise PolyError(f"exponents {exps} are not integers from 0 "
                                    f"to {EXPONENT_LIMIT - 1}")
                num, den = _ratio(coeff)
                if num:
                    ratios[_pack(exps)] = num, den
        # over the lcm of lowest-terms denominators, the numerators share no
        # factor with it: each prime power of the lcm divides some denominator
        # whose numerator is prime to it
        den = lcm(*(d for _, d in ratios.values())) if ratios else 1
        self._terms = {key: num * (den // d) for key, (num, d) in ratios.items()}
        self._den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "ScalarPoly":
        vars = tuple(vars)
        zero = _ZEROS.get(vars)
        if zero is None or zero.vars is not vars:  # rebuilt over an equal tuple of another object
            zero = _ZEROS[vars] = _normal(vars, {}, 1)
        return zero

    @classmethod
    def const(cls, vars: Iterable[str], value: Rational) -> "ScalarPoly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def one(cls, vars: Iterable[str]) -> "ScalarPoly":
        return cls.const(vars, 1)

    @classmethod
    def var(cls, vars: Iterable[str], name: str) -> "ScalarPoly":
        vars = tuple(vars)
        if name not in vars:
            raise UnknownVariableError(name, 0)
        exps = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exps: 1})

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> Dict[Exponents, Fraction]:
        den, width = self._den, len(self.vars)
        return {_unpack(key, width): Fraction(num, den) for key, num in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(self._terms)  # the constant monomial is the one key 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolyError(f"not a constant polynomial: {self}")
        return Fraction(self._terms.get(0, 0), self._den)

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariableError(name, 0) from None

    # -- ring operations ----------------------------------------------

    def _coerce(self, other: Union["ScalarPoly", Rational]) -> "ScalarPoly":
        if isinstance(other, ScalarPoly):
            if other.vars != self.vars:
                raise VariableMismatchError(
                    f"variable lists differ: {self.vars} vs {other.vars}")
            return other
        return ScalarPoly.const(self.vars, other)

    def __add__(self, other: Union["ScalarPoly", Rational]) -> "ScalarPoly":
        if type(other) is not ScalarPoly or other.vars is not self.vars:
            other = self._coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        den = self._den
        if den == other._den:
            terms, rhs = dict(self._terms), other._terms
        else:
            terms, rhs, den = _over_common_den(self, other)
        for exps, coeff in rhs.items():
            total = terms.get(exps)
            if total is None:
                terms[exps] = coeff
            else:
                total += coeff
                if total:
                    terms[exps] = total
                else:
                    del terms[exps]
        return _reduced(self.vars, terms, den) if terms else ScalarPoly.zero(self.vars)

    __radd__ = __add__

    def __neg__(self) -> "ScalarPoly":
        if not self._terms:
            return self
        return _normal(self.vars, {e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other: Union["ScalarPoly", Rational]) -> "ScalarPoly":
        if type(other) is not ScalarPoly or other.vars is not self.vars:
            other = self._coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return -other
        den = self._den
        if den == other._den:
            if self._terms == other._terms:  # the operands cancel
                return ScalarPoly.zero(self.vars)
            terms, rhs = dict(self._terms), other._terms
        else:
            terms, rhs, den = _over_common_den(self, other)
        for exps, coeff in rhs.items():
            total = terms.get(exps)
            if total is None:
                terms[exps] = -coeff
            else:
                total -= coeff
                if total:
                    terms[exps] = total
                else:
                    del terms[exps]
        return _reduced(self.vars, terms, den) if terms else ScalarPoly.zero(self.vars)

    def __rsub__(self, other: Rational) -> "ScalarPoly":
        return self._coerce(other) - self

    def __mul__(self, other: Union["ScalarPoly", Rational]) -> "ScalarPoly":
        if type(other) is not ScalarPoly:
            return self._scaled(*_ratio(other))
        if other.vars is not self.vars:
            other = self._coerce(other)
        lhs, rhs = self._terms, other._terms
        if not lhs:
            return self
        if not rhs:
            return other
        # the constant 1 is the single key 0 with numerator 1 over 1
        if len(lhs) == 1 and self._den == 1 and lhs.get(0) == 1:
            return other
        if len(rhs) == 1 and other._den == 1 and rhs.get(0) == 1:
            return self
        width = len(self.vars)
        guards = _GUARDS[width] if width < _TABLED else _guards(width)
        den = self._den * other._den
        if len(lhs) == 1 and len(rhs) == 1:
            [(k1, c1)], [(k2, c2)] = lhs.items(), rhs.items()
            key = k1 + k2
            if key & guards:
                raise _overflow(key, width)
            if den == 1:  # nearly every product of two monomials: nothing to reduce
                return _normal(self.vars, {key: c1 * c2}, 1)
            return _reduced(self.vars, {key: c1 * c2}, den)
        terms: Dict[int, int] = {}
        for k1, c1 in lhs.items():
            for k2, c2 in rhs.items():
                key = k1 + k2
                total = terms.get(key)
                terms[key] = c1 * c2 if total is None else total + c1 * c2
        if reduce(or_, terms) & guards:
            raise _overflow(next(key for key in terms if key & guards), width)
        if len(terms) != len(lhs) * len(rhs):
            # two products shared a monomial, so a sum may have cancelled
            terms = {key: c for key, c in terms.items() if c}
        return _reduced(self.vars, terms, den)

    __rmul__ = __mul__

    def _scaled(self, num: int, den: int) -> "ScalarPoly":
        """self * num / den for den > 0, by scaling numerators and denominator."""
        if not num:
            return _normal(self.vars, {}, 1)
        if not self._terms or (num == 1 and den == 1):
            return self
        terms = {e: c * num for e, c in self._terms.items()}
        den *= self._den
        return _reduced(self.vars, terms, den)

    def __pow__(self, exponent: int) -> "ScalarPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolyError(f"exponent must be a nonnegative integer: {exponent!r}")
        if exponent >= EXPONENT_LIMIT:
            raise PolyError(f"exponent {exponent} is not below {EXPONENT_LIMIT}")
        if exponent < 2:
            return self if exponent else ScalarPoly.one(self.vars)
        half = self ** (exponent // 2)  # repeated squaring
        return half * half * self if exponent & 1 else half * half

    def __truediv__(self, other: Rational) -> "ScalarPoly":
        num, den = _ratio(other)
        if num == 0:
            raise PolyError("division by zero")
        return self._scaled(den, num) if num > 0 else self._scaled(-den, -num)

    def __eq__(self, other: object) -> bool:
        if type(other) is not ScalarPoly:  # tested first: a tuple compare of coefficients
            if type(other) is int:  # compared in place: an int is the key 0 over 1
                return self._den == 1 and self._terms == ({0: other} if other else {})
            if isinstance(other, (int, Fraction)):
                other = ScalarPoly.const(self.vars, other)
            elif not isinstance(other, ScalarPoly):
                return NotImplemented
        return (self.vars == other.vars and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # the first call, as in gradient()
            self._hash = hash((self.vars, self._den, frozenset(self._terms.items())))
            return self._hash

    # -- calculus -----------------------------------------------------

    def gradient(self) -> Tuple["ScalarPoly", ...]:
        """All first partial derivatives, in the order of self.vars.

        Computed in one pass over the terms on the first call and kept in
        this instance, so every later call returns the same tuple; the zero
        partials share one zero polynomial.
        """
        try:
            return self._gradient
        except AttributeError:  # not filled yet
            pass
        parts: List[Dict[int, int]] = [{} for _ in self.vars]
        fields = [(part, shift, 1 << shift) for part, shift in zip(parts, _shifts(len(parts)))]
        for key, coeff in self._terms.items():
            for part, shift, unit in fields:
                e = key >> shift & _FIELD
                if e:
                    # lowering one exponent is injective, so no two terms merge
                    part[key - unit] = coeff * e
        vars, den = self.vars, self._den
        zero = _normal(vars, {}, 1)
        self._gradient = tuple(_reduced(vars, terms, den) if terms else zero for terms in parts)
        return self._gradient

    def partial(self, name: str) -> "ScalarPoly":
        """Formal partial derivative with respect to one variable."""
        return self.gradient()[self._index(name)]

    def extend(self, new_vars: Iterable[str]) -> "ScalarPoly":
        """Reinterpret the polynomial over a longer variable list that starts
        with self.vars, the layout of a total space (base variables, then
        fiber variables): each key moves by one shift, its fields keep their
        order and the new variables' fields, all zero, come after them.  A
        list without some variable of self, or with them in another order,
        is refused."""
        new_vars = tuple(new_vars)
        width = len(self.vars)
        if new_vars[:width] != self.vars:
            for name in self.vars:
                if name not in new_vars:
                    raise UnknownVariableError(name, 0)
            raise VariableMismatchError(
                f"extend keeps the variables {self.vars} first, in order: got {new_vars}")
        shift = FIELD_BITS * (len(new_vars) - width)
        return _normal(new_vars, {key << shift: c for key, c in self._terms.items()}, self._den)

    # -- printing -----------------------------------------------------

    def _sorted_terms(self) -> List[Tuple[Exponents, int, int]]:
        # graded-lexicographic, leading term first: by degree, then by key,
        # whose order is the lexicographic order of the exponents
        width = len(self.vars)
        rows = [(_unpack(key, width), key, coeff) for key, coeff in self._terms.items()]
        rows.sort(key=lambda row: (-sum(row[0]), -row[1]))
        return rows

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        den = self._den
        pieces = []
        for exps, _, coeff in self._sorted_terms():
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = _ratio_str(abs(coeff), den)
            elif abs(coeff) == den:
                body = "*".join(factors)
            else:
                body = _ratio_str(abs(coeff), den) + "*" + "*".join(factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        if sign == "-" and "^" in body.split("*", 1)[0]:
            # '-x^2' would reparse as (-x)^2; force an explicit coefficient
            body = "1*" + body
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"ScalarPoly({self})"


def _normal(vars: Tuple[str, ...], terms: Dict[int, int], den: int) -> ScalarPoly:
    """A ScalarPoly over terms already in normal form, unchecked.

    The caller guarantees what the public constructor would establish:
    every key packs len(vars) exponents below EXPONENT_LIMIT, every numerator
    is a nonzero int, den is a positive int prime to all of them, and den
    is 1 when terms is empty.
    """
    poly = object.__new__(ScalarPoly)
    poly.vars = vars
    poly._terms = terms
    poly._den = den
    return poly


def _reduced(vars: Tuple[str, ...], terms: Dict[int, int], den: int) -> ScalarPoly:
    """_normal after dividing out the gcd of den and the numerators, the one
    reduction, which runs only when den is not 1 (an empty terms gives the
    gcd den, so zero comes out over 1)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: c // g for e, c in terms.items()}
    return _normal(vars, terms, den)


def sum_of_products(zero: ScalarPoly, terms: Sequence[Tuple[ScalarPoly, ScalarPoly, int]]
                    ) -> ScalarPoly:
    """sum of sign * a * b over the (a, b, sign) of terms, sign +1 or -1 and
    a, b nonzero polynomials over zero's variables.

    Every product is added into one dict over the lcm of the products'
    denominators, and the sum is normalized once.  Every key formed is
    checked against the guard bits before zero coefficients are dropped,
    so an overflowing product raises PolyError even where its coefficient
    cancels.  When everything cancels the result is zero itself.  A single
    pair is the plain product a * b, with the fast paths of `*`.
    """
    if len(terms) == 1:
        [(a, b, sign)] = terms
        product = a * b
        return product if sign > 0 else -product
    vars = zero.vars
    den = 1
    for a, b, _ in terms:
        for operand in (a, b):
            if operand.vars is not vars:
                zero._coerce(operand)  # a VariableMismatchError unless equal
        if a._den != 1 or b._den != 1:
            den = lcm(den, a._den * b._den)
    acc: Dict[int, int] = {}
    get = acc.get
    for a, b, sign in terms:
        scale = sign if den == 1 else sign * (den // (a._den * b._den))
        rhs = b._terms.items()
        for k1, c1 in a._terms.items():
            c1 *= scale
            for k2, c2 in rhs:
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
    width = len(vars)
    guards = _GUARDS[width] if width < _TABLED else _guards(width)
    if reduce(or_, acc) & guards:
        raise _overflow(next(key for key in acc if key & guards), width)
    total = {key: c for key, c in acc.items() if c}
    return _reduced(vars, total, den) if total else zero


def _over_common_den(a: ScalarPoly, b: ScalarPoly
                     ) -> Tuple[Dict[int, int], Dict[int, int], int]:
    """The numerators of a (a fresh dict) and of b over the lcm of their
    denominators, and that lcm."""
    g = gcd(a._den, b._den)
    to_a, to_b = b._den // g, a._den // g
    return ({e: c * to_a for e, c in a._terms.items()},
            {e: c * to_b for e, c in b._terms.items()}, a._den * to_a)


def _ratio_str(num: int, den: int) -> str:
    """num / den in lowest terms, as printed: 'n' or 'n/d'."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


# -- parser -----------------------------------------------------------
#
# poly     := term (('+'|'-') term)*
# term     := factor ('*' factor)*
# factor   := atom ('^' uint)?
# atom     := rational | ident | '(' poly ')' | '-' atom
# rational := int ('/' uint)?
# ident    := letter (letter|digit)*
#
# Whitespace is insignificant.  '/' is only legal inside a rational
# literal; dividing by anything else is rejected.  A negated atom takes
# no '^': the grammar would read -x1^2 as (-x1)^2, so it is refused.


class _Parser:
    def __init__(self, text: str, vars: Tuple[str, ...]):
        self.text = text
        self.vars = vars
        self.pos = 0

    def error(self, message: str) -> PolySyntaxError:
        return PolySyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> ScalarPoly:
        result = self.parse_poly()
        if self.peek():
            raise self.error(f"unexpected character {self.peek()!r}")
        return result

    def parse_poly(self) -> ScalarPoly:
        result = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                result = result + self.parse_term()
            elif ch == "-":
                self.take()
                result = result - self.parse_term()
            else:
                return result

    def parse_term(self) -> ScalarPoly:
        result = self.parse_factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                result = result * self.parse_factor()
            elif ch == "/":
                raise self.error("division is only allowed inside a rational constant")
            else:
                return result

    def parse_factor(self) -> ScalarPoly:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.take()
            return atom ** self.parse_uint()
        return atom

    def parse_atom(self) -> ScalarPoly:
        ch = self.peek()
        if ch == "-":
            start = self.pos
            self.take()
            atom = self.parse_atom()
            if self.peek() == "^":  # the grammar would read -x^2 as (-x)^2
                base = self.text[start + 1:self.pos].strip()
                self.take()
                e = self.parse_uint()
                raise PolySyntaxError(f"-{base}^{e} is ambiguous: write -({base}^{e}) or (-{base})^{e}", start)
            return -atom
        if ch == "(":
            self.take()
            inner = self.parse_poly()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            return inner
        if ch.isdigit():
            return self.parse_rational()
        if ch.isalpha():
            return self.parse_ident()
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected character {ch!r}")

    def parse_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an unsigned integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            raise PolySyntaxError("integer literal too long", start) from None

    def parse_rational(self) -> ScalarPoly:
        numerator = self.parse_uint()
        if self.peek() == "/":
            self.take()
            denominator = self.parse_uint()
            if denominator == 0:
                raise self.error("division by zero")
            return ScalarPoly.const(self.vars, Fraction(numerator, denominator))
        return ScalarPoly.const(self.vars, numerator)

    def parse_ident(self) -> ScalarPoly:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start:self.pos]
        if name not in self.vars:
            raise UnknownVariableError(name, start)
        return ScalarPoly.var(self.vars, name)


def parse_poly(text: str, vars: Iterable[str]) -> ScalarPoly:
    """Parse text into a normal-form polynomial over the given variables,
    which must be distinct: a name given twice would be read as its first
    occurrence."""
    vars = tuple(vars)
    for i, name in enumerate(vars):
        if name in vars[:i]:
            raise PolyError(f"{name!r} is named twice among the variables {', '.join(vars)}")
    return _Parser(text, vars).parse()
