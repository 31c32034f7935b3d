"""Exact multivariate polynomial arithmetic over the rationals.

ScalarPoly is the function ring of every coordinate patch in this package:
polynomials in the declared variables with rational coefficients, kept in
normal form (no zero terms).  All geometry modules reduce their identities
to equality of ScalarPoly normal forms, so there is no floating point
anywhere.

A coefficient is stored as an ``int`` when it is integral and as a
``Fraction`` otherwise, because nearly every coefficient is an integer and
``int`` arithmetic is much cheaper.  The validating constructor, ``const``,
``var``, ``/`` and the parser store integral values as ``int``; a ring
operation may leave an integral ``Fraction`` (for example 1/2 * 2), which
is harmless because ``==``, ``hash`` and printing treat both types alike.
The public views hand out ``Fraction``: ``terms`` returns a copy with
``Fraction`` values and ``constant_value`` returns a ``Fraction``.

Validation happens at the boundary only.  The public constructor
``ScalarPoly(vars, terms)``, ``const``, ``var`` and ``parse_poly`` check
exponent widths, signs and coefficient types.  The ring operations (``+``,
``-``, ``*``, ``**``, ``partial``, ``extend``) assume their operands are in
normal form and build their results through ``_normal`` without checking
them again; a zero operand returns at once, possibly as the other operand
itself, which is safe because polynomials are never mutated (``terms``
hands out a copy).  For the same reason ``bundle.Patch`` shares one zero
and one unit polynomial per patch, and every vector field acting on a
polynomial goes through the single kernel ``bundle.vf_apply``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Tuple, Union

Exponents = Tuple[int, ...]
Rational = Union[int, Fraction]


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


def _as_coeff(value: Rational) -> Rational:
    """The stored form of a coefficient: int when integral, else Fraction."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise PolyError(f"not an exact rational: {value!r}")


class ScalarPoly:
    """A multivariate polynomial over Q in a fixed ordered variable list.

    Terms are stored as a map from exponent tuples to nonzero rationals
    (int or Fraction, see the module docstring).
    Instances are immutable by convention; every operation returns a
    normal-form polynomial, which may be one of its operands when the other
    is zero.
    """

    __slots__ = ("vars", "_terms")

    def __init__(self, vars: Iterable[str], terms: Dict[Exponents, Rational] | None = None):
        self.vars: Tuple[str, ...] = tuple(vars)
        clean: Dict[Exponents, Rational] = {}
        if terms:
            width = len(self.vars)
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise PolyError(f"exponent tuple {exps} does not match {width} variables")
                if any(e < 0 for e in exps):
                    raise PolyError(f"negative exponent in {exps}")
                value = _as_coeff(coeff)
                if value != 0:
                    clean[tuple(exps)] = value
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Iterable[str]) -> "ScalarPoly":
        return _normal(tuple(vars), {})

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
        return {exps: Fraction(coeff) for exps, coeff in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self._terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PolyError(f"not a constant polynomial: {self}")
        return Fraction(self._terms.get((0,) * len(self.vars), 0))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(exps) for exps in self._terms)

    def uses(self, name: str) -> bool:
        i = self._index(name)
        return any(exps[i] > 0 for exps in self._terms)

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise UnknownVariableError(name, 0) from None

    # -- ring operations ----------------------------------------------

    def _coerce(self, other: Union["ScalarPoly", Rational]) -> "ScalarPoly":
        if isinstance(other, ScalarPoly):
            if other.vars is not self.vars and other.vars != self.vars:
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
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            total = terms.get(exps)
            if total is None:
                terms[exps] = coeff
            else:
                total += coeff
                if total:
                    terms[exps] = total
                else:
                    del terms[exps]
        return _normal(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "ScalarPoly":
        return _normal(self.vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: Union["ScalarPoly", Rational]) -> "ScalarPoly":
        if type(other) is not ScalarPoly or other.vars is not self.vars:
            other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other: Rational) -> "ScalarPoly":
        return self._coerce(other) - self

    def __mul__(self, other: Union["ScalarPoly", Rational]) -> "ScalarPoly":
        if type(other) is not ScalarPoly or other.vars is not self.vars:
            other = self._coerce(other)
        if not self._terms:
            return self
        if not other._terms:
            return other
        terms: Dict[Exponents, Rational] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(map(add, e1, e2))
                total = terms.get(key)
                terms[key] = c1 * c2 if total is None else total + c1 * c2
        if len(terms) != len(self._terms) * len(other._terms):
            # two products shared a monomial, so a sum may have cancelled
            terms = {e: c for e, c in terms.items() if c}
        return _normal(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ScalarPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolyError(f"exponent must be a nonnegative integer: {exponent!r}")
        result = ScalarPoly.one(self.vars)
        for _ in range(exponent):
            result = result * self
        return result

    def __truediv__(self, other: Rational) -> "ScalarPoly":
        divisor = _as_coeff(other)
        if divisor == 0:
            raise PolyError("division by zero")
        return _normal(self.vars, {e: _as_coeff(Fraction(c, divisor))
                                   for e, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ScalarPoly.const(self.vars, other)
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self._terms.items())))

    # -- calculus -----------------------------------------------------

    def partial(self, name: str) -> "ScalarPoly":
        """Formal partial derivative with respect to one variable."""
        i = self._index(name)
        terms: Dict[Exponents, Rational] = {}
        for exps, coeff in self._terms.items():
            e = exps[i]
            if e:
                # lowering one exponent is injective, so no two terms merge
                terms[exps[:i] + (e - 1,) + exps[i + 1:]] = coeff * e
        return _normal(self.vars, terms)

    def extend(self, new_vars: Iterable[str]) -> "ScalarPoly":
        """Reinterpret the polynomial over a larger variable list.

        Every variable of self must occur in new_vars; exponents move to
        the matching positions.
        """
        new_vars = tuple(new_vars)
        positions = []
        for name in self.vars:
            if name not in new_vars:
                raise UnknownVariableError(name, 0)
            positions.append(new_vars.index(name))
        terms: Dict[Exponents, Rational] = {}
        for exps, coeff in self._terms.items():
            widened = [0] * len(new_vars)
            for pos, e in zip(positions, exps):
                widened[pos] = e
            terms[tuple(widened)] = coeff
        return _normal(new_vars, terms)

    # -- printing -----------------------------------------------------

    def _sorted_terms(self):
        # graded-lexicographic, leading term first
        return sorted(self._terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = _fraction_str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = _fraction_str(abs(coeff)) + "*" + "*".join(factors)
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


def _normal(vars: Tuple[str, ...], terms: Dict[Exponents, Rational]) -> ScalarPoly:
    """A ScalarPoly over terms already in normal form, unchecked.

    The caller guarantees what the public constructor would check: every
    exponent tuple has len(vars) nonnegative entries and every coefficient
    is a nonzero int or Fraction.
    """
    poly = object.__new__(ScalarPoly)
    poly.vars = vars
    poly._terms = terms
    return poly


def _fraction_str(value: Rational) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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
# literal; dividing by anything else is rejected.


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
            self.take()
            return -self.parse_atom()
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
        return int(self.text[start:self.pos])

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
    """Parse text into a normal-form polynomial over the given variables."""
    return _Parser(text, tuple(vars)).parse()
