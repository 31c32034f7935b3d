"""Differential oracle: ScalarPoly arithmetic against sympy.

The ring operations build their results without re-validating them, so
every result here is also checked for the normal form the unchecked
constructor relies on: exponent tuples of the right width, nonzero int
numerators over one positive int denominator in lowest terms (a zero
polynomial over 1), and a `terms` view that is a copy with Fraction
values.
Inputs are biased toward cancellation and zero operands, the cases the
fast paths short-circuit.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from courant_lab.poly import ScalarPoly, parse_poly

sympy = pytest.importorskip("sympy")

VARS = ("x", "y", "z")
WIDE = ("w", "z", "x", "y")
SYMBOLS = {name: sympy.Symbol(name) for name in VARS + WIDE}

exponents = st.tuples(*[st.integers(0, 2)] * len(VARS))
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)
raw_terms = st.dictionaries(exponents, coefficients, max_size=4)


@st.composite
def operand_pairs(draw):
    """Two polynomials that are often zero or cancel each other in part."""
    first = draw(raw_terms)
    mode = draw(st.sampled_from(["independent", "negated", "sign-flips", "partial-cancel",
                                 "zero"]))
    if mode == "negated":
        second = {e: -c for e, c in first.items()}
    elif mode == "sign-flips":
        second = {e: c if draw(st.booleans()) else -c for e, c in first.items()}
    elif mode == "partial-cancel":
        second = draw(raw_terms)
        second.update({e: -c for e, c in first.items() if draw(st.booleans())})
    elif mode == "zero":
        second = {}
    else:
        second = draw(raw_terms)
    a, b = ScalarPoly(VARS, first), ScalarPoly(VARS, second)
    return (b, a) if draw(st.booleans()) else (a, b)


def to_sympy(poly):
    total = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for name, e in zip(poly.vars, exps):
            term *= SYMBOLS[name] ** e
        total += term
    return total


def expected_terms(expr, vars_):
    gens = [SYMBOLS[name] for name in vars_]
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *gens).as_dict().items() if c != 0}


def assert_normal(poly, vars_=VARS):
    assert poly.vars == vars_
    nums = list(poly._terms.values())
    assert type(poly._den) is int and poly._den > 0
    assert all(type(c) is int and c != 0 for c in nums)
    # lowest terms, so every polynomial has one stored form; zero is over 1
    assert gcd(poly._den, *nums) == 1
    terms = poly.terms
    for exps, coeff in terms.items():
        assert len(exps) == len(vars_)
        assert all(isinstance(e, int) and e >= 0 for e in exps)
        assert isinstance(coeff, Fraction) and coeff != 0
    # terms hands out a copy: writing to it leaves the polynomial as it was
    terms[(7,) * len(vars_)] = Fraction(5)
    assert (7,) * len(vars_) not in poly.terms


def assert_matches(poly, expr, vars_=VARS):
    assert_normal(poly, vars_)
    assert poly.terms == expected_terms(expr, vars_)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operand_pairs())
def test_ring_operations_match_sympy(pair):
    a, b = pair
    before_a, before_b = a.terms, b.terms
    sa, sb = to_sympy(a), to_sympy(b)
    assert_matches(a + b, sa + sb)
    assert_matches(a - b, sa - sb)
    assert_matches(-a, -sa)
    assert_matches(a * b, sympy.expand(sa * sb))
    assert (a - b).is_zero() == (a == b)
    # a zero fast path may hand back an operand; the operands stay intact
    assert a.terms == before_a and b.terms == before_b


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operand_pairs(), coefficients, st.integers(0, 3))
def test_scalars_and_powers_match_sympy(pair, scalar, power):
    a, _ = pair
    sa = to_sympy(a)
    rational = sympy.Rational(scalar.numerator, scalar.denominator)
    assert_matches(a * scalar, sympy.expand(sa * rational))
    assert_matches(scalar * a, sympy.expand(sa * rational))
    assert_matches(a + scalar, sa + rational)
    assert_matches(scalar - a, rational - sa)
    assert_matches(a ** power, sympy.expand(sa ** power))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operand_pairs())
def test_calculus_matches_sympy(pair):
    a, b = pair
    product = a * b
    sp = to_sympy(product)
    gradient = product.gradient()
    assert len(gradient) == len(VARS) and product.gradient() is gradient
    for name, part in zip(VARS, gradient):
        assert_matches(part, sympy.diff(sp, SYMBOLS[name]))
        assert product.partial(name) is part
    wide = product.extend(WIDE)
    assert_matches(wide, sp, WIDE)
    assert_matches(wide.partial("w"), sympy.Integer(0), WIDE)
    for name, part in zip(WIDE, wide.gradient()):
        assert_matches(part, sympy.diff(sp, SYMBOLS[name]), WIDE)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(operand_pairs())
def test_print_parse_roundtrip_matches_sympy(pair):
    a, b = pair
    value = a * b - a
    text = str(value)
    parsed = parse_poly(text, VARS)
    assert_normal(parsed)
    assert parsed == value
    reread = sympy.sympify(text.replace("^", "**"), locals=SYMBOLS)
    assert_matches(value, reread)


def test_mixed_int_and_fraction_coefficients():
    x, y = ScalarPoly.var(VARS, "x"), ScalarPoly.var(VARS, "y")
    product = (x * Fraction(1, 2)) * (y * 2)   # 1/2 * 2 reduces back to an integer
    plain = x * y
    key = (1, 1, 0)
    assert (product._terms, product._den) == (plain._terms, plain._den) == ({key: 1}, 1)
    assert product == plain and hash(product) == hash(plain)
    assert str(product) == str(plain) == "x*y"
    assert_matches(product, SYMBOLS["x"] * SYMBOLS["y"])
    assert_matches(product - plain, sympy.Integer(0))
    # mixed denominators share their lcm, with the numerators over it
    mixed = x * Fraction(1, 2) - y * Fraction(2, 3)
    assert (mixed._terms, mixed._den) == ({(1, 0, 0): 3, (0, 1, 0): -4}, 6)
    assert mixed.terms == {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-2, 3)}
    assert str(mixed) == "1/2*x - 2/3*y"
    # every entry point stores the same integral value the same way
    for poly in (ScalarPoly(VARS, {(0, 0, 0): Fraction(4, 2)}),
                 ScalarPoly.const(VARS, Fraction(2)), parse_poly("4/2", VARS),
                 ScalarPoly.const(VARS, 6) / 3, ScalarPoly.const(VARS, Fraction(2, 3)) * 3):
        assert (poly._terms, poly._den) == ({(0, 0, 0): 2}, 1)
        assert type(poly._terms[(0, 0, 0)]) is int
        assert type(poly.constant_value()) is Fraction and poly.constant_value() == 2


mixed_coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.one_of(st.integers(-4, 4), mixed_coefficients)


@st.composite
def mixed_pairs(draw):
    """Two polynomials with coefficients over mixed denominators, often
    cancelling in part, and a polynomial with integer coefficients."""
    first = draw(st.dictionaries(exponents, mixed_coefficients, max_size=4))
    second = {e: -c for e, c in first.items() if draw(st.booleans())}
    second.update(draw(st.dictionaries(exponents, mixed_coefficients, max_size=3)))
    integral = draw(st.dictionaries(exponents, st.integers(-5, 5), max_size=4))
    return ScalarPoly(VARS, first), ScalarPoly(VARS, second), ScalarPoly(VARS, integral)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_pairs(), scalars, st.integers(1, 6))
def test_common_denominator_arithmetic_matches_sympy(case, scalar, k):
    a, b, n = case
    sa, sb = to_sympy(a), to_sympy(b)
    q = Fraction(scalar)
    rational = sympy.Rational(q.numerator, q.denominator)
    assert_matches(a + b, sa + sb)
    assert_matches(a - b, sa - sb)
    assert_matches(-a, -sa)
    assert_matches(a * b, sympy.expand(sa * sb))
    assert_matches(a * scalar, sympy.expand(sa * rational))
    assert_matches(scalar * a, sympy.expand(sa * rational))
    assert_matches(a * 0, sympy.Integer(0))
    assert_matches(a * Fraction(0), sympy.Integer(0))
    if scalar:
        assert_matches(a / scalar, sympy.expand(sa / rational))
    assert_matches(a / k, sympy.expand(sa / k))
    product = a * b
    for name, part in zip(VARS, product.gradient()):
        assert_matches(part, sympy.diff(sympy.expand(sa * sb), SYMBOLS[name]))
    assert_matches(a.extend(WIDE), sa, WIDE)
    # cancellation back to an integral result: the denominator goes with it,
    # and the polynomial reached through rationals compares, hashes and
    # prints as the one built from ints
    for reached, built in ((a / k * k - a + n, n), ((a + n) - a, n),
                           (n * Fraction(1, k) + n * Fraction(k - 1, k), n),
                           (ScalarPoly(VARS, {e: c / k for e, c in n.terms.items()}) * k, n),
                           ((n * n / 2).gradient()[0], n * n.gradient()[0])):
        assert_normal(reached)
        assert reached._den == 1
        assert reached == built and hash(reached) == hash(built) and str(reached) == str(built)
    assert (a - b == a + (-b)) and hash(a - b) == hash(a + (-b))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operand_pairs())
def test_integral_fractions_behave_as_ints(pair):
    a, b = pair
    restored = (a * Fraction(1, 2)) * ScalarPoly.const(VARS, 2)
    assert restored == a and hash(restored) == hash(a) and str(restored) == str(a)
    sa, sb = to_sympy(a), to_sympy(b)
    assert_matches(restored * b, sympy.expand(sa * sb))
    assert_matches(restored + b, sa + sb)
    assert_matches(restored.partial("x"), sympy.diff(sa, SYMBOLS["x"]))
