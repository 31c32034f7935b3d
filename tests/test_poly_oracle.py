"""Differential oracle: ScalarPoly arithmetic against sympy.

The ring operations build their results without re-validating them, so
every result here is also checked for the normal form the unchecked
constructor relies on: int monomial keys that decode to one exponent below
EXPONENT_LIMIT per variable, nonzero int numerators over one positive int
denominator in lowest terms (a zero polynomial over 1), and a `terms`
view that is a copy keyed by the decoded exponent tuples with Fraction
values.
Inputs are biased toward cancellation and zero operands, the cases the
fast paths short-circuit.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from courant_lab.poly import (EXPONENT_LIMIT, FIELD_BITS, PolyError, ScalarPoly,
                              VariableMismatchError, parse_poly, sum_of_products)

sympy = pytest.importorskip("sympy")

VARS = ("x", "y", "z")
WIDE = ("w", "z", "x", "y")  # a reordering, which extend refuses
PREFIX = VARS + ("u", "v")  # the old list first, as on a total space: extend shifts
SYMBOLS = {name: sympy.Symbol(name) for name in VARS + WIDE + PREFIX}

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


def decode(key, width):
    """The exponent tuple of a monomial key: FIELD_BITS bits per variable,
    the first variable in the most significant field."""
    mask = (1 << FIELD_BITS) - 1
    return tuple(key >> FIELD_BITS * (width - 1 - i) & mask for i in range(width))


def assert_normal(poly, vars_=VARS):
    assert poly.vars == vars_
    width = len(vars_)
    for key in poly._terms:
        # nothing above the last field, and every field below the limit, so
        # the guard bit of every field is clear
        assert type(key) is int and 0 <= key < 1 << FIELD_BITS * width
        assert all(e < EXPONENT_LIMIT for e in decode(key, width))
    assert sorted(poly.terms) == sorted(decode(key, width) for key in poly._terms)
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
    wide = product.extend(PREFIX)
    assert_matches(wide, sp, PREFIX)
    assert_matches(wide.partial("u"), sympy.Integer(0), PREFIX)
    for name, part in zip(PREFIX, wide.gradient()):
        assert_matches(part, sympy.diff(sp, SYMBOLS[name]), PREFIX)
    with pytest.raises(VariableMismatchError):
        product.extend(WIDE)


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


# the keys of x, y and 1 over VARS: one 16-bit field per variable, x highest
KEY_X, KEY_Y, KEY_ONE = 1 << 32, 1 << 16, 0


def test_mixed_int_and_fraction_coefficients():
    x, y = ScalarPoly.var(VARS, "x"), ScalarPoly.var(VARS, "y")
    assert (x._terms, y._terms) == ({KEY_X: 1}, {KEY_Y: 1})
    product = (x * Fraction(1, 2)) * (y * 2)   # 1/2 * 2 reduces back to an integer
    plain = x * y
    key = KEY_X + KEY_Y  # the key of x*y, exponents (1, 1, 0)
    assert (product._terms, product._den) == (plain._terms, plain._den) == ({key: 1}, 1)
    assert decode(key, 3) == (1, 1, 0) and product.terms == {(1, 1, 0): 1}
    assert product == plain and hash(product) == hash(plain)
    assert str(product) == str(plain) == "x*y"
    assert_matches(product, SYMBOLS["x"] * SYMBOLS["y"])
    assert_matches(product - plain, sympy.Integer(0))
    # mixed denominators share their lcm, with the numerators over it
    mixed = x * Fraction(1, 2) - y * Fraction(2, 3)
    assert (mixed._terms, mixed._den) == ({KEY_X: 3, KEY_Y: -4}, 6)
    assert mixed.terms == {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-2, 3)}
    assert str(mixed) == "1/2*x - 2/3*y"
    # every entry point stores the same integral value the same way
    for poly in (ScalarPoly(VARS, {(0, 0, 0): Fraction(4, 2)}),
                 ScalarPoly.const(VARS, Fraction(2)), parse_poly("4/2", VARS),
                 ScalarPoly.const(VARS, 6) / 3, ScalarPoly.const(VARS, Fraction(2, 3)) * 3):
        assert (poly._terms, poly._den) == ({KEY_ONE: 2}, 1)
        assert type(poly._terms[KEY_ONE]) is int
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
    with pytest.raises(VariableMismatchError):
        a.extend(WIDE)
    assert_matches(a.extend(PREFIX), sa, PREFIX)
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


LIMIT = EXPONENT_LIMIT
near_limit = st.sampled_from([0, 1, 2, LIMIT // 2 - 1, LIMIT // 2, LIMIT - 2, LIMIT - 1])
near_limit_terms = st.dictionaries(st.tuples(*[near_limit] * len(VARS)),
                                   st.integers(-3, 3), max_size=3)


# sympy's sparse ring: its dense Poly would allocate every degree up to the limit
RING = sympy.polys.rings.ring(",".join(VARS), sympy.QQ)[0]


def to_ring(poly):
    return RING.from_dict({e: sympy.QQ(c.numerator, c.denominator)
                           for e, c in poly.terms.items()})


def assert_matches_ring(poly, element, vars_=VARS):
    assert_normal(poly, vars_)
    assert poly.terms == {e: Fraction(int(c.numerator), int(c.denominator))
                          for e, c in element.items()}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(near_limit_terms, near_limit_terms)
def test_exponents_near_the_limit_match_sympy_or_overflow(first, second):
    a, b = ScalarPoly(VARS, first), ScalarPoly(VARS, second)
    ra, rb = to_ring(a), to_ring(b)
    assert_matches_ring(a + b, ra + rb)
    assert_matches_ring(a - b, ra - rb)
    for gen, part in zip(RING.gens, a.gradient()):
        assert_matches_ring(part, ra.diff(gen))
    with pytest.raises(VariableMismatchError):
        a.extend(WIDE)
    assert a.extend(PREFIX).terms == {exps + (0, 0): c for exps, c in a.terms.items()}
    assert_normal(a.extend(PREFIX), PREFIX)
    # the largest exponent of x in a*b is the sum of the largest in a and b
    # (their leading parts in x never cancel), so a product with a field at
    # or above the limit is refused exactly when the true product has one
    degrees = [max((e[i] for e in a.terms), default=0) + max((e[i] for e in b.terms), default=0)
               for i in range(len(VARS))]
    if a.is_zero() or b.is_zero() or max(degrees) < LIMIT:
        assert_matches_ring(a * b, ra * rb)
    else:
        with pytest.raises(PolyError, match="exponent overflow"):
            a * b


def test_exponent_limit_is_refused_not_wrapped():
    x, y = ScalarPoly.var(VARS, "x"), ScalarPoly.var(VARS, "y")
    top = x ** (LIMIT - 1)
    rx, ry, _ = RING.gens
    assert_matches_ring(top, rx ** (LIMIT - 1))
    assert_matches_ring(top * y ** (LIMIT - 1), (rx * ry) ** (LIMIT - 1))
    assert parse_poly(str(top), VARS) == top == parse_poly(f"x^{LIMIT - 1}", VARS)
    # one past the limit in a product: the carry would reach the next field
    for product in (lambda: top * x, lambda: x * top, lambda: (top + y) * (x + 1),
                    lambda: x ** (LIMIT // 2) * x ** (LIMIT // 2)):
        with pytest.raises(PolyError, match="exponent overflow"):
            product()
    with pytest.raises(PolyError, match="exponent overflow"):
        parse_poly(f"x^{LIMIT // 2}*x^{LIMIT // 2}", VARS)
    # an oversized exponent: the constructor, ** and the parser's ^
    for exps in ((LIMIT, 0, 0), (0, 0, LIMIT), (0, 2 ** 40, 0), (-1, 0, 0), (1.0, 0, 0)):
        with pytest.raises(PolyError, match=f"not integers from 0 to {LIMIT - 1}"):
            ScalarPoly(VARS, {exps: 1})
    for exponent in (LIMIT, 99999999999):
        with pytest.raises(PolyError, match=f"not below {LIMIT}"):
            x ** exponent
        with pytest.raises(PolyError, match=f"not below {LIMIT}"):
            parse_poly(f"x^{exponent}", VARS)
    with pytest.raises(PolyError, match="integer literal too long"):
        parse_poly("x^" + "9" * 5000, VARS)


def test_power_takes_a_product_per_bit_of_the_exponent(monkeypatch):
    # repeated squaring: at most two products for each of the 15 bits of the
    # largest exponent, where one product per unit would take 32,767
    products = []
    real = ScalarPoly.__mul__

    def counting(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(ScalarPoly, "__mul__", counting)
    power = parse_poly(f"x^{LIMIT - 1}", VARS)
    assert len(products) <= 2 * (LIMIT - 1).bit_length() == 30
    assert power.terms == {(LIMIT - 1, 0, 0): 1}
    monkeypatch.undo()
    rx, ry, _ = RING.gens
    for exponent in (0, 1, 2, 5, 12):
        assert_matches_ring(parse_poly(f"(x - 2/3*y + 1)^{exponent}", VARS),
                            (rx - sympy.QQ(2, 3) * ry + 1) ** exponent)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(operand_pairs())
def test_product_with_one_is_the_other_operand(pair):
    a, b = pair
    for one in (ScalarPoly.one(VARS), ScalarPoly.const(VARS, Fraction(2, 2)),
                parse_poly("1", VARS), (ScalarPoly.var(VARS, "x") + 1) - ScalarPoly.var(VARS, "x")):
        assert a * one is a and one * a is a
    # a constant 1 over a denominator is not the unit
    half = ScalarPoly.const(VARS, Fraction(1, 2))
    assert_matches(a * half, to_sympy(a) / 2)
    assert_matches(half * a, to_sympy(a) / 2)
    # one term by one term
    for p, q in ((a, b), (b, a)):
        if len(p.terms) == 1 and len(q.terms) == 1:
            assert_matches(p * q, sympy.expand(to_sympy(p) * to_sympy(q)))


# -- the sum-of-products kernel -------------------------------------------

nonzero_mixed = mixed_coefficients.filter(bool)
nonzero_polys = st.dictionaries(exponents, nonzero_mixed, min_size=1, max_size=3).map(
    lambda terms: ScalarPoly(VARS, terms))
signed_pairs = st.tuples(nonzero_polys, nonzero_polys, st.sampled_from([1, -1]))


@st.composite
def product_lists(draw):
    """(a, b, sign) lists over mixed denominators, where a drawn pair often
    comes back with the other sign or with its factors swapped, so that
    sums cancel in part or in full."""
    terms = draw(st.lists(signed_pairs, min_size=1, max_size=5))
    for a, b, sign in list(terms):
        echo = draw(st.sampled_from(["none", "negated", "swapped"]))
        if echo == "negated":
            terms.append((a, b, -sign))
        elif echo == "swapped":
            terms.append((b, a, sign))
    return draw(st.permutations(terms))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(product_lists())
def test_sum_of_products_matches_chained_operators_and_sympy(terms):
    zero = ScalarPoly.zero(VARS)
    before = [(a.terms, b.terms) for a, b, _ in terms]
    total = sum_of_products(zero, terms)
    chained = zero
    expected = sympy.Integer(0)
    for a, b, sign in terms:
        chained = chained + a * b if sign > 0 else chained - a * b
        expected += sign * to_sympy(a) * to_sympy(b)
    assert total == chained and hash(total) == hash(chained) and str(total) == str(chained)
    assert_matches(total, sympy.expand(expected))
    if total.is_zero():
        assert total is zero
    # the operands stay intact
    assert [(a.terms, b.terms) for a, b, _ in terms] == before


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(signed_pairs, min_size=1, max_size=4))
def test_sum_of_products_that_cancels_is_the_zero_passed_in(terms):
    zero = ScalarPoly.zero(VARS)
    cancelling = terms + [(b, a, -sign) for a, b, sign in terms]
    assert sum_of_products(zero, cancelling) is zero


def test_sum_of_products_of_one_pair_is_the_plain_product():
    zero, one = ScalarPoly.zero(VARS), ScalarPoly.one(VARS)
    x, y = ScalarPoly.var(VARS, "x"), ScalarPoly.var(VARS, "y")
    # the fast paths of *: a product with 1 is the other operand itself
    assert sum_of_products(zero, [(x, one, 1)]) is x
    assert sum_of_products(zero, [(one, y, 1)]) is y
    assert sum_of_products(zero, [(x, y, -1)]) == -(x * y)
    with pytest.raises(VariableMismatchError):
        sum_of_products(zero, [(x, y, 1), (x, ScalarPoly.var(WIDE, "w"), 1)])


def test_sum_of_products_refuses_an_overflow_whose_coefficient_cancels():
    zero = ScalarPoly.zero(VARS)
    x, y = ScalarPoly.var(VARS, "x"), ScalarPoly.var(VARS, "y")
    top = x ** (LIMIT - 1)
    # x^LIMIT sets the guard bit of x's field; the two products cancel, so a
    # check after dropping zero coefficients would miss it
    for terms in ([(top, x, 1), (top, x, -1)],
                  [(y, y, 1), (x, top, 1), (top * Fraction(1, 2), x * 2, -1)],
                  [(top + y, x, 1), (x, top, -1)]):
        with pytest.raises(PolyError, match="exponent overflow"):
            sum_of_products(zero, terms)
    # just below the limit the same sums are exact
    below = x ** (LIMIT - 2)
    assert sum_of_products(zero, [(below, x, 1), (below, x, -1)]) is zero
    assert sum_of_products(zero, [(below + y, x, 1), (x, below, -1)]) == x * y
