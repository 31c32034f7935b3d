import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from courant_lab.poly import (EXPONENT_LIMIT, PolyError, PolySyntaxError, ScalarPoly,
                              UnknownVariableError, VariableMismatchError, parse_poly,
                              sum_of_products)

VARS = ("x1", "x2")


def p(text):
    return parse_poly(text, VARS)


def test_parse_zero():
    assert p("0").is_zero()
    assert p("0") == ScalarPoly.zero(VARS)


def test_parse_square_expansion():
    # (x1+x2)^2 expanded by hand
    assert p("(x1+x2)^2") == p("x1^2 + 2*x1*x2 + x2^2")
    assert str(p("(x1+x2)^2")) == "x1^2 + 2*x1*x2 + x2^2"


def test_parse_rational_coefficients():
    value = p("1/2*x1 - x2^3")
    assert value.terms == {(1, 0): Fraction(1, 2), (0, 3): Fraction(-1)}
    # re-print and re-parse reaches a fixed point
    assert parse_poly(str(value), VARS) == value
    assert parse_poly(str(parse_poly(str(value), VARS)), VARS) == value


def test_unary_minus_before_an_exponent_is_refused():
    # the grammar would read -x1^2 as (-x1)^2, so the parser refuses it and
    # names both readings; each is written out with parentheses
    for text, position in (("-x1^2", 0), ("x2 * -x1^2", 5), ("-(x1 + 1)^2", 0), ("-3^2", 0)):
        with pytest.raises(PolySyntaxError, match=r"is ambiguous: write -\(") as err:
            p(text)
        assert err.value.position == position
    with pytest.raises(PolySyntaxError, match=re.escape("write -(x1^2) or (-x1)^2")):
        p("-x1^2")
    assert p("-(x1^2)") == p("0 - x1^2") == p("-1*x1^2") == -p("x1^2")
    assert p("(-x1)^2") == p("x1^2")
    assert p("-x1*x2^2") == -p("x1*x2^2")


def test_add_inverse_and_identities():
    x1 = p("x1")
    assert (x1 + (-x1)).is_zero()
    q = p("2*x1*x2 - 1/3")
    assert q * ScalarPoly.one(VARS) == q
    assert p("(x1+1)*(x1-1)") == p("x1^2 - 1")


def test_syntax_error_has_position():
    with pytest.raises(PolySyntaxError) as err:
        p("x1 + ^2")
    assert err.value.position == 5


def test_unknown_variable():
    with pytest.raises(UnknownVariableError) as err:
        p("x1 + zz")
    assert err.value.name == "zz"


def test_division_by_nonconstant_rejected():
    with pytest.raises(PolySyntaxError, match="rational"):
        p("x1/2")
    with pytest.raises(PolySyntaxError, match="zero"):
        p("1/0")


def test_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        p("x1") + parse_poly("x1", ("x1",))


def test_partial_examples():
    assert p("x1^2*x2").partial("x1") == p("2*x1*x2")
    assert p("5").partial("x1").is_zero()
    assert p("x1+x2").partial("x2") == p("1")


def test_gradient_examples():
    a = p("x1^2*x2 - 3*x2 + 1/2")
    assert a.gradient() == (p("2*x1*x2"), p("x1^2 - 3"))
    assert p("7").gradient() == (p("0"), p("0"))
    assert parse_poly("5", ()).gradient() == ()


def test_extend():
    # a list that starts with the old one: the layout of a total space
    total = ("x1", "x2", "y1", "y2")
    assert p("3*x1^2*x2 - x2 + 1/2").extend(total) == \
        parse_poly("3*x1^2*x2 - x2 + 1/2", total)
    # the old variables in another order, or with a new one among them
    for reordered in (("x1", "y", "x2"), ("x2", "x1"), ("y", "x1", "x2")):
        with pytest.raises(VariableMismatchError, match="first, in order"):
            p("x1*x2").extend(reordered)


@pytest.mark.parametrize("new_vars", [("x1",), ("x1", "y"), ("y", "x1")])
def test_extend_refuses_a_list_without_a_variable(new_vars):
    # ("x1",) and ("x1", "y") begin as VARS does, ("y", "x1") does not
    with pytest.raises(UnknownVariableError, match="'x2'"):
        p("x1*x2").extend(new_vars)


def test_negating_zero_returns_the_operand():
    zero = p("0")
    assert -zero is zero


@pytest.mark.parametrize("width", [1, 63, 64, 70])
def test_products_over_any_width_refuse_an_overflow(width):
    # the guard masks of narrow keys are formed once at import, and a key
    # over more variables forms its own: either way every field is guarded
    names = tuple(f"y{i}" for i in range(width))
    zero = ScalarPoly.zero(names)
    for name in (names[0], names[-1]):
        y = ScalarPoly.var(names, name)
        top = y ** (EXPONENT_LIMIT - 1)
        with pytest.raises(PolyError, match="exponent overflow"):
            top * y
        with pytest.raises(PolyError, match="exponent overflow"):
            sum_of_products(zero, [(top, y, 1), (top, y, -1)])
        below = y ** (EXPONENT_LIMIT - 2)
        assert (below * y).terms == {tuple(EXPONENT_LIMIT - 1 if n == name else 0
                                           for n in names): 1}


small_polys = st.builds(
    lambda terms: ScalarPoly(VARS, {k: Fraction(v, 3) for k, v in terms.items()}),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    st.integers(-6, 6), max_size=4))


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(a, b):
    for v in VARS:
        assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)


@given(small_polys)
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(a):
    assert a.partial("x1").partial("x2") == a.partial("x2").partial("x1")


@given(small_polys)
@settings(max_examples=60, deadline=None)
def test_gradient_is_the_partials_built_once(a):
    grad = a.gradient()
    assert len(grad) == len(VARS)
    for name, part in zip(VARS, grad):
        assert part == a.partial(name)
    assert a.gradient() is grad
    constant = ScalarPoly.const(VARS, a.terms.get((0, 0), 0))
    assert all(part.is_zero() for part in constant.gradient())


@given(small_polys)
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(a):
    assert parse_poly(str(a), VARS) == a


@given(small_polys, small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
