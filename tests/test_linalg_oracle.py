"""Differential oracle: the exact linear algebra of `linalg` against sympy.

`rref`, `nullspace`, `invert` and `determinant` are compared with sympy's
Matrix on small rational matrices, and so is the one projection path the
package runs on them: `bundle.SubBundle` over constant sections, through
its `complement`, `split`, `contains` and `residual`.  The Gram
determinant of a non-constant pairing (`courant._poly_det`, cofactor
expansion over polynomials) is compared with sympy's `det` on small
polynomial matrices.  The draws are
biased toward singular and rank-deficient matrices (rows combined from
fewer vectors, repeated rows, zero columns, mostly-zero entries), where
the elimination has to find a pivot below the diagonal or run out of one.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from courant_lab.bundle import Bundle, SubBundle, patch
from courant_lab.courant import _poly_det
from courant_lab.linalg import determinant, invert, nullspace, rref
from courant_lab.poly import ScalarPoly

sympy = pytest.importorskip("sympy")

entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
sparse_entries = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(1, 2)])
POINT = patch()  # the subbundle oracle works over constant sections


@st.composite
def matrices(draw, n_rows, n_cols):
    """An n_rows x n_cols rational matrix, often of lower rank than it could have."""
    mode = draw(st.sampled_from(["dense", "sparse", "low-rank", "repeated-row", "zero-column"]))
    if mode == "low-rank":
        basis = [draw(st.lists(entries, min_size=n_cols, max_size=n_cols))
                 for _ in range(draw(st.integers(0, max(n_rows - 1, 0))))]
        rows = []
        for _ in range(n_rows):
            weights = [draw(st.integers(-2, 2)) for _ in basis]
            rows.append([sum((w * vec[j] for w, vec in zip(weights, basis)), Fraction(0))
                         for j in range(n_cols)])
        return rows
    cell = sparse_entries if mode == "sparse" else entries
    rows = [draw(st.lists(cell, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    if mode == "repeated-row" and n_rows >= 2:
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
        rows[i] = [draw(st.sampled_from([1, -1, 2])) * x for x in rows[j]]
    if mode == "zero-column" and n_cols:
        j = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[j] = Fraction(0)
    return rows


@st.composite
def rectangular(draw):
    return draw(matrices(draw(st.integers(0, 4)), draw(st.integers(1, 4))))


@st.composite
def square(draw):
    n = draw(st.integers(0, 4))
    return draw(matrices(n, n))


def to_sympy(rows, n_cols):
    return sympy.Matrix(len(rows), n_cols,
                        [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row])


def from_sympy(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in matrix.row(i)] for i in range(matrix.rows)]


def vector_from_sympy(column):
    return [Fraction(int(x.p), int(x.q)) for x in column]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rectangular())
def test_rref_and_nullspace_match_sympy(rows):
    n_cols = len(rows[0]) if rows else 3
    reduced, pivots = rref(rows)
    expected, expected_pivots = to_sympy(rows, n_cols).rref()
    assert pivots == list(expected_pivots)
    if rows:
        assert reduced == from_sympy(expected)
    else:
        assert reduced == []
    basis = nullspace(rows, n_cols)
    assert basis == [vector_from_sympy(vec) for vec in to_sympy(rows, n_cols).nullspace()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(square())
def test_determinant_and_inverse_match_sympy(rows):
    n = len(rows)
    matrix = to_sympy(rows, n)
    det = matrix.det()
    assert determinant(rows) == Fraction(int(det.p), int(det.q))
    if det == 0:
        with pytest.raises(ValueError):
            invert(rows)
    elif n:
        assert invert(rows) == from_sympy(matrix.inv())
    else:
        assert invert(rows) == []


@st.composite
def frames_and_vectors(draw):
    """An independent frame in Q^dim and a vector, often inside its span."""
    dim = draw(st.integers(1, 4))
    candidates = draw(matrices(draw(st.integers(0, dim)), dim))
    frame = []
    for row in candidates:
        if to_sympy(frame + [row], dim).rank() == len(frame) + 1:
            frame.append(row)
    if frame and draw(st.booleans()):
        weights = [draw(st.integers(-2, 2)) for _ in frame]
        vector = [sum((w * vec[j] for w, vec in zip(weights, frame)), Fraction(0))
                  for j in range(dim)]
    else:
        vector = draw(st.lists(entries, min_size=dim, max_size=dim))
    return frame, dim, vector


@settings(max_examples=200, deadline=None, derandomize=True)
@given(frames_and_vectors())
def test_span_coordinates_match_sympy(case):
    frame, dim, vector = case
    ambient = Bundle.vector(POINT, "V", tuple(f"v{i}" for i in range(dim)))

    def constant(row):
        return ambient.section(dict(zip(ambient.frame, row)))

    sub = SubBundle("K", [constant(row) for row in frame], ambient)
    section = constant(vector)
    head, rest = sub.split(section.nonzero(), POINT.zero())
    # the complement is the standard-basis completion over the non-pivot columns
    pivots = list(to_sympy(frame, dim).rref()[1]) if frame else []
    assert sub.complement == [[Fraction(int(i == j)) for i in range(dim)]
                              for j in range(dim) if j not in pivots]
    columns = frame + sub.complement
    basis = sympy.Matrix(dim, dim, lambda i, j: sympy.Rational(columns[j][i].numerator,
                                                               columns[j][i].denominator))
    solution = basis.solve(to_sympy([vector], dim).T)
    assert [c.constant_value() for c in head + rest] == vector_from_sympy(solution)
    in_span = to_sympy(frame + [vector], dim).rank() == len(frame)
    assert sub.contains(section) == in_span
    residual = sub.residual(section)
    r = len(frame)
    assert [c.constant_value() for c in residual.coeffs] == \
        vector_from_sympy(basis[:, r:] * solution[r:, :])
    assert residual.is_zero() == in_span
    assert all(c.is_zero() for c in rest) == in_span


PLANE = patch("x1", "x2")
X1, X2 = sympy.symbols("x1 x2")
# polynomials of degree at most 1 in each of x1, x2 with small integer coefficients
poly_entries = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                               st.integers(-2, 2), max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(poly_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_polynomial_gram_determinant_matches_sympy(rows):
    matrix = [[ScalarPoly(PLANE.coords, terms) for terms in row] for row in rows]
    expected = sympy.Matrix(len(rows), len(rows),
                            [sum((c * X1 ** i * X2 ** j for (i, j), c in terms.items()),
                                 sympy.Integer(0)) for row in rows for terms in row]).det()
    det = _poly_det(matrix, PLANE)
    assert det.vars == PLANE.coords
    value = sum((sympy.Rational(c.numerator, c.denominator) * X1 ** i * X2 ** j
                 for (i, j), c in det.terms.items()), sympy.Integer(0))
    assert sympy.expand(value - expected) == 0
