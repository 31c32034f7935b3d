"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Everything here is deterministic:
row reduction always prefers the leftmost pivot, and complements are always
completed with standard basis vectors in index order, so subspace
decompositions are canonical and reports are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Vector = List[Fraction]
Matrix = List[Vector]


def _frac_rows(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(entry) for entry in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form with leftmost-pivot preference.

    Returns the reduced matrix and the list of pivot columns.
    """
    m = _frac_rows(rows)
    if not m:
        return [], []
    n_cols = len(m[0])
    pivots: List[int] = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        scale = m[row][col]
        m[row] = [entry / scale for entry in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], n_cols: int) -> Matrix:
    """Basis of the right nullspace, one vector per free column in index order."""
    if not rows:
        return [[Fraction(1 if i == j else 0) for i in range(n_cols)] for j in range(n_cols)]
    reduced, pivots = rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis: Matrix = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            vec[p] = -reduced[row_idx][f]
        basis.append(vec)
    return basis


def complete_basis(frame: Sequence[Sequence], dim: int) -> Matrix:
    """Standard-basis completion of an independent frame to a basis of Q^dim.

    Row-reduces the frame and appends the standard basis vectors of the
    non-pivot coordinates, in index order.
    """
    _, pivots = rref(frame)
    if len(pivots) != len(frame):
        raise ValueError("frame vectors are linearly dependent")
    extra: Matrix = []
    for j in range(dim):
        if j not in pivots:
            vec = [Fraction(0)] * dim
            vec[j] = Fraction(1)
            extra.append(vec)
    return extra


def invert(matrix: Sequence[Sequence]) -> Matrix:
    n = len(matrix)
    aug = [[Fraction(entry) for entry in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def determinant(matrix: Sequence[Sequence]) -> Fraction:
    m = _frac_rows(matrix)
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


class SpanBasis:
    """A constant frame in Q^dim with its canonical complement.

    Supports exact membership tests and coordinate decompositions for
    vectors whose entries live in any module over Q (rationals or
    polynomials), applied coefficientwise.
    """

    def __init__(self, frame: Sequence[Sequence], dim: int):
        self.frame = _frac_rows(frame)
        self.dim = dim
        for vec in self.frame:
            if len(vec) != dim:
                raise ValueError("frame vector has wrong length")
        self.complement = complete_basis(self.frame, dim) if self.frame else \
            [[Fraction(1 if i == j else 0) for i in range(dim)] for j in range(dim)]
        columns = self.frame + self.complement
        # basis matrix has the frame and complement vectors as columns
        basis = [[columns[j][i] for j in range(dim)] for i in range(dim)]
        self.basis_inv = invert(basis)

    @property
    def frame_rank(self) -> int:
        return len(self.frame)

    def coords(self, entries: Sequence) -> Tuple[list, list]:
        """Split a dim-vector into (frame coordinates, complement coordinates)."""
        if len(entries) != self.dim:
            raise ValueError("vector has wrong length")
        coords = []
        for row in self.basis_inv:
            total = None
            for coeff, entry in zip(row, entries):
                if coeff == 0:
                    continue
                piece = entry * coeff
                total = piece if total is None else total + piece
            if total is None:
                total = 0 * entries[0] if entries else Fraction(0)
            coords.append(total)
        return coords[:self.frame_rank], coords[self.frame_rank:]

    def residual(self, entries: Sequence) -> list:
        """Projection onto the complement; zero iff the vector lies in the span."""
        _, rest = self.coords(entries)
        return rest

    def contains(self, entries: Sequence) -> bool:
        def _is_zero(x):
            return x.is_zero() if hasattr(x, "is_zero") else x == 0
        return all(_is_zero(x) for x in self.residual(entries))
