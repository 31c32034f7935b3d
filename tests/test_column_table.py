"""A fixed matrix is a column table, and one kernel applies it.

`bundle.column_table` reads a fixed matrix once into its columns: for each
source index j, the nonzero (r, M_rj), with an entry equal to 1 marked
None so that `bundle.column_apply` adds v_j itself instead of forming
1 * v_j.  The kernel stands behind HomSection.apply, d_B of a pre-dual
pair, D of a Courant algebroid, the SubBundle decompositions and the
solves with an inverse constant pairing; the rows of a pairing
(`pairing_rows`) are marked the same way.

The property tests compare each of these with a dense matrix-vector
formula written out here, over entries that are 1, -1, rational,
non-constant and zero, zero vectors and a target of rank 0.  The
structural test reads every table `verify-all --seed 7` builds: none holds
a zero entry or an unmarked 1, and each holds every nonzero entry of its
matrix.
"""

import importlib
import io
import itertools
import pkgutil
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import courant_lab
from courant_lab import bundle
from courant_lab.bundle import Bundle, HomSection, Section, SubBundle, patch
from courant_lab.cli import main
from courant_lab.courant import CourantData
from courant_lab.dorfman import PreDual
from courant_lab.linalg import rank as mat_rank

MODULES = [importlib.import_module(f"courant_lab.{info.name}")
           for info in pkgutil.iter_modules(courant_lab.__path__)]

BASE = patch("x1", "x2")
TANGENT = Bundle.tangent(BASE)
# matrix entries and vector components: zero most often, 1, -1, rationals
# and non-constant polynomials
TEXTS = ["0", "0", "0", "1", "1", "-1", "1/2", "-3/2", "x1", "x2 - 1", "x1*x2 + 2", "-(x2^2)"]
polys = st.sampled_from(TEXTS).map(BASE.poly)
constants = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-1), Fraction(2, 3)])


def bundle_of(name, rank):
    return Bundle.vector(BASE, name, tuple(f"{name.lower()}{k + 1}" for k in range(rank)))


def matrices(cell, n_rows, n_cols):
    return st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


def sections(bun):
    return st.lists(polys, min_size=bun.rank, max_size=bun.rank).map(
        lambda coeffs: Section(bun, coeffs))


def dense_apply(matrix, vector):
    """M v, one row at a time, every product formed."""
    return [sum((entry * v for entry, v in zip(row, vector)), BASE.zero()) for row in matrix]


def assert_result(result, expected, target):
    """result is the section with coefficients expected, and the shared zero
    section, with the patch's zero in every coefficient, when they vanish."""
    assert result.bundle is target and list(result.coeffs) == expected
    for c in result.coeffs:
        assert not c.is_zero() or c is BASE.zero()
    assert (result is target.zero_section()) == all(c.is_zero() for c in expected)


@st.composite
def homs(draw):
    source, target = (bundle_of(name, draw(st.integers(0, 3))) for name in ("S", "T"))
    return HomSection(source, target, draw(matrices(polys, target.rank, source.rank)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(homs(), st.data())
def test_hom_apply_is_the_dense_product(hom, data):
    for section in (data.draw(sections(hom.source)), hom.source.zero_section()):
        assert_result(hom.apply(section), dense_apply(hom.matrix, section.coeffs), hom.target)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 3).flatmap(lambda r: matrices(polys, r, BASE.dim)), polys)
def test_d_of_a_predual_is_dmat_times_the_gradient(dmat, phi):
    b = bundle_of("B", len(dmat))
    predual = PreDual(b.dual(), b, [[BASE.zero()] * b.rank] * b.rank, dmat)
    assert_result(predual.d(phi), dense_apply(dmat, phi.gradient()), b)


@st.composite
def courant_data(draw):
    """Courant data on a bundle of rank 1 to 3 with a constant, symmetric,
    nondegenerate pairing and any anchor; zero bracket symbols."""
    r = draw(st.integers(1, 3))
    pairing = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            pairing[i][j] = pairing[j][i] = draw(constants)
    if mat_rank(pairing) < r:  # the split pairing, such as [[0, 1], [1, 0]]
        pairing = [[Fraction(int(i + j == r - 1)) for j in range(r)] for i in range(r)]
    bun = bundle_of("C", r)
    anchor = HomSection(bun, TANGENT, draw(matrices(polys, BASE.dim, r)))
    return CourantData(bun, anchor, [[BASE.const(x) for x in row] for row in pairing],
                       [[bun.zero_section()] * r for _ in range(r)])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(courant_data(), polys)
def test_D_of_courant_data_pairs_as_the_anchor_derivative(courant, phi):
    # <D phi, e_i> = rho(e_i)(phi): the pairing times D phi is rho^T grad(phi)
    value = courant.D(phi)
    transpose = [list(col) for col in zip(*courant.anchor.matrix)]
    assert dense_apply(courant.pairing, value.coeffs) == dense_apply(transpose, phi.gradient())
    assert_result(value, dense_apply(courant.d_matrix(), phi.gradient()), courant.bundle)


@st.composite
def subbundles(draw):
    """A subbundle of a rank 1 to 3 ambient spanned by independent constant
    sections (none for rank 0)."""
    ambient = bundle_of("A", draw(st.integers(1, 3)))
    vectors = []
    for vec in draw(st.lists(st.lists(constants, min_size=ambient.rank, max_size=ambient.rank),
                             max_size=ambient.rank)):
        if mat_rank(vectors + [vec]) == len(vectors) + 1:
            vectors.append(vec)
    frame = [Section(ambient, [BASE.const(x) for x in vec]) for vec in vectors]
    return SubBundle("U", frame, ambient)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(subbundles(), st.data())
def test_subbundle_decompositions_rebuild_the_section(sub, data):
    ambient = sub.ambient
    member = sub.include(data.draw(st.lists(polys, min_size=sub.rank, max_size=sub.rank)))
    for section in (data.draw(sections(ambient)), member, ambient.zero_section()):
        head, rest = sub.split(section.nonzero(), BASE.zero())
        assert len(head) == sub.rank and len(rest) == ambient.rank - sub.rank
        # the dense sum of coordinates times the frame and complement vectors
        frame = [sec.constant_coeffs() for sec in sub.sections] + sub.complement
        rebuilt = [sum((c * vec[i] for c, vec in zip(head + rest, frame)), BASE.zero())
                   for i in range(ambient.rank)]
        assert rebuilt == list(section.coeffs)
        transverse = [sum((c * vec[i] for c, vec in zip(rest, sub.complement)), BASE.zero())
                      for i in range(ambient.rank)]
        assert_result(sub.residual(section), transverse, ambient)
        assert sub.contains(section) == all(c.is_zero() for c in rest)
        if sub.contains(section):
            assert sub.coords(section) == head
        for c in head + rest:
            assert not c.is_zero() or c is BASE.zero()
    assert sub.contains(member)


def test_every_table_holds_the_nonzero_entries_with_each_1_marked(monkeypatch):
    """Over verify-all, every column table and pairing row: no zero entry, no
    unmarked 1, and with None read as 1 exactly the nonzero entries of the
    matrix it was built from."""
    built = []

    def recording(real, columns_of):
        def wrapper(matrix, *args):
            table = real(matrix, *args)
            built.append((columns_of(matrix, *args), table))
            return table
        return wrapper

    kernels = {
        "column_table": lambda matrix, width: [[row[j] for row in matrix] for j in range(width)],
        "pairing_rows": lambda matrix: [list(row) for row in matrix],
    }
    for name, columns_of in kernels.items():
        real = getattr(bundle, name)
        wrapper = recording(real, columns_of)
        for module in MODULES:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    with redirect_stdout(io.StringIO()):
        assert main(["verify-all", "--seed", "7"]) == 0
    marked = 0
    for columns, table in built:
        marked_columns = table.columns if isinstance(table, bundle.ColumnTable) else table
        assert len(marked_columns) == len(columns)
        for column, entries in zip(columns, marked_columns):
            for _, entry in entries:
                assert entry is None or (entry != 0 and entry != 1)
            assert [(k, 1 if e is None else e) for k, e in entries] == \
                [(k, e) for k, e in enumerate(column) if e != 0]
            marked += sum(e is None for _, e in entries)
    kinds = {type(table).__name__ for _, table in built}
    assert kinds == {"ColumnTable", "tuple"} and marked > 100


def test_a_vanishing_sum_is_the_shared_zero():
    # 1 * x1 + (-1) * x1 cancels in the kernel, and the result is zero itself
    table = bundle.column_table([[BASE.one(), BASE.const(-1)]], 2)
    x1 = BASE.coord("x1")
    assert bundle.column_apply(table, ((0, x1), (1, x1)), BASE.zero())[0] is BASE.zero()
    for a, b in itertools.product([x1, BASE.poly("x1 + x2")], repeat=2):
        total = bundle.column_apply(table, ((0, a), (1, b)), BASE.zero())[0]
        assert total == a - b
