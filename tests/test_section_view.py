"""A section carries its nonzero components, and a pairing is read as rows.

`Section.nonzero()` is the view every section kernel iterates: it must
equal the dense scan of the coefficients, on every kind of section the
kernels meet and make, and be the same tuple on a second call.  The rows
of a pairing (`PreDual.pair_rows`) must give the dense sum
sum s1_i s2_j P_ij, and the Leibniz extension must read them right, for a
pairing that is neither diagonal nor constant, and for one with entries
equal to 1, which the rows mark instead of multiplying by them.
"""

import random

import pytest

from courant_lab.algebroid import AnchoredBracket
from courant_lab.bundle import Bundle, HomSection, Section, leibniz, patch, random_sections
from courant_lab.dorfman import DorfmanConnection, PreDual, pr_tm_hom, standard_dorfman
from builders import flat_connection

BASE = patch("x1", "x2")
E = Bundle.vector(BASE, "E", ("eps",))
Q = Bundle.tangent(BASE) + E.dual()    # TM + E*
B = E + Bundle.cotangent(BASE)         # E + T*M
SUMMANDS = {Q: (Bundle.tangent(BASE), E.dual()), B: (E, Bundle.cotangent(BASE))}


def dense(sec: Section):
    return tuple((k, c) for k, c in enumerate(sec.coeffs) if not c.is_zero())


def assert_view(sec: Section):
    view = sec.nonzero()
    assert view == dense(sec)
    assert all(c is sec.coeffs[k] for k, c in view)
    assert sec.nonzero() is view
    assert sec.is_zero() == (view == ())


def samples(bun: Bundle, seed: int):
    """Battery sections, random sections, the shared zero, a zero section
    built apart from it and one nonzero only in its last coefficient."""
    last = [BASE.zero()] * (bun.rank - 1) + [BASE.coord("x1")]
    return (list(bun.battery.sections) + random_sections(bun, 4, random.Random(seed))
            + [bun.zero_section(), bun.section(), Section(bun, last)])


@pytest.mark.parametrize("bun", [Q, B, E], ids=lambda b: b.label())
def test_view_of_built_sections(bun):
    for sec in samples(bun, 1):
        assert_view(sec)


@pytest.mark.parametrize("bun", [Q, B], ids=lambda b: b.label())
def test_view_of_kernel_results(bun):
    secs = samples(bun, 2)
    phi = BASE.poly("x1*x2 - 2")
    for a in secs:
        for b in secs[::3]:
            for result in (a + b, a - b, a - a):
                assert_view(result)
            assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        for result in (-a, a.scale(phi), a.scale(3), a.scale(0)):
            assert_view(result)
        assert (-a).coeffs == tuple(-x for x in a.coeffs)
        assert a.scale(phi).coeffs == tuple(phi * x for x in a.coeffs)
        for summand in SUMMANDS[bun]:
            assert_view(a.component(summand))
    assert (secs[0] - secs[0]) is bun.zero_section()


def test_view_of_leibniz_and_hom_apply():
    delta = standard_dorfman(flat_connection(E))
    hom = HomSection.from_columns(Q, B, random_sections(B, Q.rank, random.Random(3)))
    for v in samples(Q, 4):
        assert_view(hom.apply(v))
        expected = [sum((row[j] * c for j, c in enumerate(v.coeffs)), BASE.zero())
                    for row in hom.matrix]
        assert list(hom.apply(v).coeffs) == expected
        for s in samples(B, 5)[::2]:
            assert_view(delta.apply(v, s))
            assert_view(leibniz(v, s, delta.frame_table, B, pair_rows=delta.predual.pair_rows,
                                d=delta.predual.d))


# a pairing Q x B -> functions that is neither diagonal nor constant, with
# zero entries in every row but the last
PAIRING = [["x1", "0", "1 + x2"],
           ["0", "2", "0"],
           ["x2", "-1/2", "x1*x2"]]
# the same with a 1 in each row, each held as None in its row
UNIT_PAIRING = [["x1", "0", "1"],
                ["1", "2", "0"],
                ["x2", "1", "-1"]]


def hand_built_predual(texts=PAIRING) -> PreDual:
    pairing = [[BASE.poly(text) for text in row] for row in texts]
    # d_B phi = (d_1 phi, x1*d_2 phi, 0): any matrix of polynomials will do
    dmat = [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.coord("x1")],
            [BASE.zero(), BASE.zero()]]
    return PreDual(Q, B, pairing, dmat)


def test_pairing_rows_hold_the_nonzero_entries_of_each_row():
    predual = hand_built_predual()
    assert [[(j, str(p)) for j, p in row] for row in predual.pair_rows] == [
        [(0, "x1"), (2, "x2 + 1")], [(1, "2")], [(0, "x2"), (1, "-1/2"), (2, "x1*x2")]]
    # an entry equal to 1 is marked None, and -1 is held as it is
    unit = hand_built_predual(UNIT_PAIRING)
    assert [[(j, p if p is None else str(p)) for j, p in row] for row in unit.pair_rows] == [
        [(0, "x1"), (2, None)], [(0, None), (1, "2")], [(0, "x2"), (1, None), (2, "-1")]]


def test_pair_over_rows_equals_the_dense_sum():
    for predual in (hand_built_predual(), hand_built_predual(UNIT_PAIRING)):
        for v in samples(Q, 6):
            for s in samples(B, 7):
                total = BASE.zero()
                for i, a in enumerate(v.coeffs):
                    for j, b in enumerate(s.coeffs):
                        total = total + a * b * predual.pairing[i][j]
                assert predual.pair(v, s) == total


def test_leibniz_reads_the_pairing_rows_in_the_first_slot():
    """Delta_{phi v} s = phi Delta_v s + <v, s> d_B phi over the hand-built
    pairings: the pairing term of the Leibniz extension."""
    for texts in (PAIRING, UNIT_PAIRING):
        predual = hand_built_predual(texts)
        rng = random.Random(8)
        bracket = AnchoredBracket(Q, pr_tm_hom(Q), [random_sections(Q, Q.rank, rng)
                                                    for _ in range(Q.rank)])
        delta = DorfmanConnection(predual, bracket,
                                  [random_sections(B, B.rank, rng) for _ in range(Q.rank)])
        for phi in (BASE.poly("x1"), BASE.poly("x1*x2 + 3"), BASE.poly("x2^2")):
            assert not predual.d(phi).is_zero()
            for v in samples(Q, 9)[::2]:
                for s in samples(B, 10)[::3]:
                    expected = (delta.apply(v, s).scale(phi)
                                + predual.d(phi).scale(predual.pair(v, s)))
                    assert delta.apply(v.scale(phi), s) == expected
