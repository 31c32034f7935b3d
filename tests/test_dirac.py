import dataclasses

import pytest

from courant_lab.bundle import Bundle, HomSection, SubBundle, patch
from courant_lab.dirac import (VBTriple, check_bracket_well_defined_on_u,
                               check_dirac, check_equivalent, dirac_verdicts,
                               shift_dorfman)
from courant_lab.dorfman import (Connection, DorfmanConnection, im2form_dorfman,
                                 standard_dorfman)
from builders import curvature, flat_connection

BASE = patch("x1", "x2")


@pytest.fixture(scope="module")
def ex_c():
    """Graph triple of sigma = id on a rank-2 bundle, flat connection."""
    e = Bundle.vector(BASE, "E", ("c1", "c2"))
    sigma = HomSection(e, Bundle.cotangent(BASE),
                       [[BASE.one(), BASE.zero()], [BASE.zero(), BASE.one()]])
    delta = im2form_dorfman(sigma, flat_connection(e))
    u = SubBundle("U", [delta.q.section(Dx1=1) - delta.q.section(c1s=1),
                        delta.q.section(Dx2=1) - delta.q.section(c2s=1)])
    k = SubBundle("K", [delta.b.section(c1=1, dx1=1), delta.b.section(c2=1, dx2=1)])
    return VBTriple(delta, u, k)


@pytest.fixture(scope="module")
def ex_d():
    """Line field plus dual frame for a flat rank-1 bundle."""
    e = Bundle.vector(BASE, "F", ("eps",))
    delta = standard_dorfman(flat_connection(e))
    u = SubBundle("U", [delta.q.section(Dx1=1), delta.q.section(epss=1)])
    k = SubBundle("K", [delta.b.section(dx2=1)])
    return VBTriple(delta, u, k)


@pytest.fixture(scope="module")
def ex_a_triple():
    """Full U, zero K over the curved line bundle: not Dirac."""
    e = Bundle.vector(BASE, "E", ("eps",))
    delta = standard_dorfman(Connection(e, [[e.zero_section()], [e.section(eps="x1")]]))
    return VBTriple(delta, SubBundle("U", delta.q.frame_sections()),
                    SubBundle("K", [], delta.b))


def test_vb_triple_is_frozen_and_computes_its_checks_once(ex_d):
    with pytest.raises(dataclasses.FrozenInstanceError):
        ex_d.k_sub = ex_d.u_annihilator
    assert ex_d.u_annihilator is ex_d.u_annihilator
    assert ex_d.restricted_bracket is ex_d.restricted_bracket
    assert check_dirac(ex_d) is check_dirac(ex_d)


def test_curvature_into_k_applies_delta_once_per_term(monkeypatch):
    # Delta_{u_j} b_m is computed once, and Delta_{u_i} Delta_{u_j} b_m once for
    # both R(u_i, u_j) b_m and R(u_j, u_i) b_m; K = 0, so closure applies nothing
    e = Bundle.vector(BASE, "E", ("eps",))
    delta = standard_dorfman(Connection(e, [[e.zero_section()], [e.section(eps="x1")]]))
    triple = VBTriple(delta, SubBundle("U", delta.q.frame_sections()),
                      SubBundle("K", [], delta.b))
    calls = []
    real = DorfmanConnection.apply
    monkeypatch.setattr(DorfmanConnection, "apply",
                        lambda self, v, s: calls.append(1) or real(self, v, s))
    report = check_dirac(triple)
    monkeypatch.undo()
    r_u, r_b = triple.u_sub.rank, delta.b.rank
    # 63 applications, where the definition (builders.curvature) takes five per
    # (u_i, u_j, b_m): 135
    assert len(calls) == r_u * r_b + 2 * r_u ** 2 * r_b
    # the shared terms give the witnesses of the definition
    u_secs = triple.u_sub.sections
    expected = [(f"(u{i + 1}; u{j + 1}; {delta.b.frame[m]})", str(column))
                for i, u1 in enumerate(u_secs) for j, u2 in enumerate(u_secs)
                for m, column in enumerate(curvature(delta, u1, u2).column(m)
                                           for m in range(r_b))
                if not column.is_zero()]
    found = [(w.inputs, w.difference) for w in report.witnesses
             if w.identity == "curvature-into-K"]
    assert expected and found == expected


def test_ex_c_is_dirac(ex_c):
    report = check_dirac(ex_c)
    assert report.passed
    verdicts = dirac_verdicts(report)
    assert verdicts == {"isotropic": True, "lagrangian": True,
                        "sub-dvb-closed": True, "dirac": True}


def test_ex_d_is_dirac(ex_d):
    assert check_dirac(ex_d).passed


def test_ex_a_triple_fails_with_curvature_witness(ex_a_triple):
    report = check_dirac(ex_a_triple)
    assert not report.passed
    assert not dirac_verdicts(report)["dirac"]
    # the failures are the Lie condition and the curvature condition
    kinds = {w.identity for w in report.witnesses}
    assert "restricted-lie" in kinds and "curvature-into-K" in kinds


def test_equivalence_class(ex_d):
    delta, u, k = ex_d.delta, ex_d.u_sub, ex_d.k_sub
    assert check_equivalent(delta, delta, u, k).passed
    shifted = shift_dorfman(delta, {(0, 0): delta.b.section(dx2="x1")})
    assert check_equivalent(delta, shifted, u, k).passed
    outside = shift_dorfman(delta, {(0, 0): delta.b.section(dx1=1)})
    report = check_equivalent(delta, outside, u, k)
    assert not report.passed and report.witnesses


def test_shift_restricted_to_e_columns(ex_d):
    from courant_lab.bundle import BundleError

    with pytest.raises(BundleError):
        shift_dorfman(ex_d.delta, {(0, 1): ex_d.delta.b.section(dx1=1)})


def test_verdicts_invariant_under_equivalent_representative(ex_c):
    delta, u, k = ex_c.delta, ex_c.u_sub, ex_c.k_sub
    shifted = shift_dorfman(delta, {(0, 0): k.sections[0].scale(BASE.coord("x1")),
                                    (1, 1): k.sections[1]})
    assert check_equivalent(delta, shifted, u, k).passed
    report = check_dirac(VBTriple(shifted, u, k))
    assert dirac_verdicts(report) == dirac_verdicts(check_dirac(ex_c))


def test_bracket_well_defined(ex_c):
    report = check_bracket_well_defined_on_u(ex_c)
    assert report.passed
    # a shift outside the class still compares, and reports the difference
    outside = shift_dorfman(ex_c.delta, {(0, 0): ex_c.delta.b.section(c2=1)})
    report2 = check_bracket_well_defined_on_u(ex_c, outside)
    assert not report2.passed


def test_bracket_well_defined_requires_annihilator(ex_a_triple):
    # with full U the annihilator is zero; a nonzero K violates K = U-ann
    delta = ex_a_triple.delta
    bad = VBTriple(delta, ex_a_triple.u_sub,
                   SubBundle("K", [delta.b.section(eps=1)]))
    report = check_bracket_well_defined_on_u(bad)
    assert report.status == "error"
