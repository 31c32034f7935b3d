"""The scaled battery cases of the bracket axioms are derived from frame values.

`record_jacobi`, given the anchor of its operation, evaluates the Jacobi
identity on frame triples only and derives the case with third slot
phi e_k by the Leibniz lemma J(e_i, e_j, phi e_k) = phi J(e_i, e_j, e_k)
+ D_ij(phi) e_k; `AnchoredBracket.check_lie` reads antisymmetry as
phi psi ([e_i, e_j] + [e_j, e_i]).  The oracle here evaluates every case
literally, by nested brackets over the whole battery, and asserts that each
derived value is the same section: over every bracket and Courant
algebroid that the catalog, the golden specs and the generated benchmark
workloads at seeds 7 and 11 check, the failing fixtures among them, and a
rank-0 bundle.

The lemma rests on the right Leibniz rule [x, phi y] = phi [x, y] +
rho(x)(phi) y, which `leibniz` satisfies exactly.  A `leibniz` that breaks
it is still caught: by the random Jacobi windows of `lie`, which are
evaluated literally, and by `5-right-leibniz` of `courant-axioms`.
"""

from pathlib import Path

import pytest

from courant_lab import algebroid, bundle, checks, courant, dorfman, laops, prolong
from courant_lab.algebroid import AnchoredBracket, BatteryTable, record_symmetrized
from courant_lab.bundle import Bundle, FrameTable, SubBundle, patch
from courant_lab.catalog import catalog_names, catalog_text
from courant_lab.courant import standard_courant
from courant_lab.report import Checker
from courant_lab.specfile import parse_spec

from builders import identity_map

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
JACOBI_USERS = (algebroid, courant, laops, prolong)  # every module that calls record_jacobi


class Recording(Checker):
    """A Checker that keeps every recorded (identity, inputs, difference)."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.values = []
        Recording.made.append(self)

    def record(self, identity, inputs, difference):
        self.values.append((identity, inputs, difference))
        return super().record(identity, inputs, difference)


@pytest.fixture
def oracle(monkeypatch):
    """Checks each derived Jacobi and antisymmetry case against its literal
    value while the package runs; returns the compared cases by identity."""
    compared = {}
    real_jacobi = algebroid.record_jacobi
    real_lie = AnchoredBracket._lie_report

    def compare(identity, derived, literal):
        assert [(i, label) for i, label, _ in derived] == [(i, label) for i, label, _ in literal]
        for (_, label, value), (_, _, expected) in zip(derived, literal):
            assert value == expected, (identity, label)
        compared.setdefault(identity, []).extend(value for _, _, value in derived)

    def checked_jacobi(chk, identity, table, op, third=None, negate=False, anchor=None):
        if anchor is not None:
            derived, literal = Recording("derived", ""), Recording("literal", "")
            real_jacobi(derived, identity, table, op, third, negate, anchor=anchor)
            real_jacobi(literal, identity, BatteryTable(table.rows, table.cols), op, third,
                        negate)
            compare(identity, derived.values, literal.values)
        real_jacobi(chk, identity, table, op, third, negate, anchor=anchor)

    def checked_lie(self, seed):
        before = len(Recording.made)
        report = real_lie(self, seed)
        [lie] = [chk for chk in Recording.made[before:] if chk.name == "lie"]
        literal = Recording("literal", "")
        batt = self.bundle.battery
        record_symmetrized(literal, "antisymmetry", batt,
                           BatteryTable(batt, batt).full(self.bracket))
        compare("antisymmetry", [v for v in lie.values if v[0] == "antisymmetry"],
                literal.values)
        return report

    monkeypatch.setattr(Recording, "made", [])
    monkeypatch.setattr(algebroid, "Checker", Recording)
    monkeypatch.setattr(AnchoredBracket, "_lie_report", checked_lie)
    for module in JACOBI_USERS:
        monkeypatch.setattr(module, "record_jacobi", checked_jacobi)
    return compared


def _spec_texts(monkeypatch):
    """(name, text, seed) of every catalog entry, golden spec and generated
    workload spec; a battery is deterministic, so the seed matters only to
    the texts of the workloads."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    texts = [(name, catalog_text(name), 7) for name in catalog_names()]
    texts += [(path.stem, path.read_text(), 7) for path in sorted(GOLDEN.glob("*.spec"))]
    for workload in ("scaling-r3", "perturbed-r3"):
        for seed in (7, 11):
            texts += [(f"{workload}-{seed}/{spec.name}", spec.text, seed)
                      for spec in workloads.generate(workload, seed)]
    return texts


def test_derived_battery_cases_equal_the_nested_brackets(oracle, monkeypatch):
    texts = _spec_texts(monkeypatch)
    names = {name.split("/")[0] for name, _, _ in texts}
    assert {"bracket-axioms", "x3-anchor", "perturbed-r3-7", "perturbed-r3-11",
            "scaling-r3-7", "scaling-r3-11", "im2form-zero", "bott-foliation"} <= names
    for name, text, seed in texts:
        spec = parse_spec(text)
        for check, args, _ in spec.checks:
            checks.run_check(spec, check, list(args), seed)
    # every derived identity was compared, on passing and on failing cases
    assert set(oracle) == {"antisymmetry", "jacobi", "1-leibniz-jacobi", "jacobi-leibniz"}
    for identity, values in oracle.items():
        assert len(values) > 100, identity
    for identity in ("antisymmetry", "jacobi", "1-leibniz-jacobi"):  # the failing fixtures
        assert any(not value.is_zero() for value in oracle[identity]), identity


def test_rank_zero_batteries_derive_nothing(oracle):
    base = patch("x1", "x2")
    empty = AnchoredBracket.induced(SubBundle("F", [], Bundle.tangent(base)), [], [])
    chk = Recording("lie", "")
    algebroid.record_jacobi(chk, "jacobi", empty.battery_table, empty.bracket,
                            anchor=empty.anchor)
    assert chk.values == [] and empty.battery_table.rows.sections == ()
    assert empty.check_lie(7).passed
    report = standard_courant(patch()).check_axioms()
    assert report.status == "not-applicable"
    assert all(values == [] for values in oracle.values())


def _break_right_leibniz(monkeypatch):
    """Rebind leibniz to a mutant that doubles its anchor term x_i rho_i(y_j) f_j,
    so [x, phi y] - phi [x, y] is 2 rho(x)(phi) y: right Leibniz fails for
    every non-constant coefficient phi."""
    real = bundle.leibniz

    def mutant(x, y, frame, target, bracket=False, pair_rows=(), d=None):
        anchor_only = FrameTable([], [])
        anchor_only.entries = tuple(((),) * len(row) for row in frame.entries)
        anchor_only.anchors = frame.anchors
        return (real(x, y, frame, target, bracket, pair_rows, d)
                + real(x, y, anchor_only, target))

    for module in (algebroid, bundle, courant, dorfman, laops, prolong):
        if getattr(module, "leibniz", None) is real:  # every module that imports it
            monkeypatch.setattr(module, "leibniz", mutant)


def test_a_leibniz_that_breaks_right_leibniz_still_fails_lie_and_courant_axioms(monkeypatch):
    _break_right_leibniz(monkeypatch)
    spec = parse_spec(catalog_text("im2form-zero"))
    [lie] = checks.run_check(spec, "lie", ["A"], 7)
    # the derived battery cases follow the lemma; the literal random windows do not
    assert lie.status == "fail"
    assert {w.identity for w in lie.witnesses} == {"jacobi"}
    assert all(w.inputs.startswith("(random ") for w in lie.witnesses)
    spec = parse_spec(catalog_text("bott-foliation"))
    [axioms] = checks.run_check(spec, "courant-axioms", ["C"], 7)
    assert axioms.status == "fail"
    assert "5-right-leibniz" in {w.identity for w in axioms.witnesses}


def test_the_mutant_breaks_right_leibniz_of_a_bracket(monkeypatch):
    # the mutant is a real fault: [e_1, x1 e_1] - x1 [e_1, e_1] = 2 rho(e_1)(x1) e_1
    _break_right_leibniz(monkeypatch)
    base = patch("x1")
    tangent = Bundle.tangent(base)
    br = AnchoredBracket.from_pairs(tangent, identity_map(tangent))
    [e1] = tangent.frame_sections()
    assert br.bracket(e1, e1.scale(base.coord("x1"))) == e1.scale(base.const(2))
