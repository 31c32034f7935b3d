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

`DorfmanConnection.check_curvature_tensorial` evaluates the curvature R
on frame triples only and derives each case with a battery function phi
in one slot by a Leibniz lemma (see its docstring).  Its oracle evaluates
R at every battery position by nested applications and asserts that each
recorded difference, R there less phi R(q_i, q_j) t, is the derived one:
over every Dorfman connection that the catalog, the golden specs and the
generated workloads at seeds 7 and 11 declare, failing fixtures included,
and two built so that every term of the lemmas is nonzero somewhere: the
Lie derivative of a bracket whose anchor is no morphism, and a pre-dual
pair with non-constant frame pairings.  The lemmas rest on the Leibniz
rules of Delta and of the dull bracket; a `leibniz` that breaks a rule of
Delta is still caught by axiom (a) or (b) of `dorfman-axioms`, which stay
literal.

`courant-axioms` derives its symmetrized and anchor-morphism cases with a
battery function in both slots (record_symmetrized, record_anchor_morphism);
the oracle compares them with the literal table over the same fixtures,
every Courant algebroid that a Manin pair builds (whose D is not rho* d),
and one whose anchor makes rho(D phi) nonzero.  `splitting-theorems`
derives its core-core and linear-core cases from frame brackets on the
total space (prolong.courant_right, courant_left), and B2 from the frame
defects and the defects A and B of the Leibniz rules of Delta; its
oracle brackets every lifted battery section literally, over every
Dorfman connection on a canonical pre-dual pair, again under each
`leibniz` mutant (A or B nonzero) and a dull anchor that is not pr_TM,
and under a tilted core lift, which makes every term of the rules
nonzero.  A `leibniz` that breaks left Leibniz
still fails the literal `2-metric`, and a sign flip in the total-space
bracket still fails `splitting-theorems`.

`section4` derives the symmetrization of `dorfman-like` like
`3-symmetrized`, and `basic-connections` evaluates nabla^bas on frame
sections only (`laops.check_basic_identities`): `linear-in-a`,
`derivation-in-t`, `duality-defect` and `intertwining` are the correction
terms and T terms of its lemmas.  The oracle re-evaluates every case
literally, over every section4 line of the catalog and the golden specs,
and over a built connection whose d_B is not (0, d) and whose dull anchor
is not pr_TM, once on a Lie algebroid and once on a bracket whose anchor
is no morphism, so that each term, the T terms included, is nonzero
somewhere.

Axiom (c) of `dorfman-axioms` and `duality` is evaluated for frame v only,
and `record_metric` derives the case phi q_i by the lemma in its
docstring; the `pairing` of `curvature-jacobiator` is evaluated on the
B-frame, and its case psi b_m is psi times the frame case.  Their oracle
evaluates every case literally, through the public rho, bracket and apply
and R(q_i, q_j) applied to every battery section of B, over every Dorfman
connection of the catalog, the golden specs and the generated workloads
at seeds 7 and 11, and over the tilted connection, where the correction
<q_i, s> (rho(w)(phi) - <w, d_B phi>) is nonzero.

Under the `leibniz` mutants the pinned set of failing lines
of the catalog and the golden specs may not shrink: where a derived
family stops reporting a mutant, a literal line still does (`omega` and
`basic-curvature` for section4's).
"""

from collections import Counter
from pathlib import Path

import pytest

from courant_lab import algebroid, bundle, checks, courant, dorfman, laops, prolong
from courant_lab.algebroid import AnchoredBracket, BatteryTable, record_symmetrized
from courant_lab.bundle import Bundle, FrameTable, HomSection, SubBundle, patch
from courant_lab.catalog import catalog_names, catalog_text
from courant_lab.courant import standard_courant
from courant_lab.report import Checker, CheckReport, PASS
from courant_lab.specfile import parse_spec

from builders import flat_connection, identity_map

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
    real_symmetrized, real_anchor = algebroid.record_symmetrized, algebroid.record_anchor_morphism

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
        record_symmetrized(literal, "antisymmetry", BatteryTable(batt, batt), self.bracket)
        compare("antisymmetry", [v for v in lie.values if v[0] == "antisymmetry"],
                literal.values)
        return report

    def checked_symmetrized(chk, identity, table, op, exact=None, scaled=0):
        if scaled:
            derived, literal = Recording("derived", ""), Recording("literal", "")
            real_symmetrized(derived, identity, table, op, exact, scaled)
            real_symmetrized(literal, identity, BatteryTable(table.rows, table.cols), op, exact)
            compare(identity, derived.values, literal.values)
        real_symmetrized(chk, identity, table, op, exact, scaled)

    def checked_anchor(chk, identity, table, op, anchor, anchors, predual=None):
        if predual is not None:
            derived, literal = Recording("derived", ""), Recording("literal", "")
            real_anchor(derived, identity, table, op, anchor, anchors, predual)
            real_anchor(literal, identity, BatteryTable(table.rows, table.cols), op, anchor,
                        anchors)
            compare(identity, derived.values, literal.values)
        real_anchor(chk, identity, table, op, anchor, anchors, predual)

    monkeypatch.setattr(Recording, "made", [])
    monkeypatch.setattr(algebroid, "Checker", Recording)
    monkeypatch.setattr(AnchoredBracket, "_lie_report", checked_lie)
    for module in JACOBI_USERS:
        monkeypatch.setattr(module, "record_jacobi", checked_jacobi)
    for module in (courant, laops):  # every module that calls record_symmetrized with scaled
        monkeypatch.setattr(module, "record_symmetrized", checked_symmetrized)
    monkeypatch.setattr(courant, "record_anchor_morphism", checked_anchor)
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
    built = []  # the Courant algebroid of every Manin pair the lines build
    real_build = courant.build_manin_pair

    def keeping(lad, triple):
        mp, report = real_build(lad, triple)
        if mp is not None:
            built.append(mp.courant)
        return mp, report

    monkeypatch.setattr(checks, "build_manin_pair", keeping)
    for name, text, seed in texts:
        spec = parse_spec(text)
        for check, args, _ in spec.checks:
            checks.run_check(spec, check, list(args), seed)
    assert built
    before = len(oracle["3-symmetrized"])
    for courant_data in built:  # its D is the Manin pair's, not rho* d
        courant_data.check_axioms()
    assert len(oracle["3-symmetrized"]) > before
    # rho D = rho rho* d vanishes on a Courant algebroid; this one has no such
    # anchor, so the term psi <e_i, e_j> rho(D phi) is nonzero
    _tilted_anchor().check_axioms()
    # every derived identity was compared, on passing and on failing cases
    assert set(oracle) == {"antisymmetry", "jacobi", "1-leibniz-jacobi", "jacobi-leibniz",
                           "3-symmetrized", "4-anchor-morphism", "symmetrization"}
    for identity, values in oracle.items():
        assert len(values) > 100, identity
    for identity in ("antisymmetry", "jacobi", "1-leibniz-jacobi", "3-symmetrized",
                     "4-anchor-morphism"):  # the failing fixtures
        assert any(not value.is_zero() for value in oracle[identity]), identity


def _tilted_anchor():
    """TM + T*M with the standard pairing and symbols, and an anchor that
    also sends dx1 to x2*Dx1, so rho rho* d is not zero; no axiom needs to
    hold for the lemmas."""
    base = patch("x1", "x2")
    std = standard_courant(base)
    tangent = Bundle.tangent(base)
    anchor = HomSection.from_columns(std.bundle, tangent, [
        tangent.section(Dx1=1), tangent.section(Dx2=1), tangent.section(Dx1="x2"),
        tangent.zero_section()])
    return courant.CourantData(std.bundle, anchor, std.pairing, std.symbols)


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


def _double_leibniz_term(monkeypatch, term):
    """Rebind leibniz to a mutant that doubles one of its terms.  The
    "anchor" term x_i rho_i(y_j) f_j: [x, phi y] - phi [x, y] is then
    2 rho(x)(phi) y, and so is Delta_x (phi y) - phi Delta_x y, so right
    Leibniz fails for every non-constant coefficient phi.  The "pairing"
    term y_j P_ij d(x_i) of a Dorfman connection: Delta_{phi q} b -
    phi Delta_q b is then 2 <q, b> d_B phi, so rule (a) fails."""
    real = bundle.leibniz

    def mutant(x, y, frame, target, bracket=False, pair_rows=(), d=None):
        one_term = FrameTable([], [])
        one_term.entries = tuple(((),) * len(row) for row in frame.entries)
        if term == "anchor":
            one_term.anchors = frame.anchors
            extra = real(x, y, one_term, target)
        else:
            one_term.anchors = ((),) * len(frame.anchors)
            extra = real(x, y, one_term, target, pair_rows=pair_rows, d=d)
        return real(x, y, frame, target, bracket, pair_rows, d) + extra

    for module in (algebroid, bundle, courant, dorfman, laops, prolong):
        if getattr(module, "leibniz", None) is real:  # every module that imports it
            monkeypatch.setattr(module, "leibniz", mutant)


def test_a_leibniz_that_breaks_right_leibniz_still_fails_lie_and_courant_axioms(monkeypatch):
    _double_leibniz_term(monkeypatch, "anchor")
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


def test_a_leibniz_that_breaks_left_leibniz_still_fails_courant_axioms(monkeypatch):
    # doubling the pairing term breaks [phi e1, e2] = phi [e1, e2] - rho(e2)(phi) e1
    # + <e1, e2> D phi; 3-symmetrized derives its scaled cases by that rule,
    # and the literal 2-metric, which reads the frame columns [phi e1, e_j],
    # still fails
    _double_leibniz_term(monkeypatch, "pairing")
    spec = parse_spec(catalog_text("bott-foliation"))
    [axioms] = checks.run_check(spec, "courant-axioms", ["C"], 7)
    assert axioms.status == "fail"
    assert "2-metric" in {w.identity for w in axioms.witnesses}


def test_a_sign_flip_in_the_total_space_bracket_still_fails_splitting_theorems(monkeypatch):
    # the frame brackets, from which the scaled cases are derived, come from
    # courant_dorfman_form_part; the mutant flips the sign of its i_{X2} d theta1
    real = bundle.courant_dorfman_form_part

    def flipped(x1, theta1, x2, theta2, base):
        lie = bundle.lie_form_comps(base, x1, theta2)
        return [2 * a - b for a, b in zip(lie, real(x1, theta1, x2, theta2, base))]

    spec = parse_spec(catalog_text("line-bundle-r2"))
    assert checks.run_check(spec, "splitting-theorems", ["Delta"], 7)[0].passed
    monkeypatch.setattr(prolong, "courant_dorfman_form_part", flipped)
    [report] = checks.run_check(parse_spec(catalog_text("line-bundle-r2")),
                                "splitting-theorems", ["Delta"], 7)
    assert report.status == "fail"
    assert "bracket-linear-core" in {w.identity for w in report.witnesses}


def test_the_mutant_breaks_right_leibniz_of_a_bracket(monkeypatch):
    # the mutant is a real fault: [e_1, x1 e_1] - x1 [e_1, e_1] = 2 rho(e_1)(x1) e_1
    _double_leibniz_term(monkeypatch, "anchor")
    base = patch("x1")
    tangent = Bundle.tangent(base)
    br = AnchoredBracket.from_pairs(tangent, identity_map(tangent))
    [e1] = tangent.frame_sections()
    assert br.bracket(e1, e1.scale(base.coord("x1"))) == e1.scale(base.const(2))


@pytest.mark.parametrize("term,axiom", [("anchor", "axiom-b"), ("pairing", "axiom-a")])
def test_a_leibniz_that_breaks_a_rule_of_delta_still_fails_dorfman_axioms(monkeypatch, term,
                                                                         axiom):
    # the curvature lemmas rest on the Leibniz rules of Delta; a leibniz that
    # doubles the term of one of them still fails the literal axiom (b)
    # (anchor term) or (a) (pairing term) of dorfman-axioms, on line-bundle-r2,
    # which passes it, and on DeltaE of curvature-shifts, which fails only (c)
    _double_leibniz_term(monkeypatch, term)
    for text, name, before in ((catalog_text("line-bundle-r2"), "Delta", set()),
                               ((GOLDEN / "curvature-shifts.spec").read_text(), "DeltaE",
                                {"axiom-c"})):
        [axioms] = checks.run_check(parse_spec(text), "dorfman-axioms", [name], 7)
        assert axioms.status == "fail"
        assert axiom in {w.identity for w in axioms.witnesses} - before


def test_the_pairing_mutant_breaks_rule_a_of_a_dorfman_connection(monkeypatch):
    # on the flat rank-1 connection Delta_{eps*} eps = 0, so rule (a) gives
    # Delta_{x1 eps*} eps = <eps*, eps> d_B x1 = dx1; the mutant gives twice that
    _double_leibniz_term(monkeypatch, "pairing")
    base = patch("x1")
    e = Bundle.vector(base, "E", ("eps",))
    delta = dorfman.standard_dorfman(flat_connection(e))
    q = delta.q.section(epss=1)
    scaled = delta.apply(q.scale(base.coord("x1")), delta.b.section(eps=1))
    assert scaled == delta.b.section(dx1=2)


def _literal_curvature_cases(delta):
    """(identity, inputs, difference) of curvature-tensorial in the order the
    check records them, each R(s_a, s_c) t at battery positions evaluated
    literally: Delta_{s_a} Delta_{s_c} t - Delta_{s_c} Delta_{s_a} t -
    Delta_{[[s_a, s_c]]} t, through the public apply and bracket."""
    q_batt, b_batt = delta.battery_table.rows, delta.battery_table.cols
    apply, bracket, nested = delta.apply, delta.bracket.bracket, {}

    def curvature(a, c, t):
        for x, y in ((a, c), (c, a)):
            if (x, y, t) not in nested:
                nested[x, y, t] = apply(q_batt.sections[x],
                                        apply(q_batt.sections[y], b_batt.sections[t]))
        lie = bracket(q_batt.sections[a], q_batt.sections[c])
        return nested[a, c, t] - nested[c, a, t] - apply(lie, b_batt.sections[t])

    q_names, b_names = delta.q.frame, delta.b.frame
    cases = []
    for i, p1 in enumerate(q_batt.frames):
        for j, p2 in enumerate(q_batt.frames):
            base = [curvature(p1, p2, t) for t in b_batt.frames]
            inputs = f"({q_names[i]}; {q_names[j]})"
            for f, (phi, text) in enumerate(zip(q_batt.functions, q_batt.texts)):
                scaled = [value.scale(phi) for value in base]
                q1, q2 = q_batt.pos(i, f), q_batt.pos(j, f)
                for k in range(delta.b.rank):
                    cases.append(("linear-in-b", inputs + f" on ({text})*{b_names[k]}",
                                  curvature(p1, p2, b_batt.pos(k, f)) - scaled[k]))
                for k, t in enumerate(b_batt.frames):
                    cases.append(("linear-in-q1", f"(({text})*{q_names[i]}; {q_names[j]}) on "
                                  f"{b_names[k]}", curvature(q1, p2, t) - scaled[k]))
                    cases.append(("linear-in-q2", f"({q_names[i]}; ({text})*{q_names[j]}) on "
                                  f"{b_names[k]}", curvature(p1, q2, t) - scaled[k]))
    return cases


# the Lie derivative on A* of a bracket whose anchor is no morphism:
# rho[a1, a2] = x1*Dx1 but [Dx1, x1*Dx2] = Dx2, so the anchor defect that
# linear-in-b derives is nonzero (no declared connection has one)
ANCHOR_DEFECT = """
[patch]
coords = x1, x2

[bundle.A]
frame = a1, a2

[anchor.rho]
bundle = A
a1 = Dx1
a2 = x1*Dx2

[bracket.A]
bundle = A
anchor = rho
a1, a2 = x1*a1

[dorfman.L]
lie-derivative-of = A
"""


def _nonconstant_pairing():
    """Dorfman data on a pre-dual pair whose frame pairings and d_B are not
    constant, so that the terms rho_j<q_i, t> of the lemmas are nonzero; no
    spec can declare one.  No axiom needs to hold for the lemmas."""
    base = patch("x1", "x2")
    q, b = Bundle.vector(base, "Q", ("u1", "u2")), Bundle.vector(base, "B", ("w1", "w2"))
    tangent = Bundle.tangent(base)
    x1, x2, one, zero = base.coord("x1"), base.coord("x2"), base.const(1), base.zero()
    predual = dorfman.PreDual(q, b, [[x1, one], [zero, x2]], [[x2, zero], [one, x1]])
    anchor = HomSection.from_columns(q, tangent, [tangent.section(Dx1="x2"),
                                                  tangent.section(Dx2=1)])
    bracket = AnchoredBracket.from_pairs(q, anchor, {(0, 1): q.section(u1="x1")})
    symbols = [[b.section(w2="x1*x2"), b.section(w1=1)], [b.zero_section(), b.section(w1="x2^2")]]
    return dorfman.DorfmanConnection(predual, bracket, symbols)


def test_derived_curvature_cases_equal_the_nested_applications(monkeypatch):
    texts = _spec_texts(monkeypatch) + [("anchor-defect", ANCHOR_DEFECT, 7)]
    connections = [(f"{name.split('/')[0]}: {label}", delta) for name, text, _ in texts
                   for label, delta in parse_spec(text).objects["dorfman"].items()]
    connections.append(("nonconstant-pairing", _nonconstant_pairing()))
    compared, nonzero = Counter(), Counter()
    for name, delta in connections:
        chk = Recording("derived", "")
        monkeypatch.setattr(dorfman, "Checker", lambda *args: chk)
        delta.check_curvature_tensorial()
        literal = _literal_curvature_cases(delta)
        assert [case[:2] for case in chk.values] == [case[:2] for case in literal]
        for (identity, inputs, value), (_, _, expected) in zip(chk.values, literal):
            assert value == expected, (name, inputs)
            compared[identity] += 1
            nonzero[identity] += not value.is_zero()
    assert {"line-bundle-r2: Delta", "curvature-shifts: DeltaE", "scaling-r3-7: Delta",
            "scaling-r3-11: Delta", "perturbed-r3-7: Delta", "perturbed-r3-11: Delta",
            "anchor-defect: L"} <= {name for name, _ in connections}
    assert set(compared) == {"linear-in-b", "linear-in-q1", "linear-in-q2"}
    assert sum(compared.values()) > 10000
    # the failing fixtures: the shifted connections and the two built to fail
    assert all(nonzero[identity] for identity in compared), nonzero


# the identities of splitting-theorems whose scaled cases are derived
SPLITTING_DERIVED = ("pairing-core-core", "bracket-core-core", "bracket-linear-core")


def _literal_splitting_cases(delta):
    """(identity, inputs, value) of the derived identities of
    splitting-theorems in the order the check records them, each evaluated
    literally on the total space: the pairing and bracket of the lifts of
    two battery sections, and [phi q_i~, s^] on the scaled linear lift."""
    tp = prolong.total_patch_of(delta.e)
    q_batt, b_batt = delta.battery_table.rows, delta.battery_table.cols
    lifts = [prolong.lift_linear(tp, delta, v) for v in delta.q.frame_sections()]
    cores = [(label, prolong.lift_core(tp, delta, s))
             for label, s in zip(b_batt.labels, b_batt.sections)]
    cases = []
    for label1, c1 in cores:
        for label2, c2 in cores:
            inputs = f"({label1}; {label2})"
            cases += [("pairing-core-core", inputs, prolong.total_pairing(c1, c2)),
                      ("bracket-core-core", inputs, prolong.total_courant(c1, c2))]
    for i, lift in enumerate(lifts):
        for f, (phi, text) in enumerate(zip(q_batt.functions, q_batt.texts)):
            scaled = lift.scale(tp.embed(phi))
            for t, (label, core) in enumerate(cores):
                rhs = prolong.lift_core(tp, delta, delta.battery_apply(q_batt.pos(i, f), t))
                cases.append(("bracket-linear-core", f"(({text})*{delta.q.frame[i]}; {label})",
                              prolong.total_courant(scaled, core) - rhs))
    return cases


def _same(value, expected):
    """Equal normal forms; the check and the oracle build their own total
    patch, so a lifted section is compared by its coefficients."""
    if isinstance(value, prolong.LiftedSection):
        return (value.vf.coeffs == expected.vf.coeffs
                and value.form.coeffs == expected.form.coeffs)
    return value == expected


def _tilt_core_lifts(monkeypatch):
    """Rebind prolong.lift_core to a C-infinity(M)-linear lift that is not
    vertical: the lift of sigma gains (sum_k sigma_k) (d/dx1 + dy1).  The
    lemmas assume no shape of a lift, and under this one every term of
    courant_right and courant_left, the -Y(phi) a term and the pairing of
    two cores included, is nonzero somewhere, as no true core lift makes
    them."""
    real = prolong.lift_core

    def tilted(tp, delta, sigma):
        total = tp.zero()
        for _, c in sigma.nonzero():
            total = total + tp.embed(c)
        zero = tp.zero()
        extra = prolong.LiftedSection(
            tp.field(bundle.TM, base=[total] + [zero] * (len(tp.base_coords) - 1)),
            tp.field(bundle.COTM, fiber=[total] + [zero] * (len(tp.fiber_coords) - 1)))
        return real(tp, delta, sigma) + extra

    monkeypatch.setattr(prolong, "lift_core", tilted)


def _compare_splitting(monkeypatch, delta, compared, nonzero, terms=None):
    chk = Recording("derived", "")
    monkeypatch.setattr(prolong, "Checker", lambda *args: chk)
    prolong.verify_splitting_theorems(delta)
    derived = [case for case in chk.values if case[0] in SPLITTING_DERIVED]
    literal = _literal_splitting_cases(delta)
    assert [case[:2] for case in derived] == [case[:2] for case in literal]
    for (identity, inputs, value), (_, _, expected) in zip(derived, literal):
        assert _same(value, expected), (identity, inputs)
        compared[identity] += 1
        nonzero[identity] += not value.is_zero()
    if terms is not None:
        terms.update(_nonzero_splitting_terms(delta))


# the terms that the B2 identities add to the frame defects
# (prolong.verify_splitting_theorems)
SPLITTING_TERMS = ("A^", "B^", "(X(psi) - rho_i(psi)) b_m^",
                   "<q_i~, s^> dphi - <q_i, s> (d_B phi)^")


def _nonzero_splitting_terms(delta):
    """How many scaled cases of bracket-linear-core have each term of
    SPLITTING_TERMS nonzero, every term evaluated literally: Delta by
    apply, rho_i(psi) by the anchor, the lifts of A and B, and the pairing
    term by total_pairing and the lift of d_B phi."""
    tp = prolong.total_patch_of(delta.e)
    q_batt, b_batt = delta.battery_table.rows, delta.battery_table.cols
    base, cores = delta.q.patch, [prolong.lift_core(tp, delta, s) for s in b_batt.sections]
    no_vf = tp.field(bundle.TM)
    a_term, b_term, x_term, pairing_term = SPLITTING_TERMS
    counts = Counter()
    for i, q_i in enumerate(delta.q.frame_sections()):
        lift, rho_i = prolong.lift_linear(tp, delta, q_i), delta.bracket.rho(q_i).nonzero()
        for t, s in enumerate(b_batt.sections):
            m, g = b_batt.factors(t)
            b_m, psi = b_batt.sections[b_batt.frames[m]], b_batt.functions[g]
            rho_psi = bundle.vf_apply(base, rho_i, psi)
            b_defect = delta.apply(q_i, s) - delta.apply(q_i, b_m).scale(psi) - b_m.scale(rho_psi)
            x_psi = bundle.vf_apply(tp.patch, lift.vf.nonzero(), tp.embed(psi))
            counts[b_term] += not prolong.lift_core(tp, delta, b_defect).is_zero()
            counts[x_term] += not cores[b_batt.frames[m]].scale(
                x_psi - tp.embed(rho_psi)).is_zero()
        for phi in q_batt.functions[1:]:
            d_phi = prolong.LiftedSection(no_vf, bundle.d_scalar(tp.patch, tp.embed(phi)))
            d_b = delta.predual.d(phi)
            for s, core in zip(b_batt.sections, cores):
                paired = delta.predual.pair(q_i, s)
                a_defect = (delta.apply(q_i.scale(phi), s) - delta.apply(q_i, s).scale(phi)
                            - d_b.scale(paired))
                pairing = (d_phi.scale(prolong.total_pairing(lift, core))
                           - prolong.lift_core(tp, delta, d_b).scale(tp.embed(paired)))
                counts[a_term] += not prolong.lift_core(tp, delta, a_defect).is_zero()
                counts[pairing_term] += not pairing.is_zero()
    return counts


def _splitting_connections(texts):
    return [(f"{name.split('/')[0]}: {label}", delta) for name, text, _ in texts
            for label, delta in parse_spec(text).objects["dorfman"].items()
            if delta.predual.e is not None]


def _reanchored(delta):
    """delta with a dull anchor that is not pr_TM: each rho(q_k) gains
    x_n d/dx1, x_n the last coordinate, so X(psi) - rho_i(psi) is nonzero
    for the linear lift, whose vector field still projects to pr_TM q_i."""
    base = delta.q.patch
    tangent = Bundle.tangent(base)
    shift = tangent.frame_section(0).scale(base.coord(base.coords[-1]))
    anchor = HomSection.from_columns(delta.q, tangent, [delta.bracket.rho(q) + shift
                                                        for q in delta.q.frame_sections()])
    return dorfman.DorfmanConnection(
        delta.predual, AnchoredBracket(delta.q, anchor, delta.bracket.structure), delta.symbols)


def test_derived_splitting_cases_equal_the_total_space_brackets(monkeypatch):
    texts = _spec_texts(monkeypatch)
    connections = _splitting_connections(texts)
    assert {"line-bundle-r2: Delta", "curvature-shifts: DeltaE", "scaling-r3-7: Delta",
            "scaling-r3-11: Delta", "perturbed-r3-7: Delta",
            "perturbed-r3-11: Delta"} <= {name for name, _ in connections}
    compared, nonzero = Counter(), Counter()
    for _, delta in connections:
        _compare_splitting(monkeypatch, delta, compared, nonzero)
    assert set(compared) == set(SPLITTING_DERIVED) and sum(compared.values()) > 10000
    # B1, P3 and B2 hold for every Leibniz extension, the failing fixtures'
    # included, so the cases vanish
    assert nonzero == Counter()
    # each term of the B2 identities is nonzero somewhere: A under the
    # mutant that doubles the pairing term, B under the one that doubles the
    # anchor term (fresh parses, since a table keeps its values), X(psi) -
    # rho_i(psi) under a dull anchor that is not pr_TM, and the pairing term
    # under the tilted core lifts
    terms = Counter()
    for term in ("anchor", "pairing"):
        with monkeypatch.context() as mutated:
            _double_leibniz_term(mutated, term)
            mutants, broken = Counter(), Counter()
            for _, delta in _splitting_connections(texts):
                _compare_splitting(mutated, delta, mutants, broken, terms)
            assert broken["bracket-linear-core"], term
    line_bundle = dict(connections)["line-bundle-r2: Delta"]
    _compare_splitting(monkeypatch, _reanchored(line_bundle), compared, nonzero, terms)
    _tilt_core_lifts(monkeypatch)
    compared, nonzero = Counter(), Counter()
    for name, delta in connections:
        if name in ("line-bundle-r2: Delta", "curvature-shifts: DeltaE"):
            _compare_splitting(monkeypatch, delta, compared, nonzero, terms)
    # the tilted lifts make every term of courant_right and courant_left nonzero
    assert set(nonzero) == set(SPLITTING_DERIVED)
    assert all(terms[term] for term in SPLITTING_TERMS), terms


# the identities of basic-connections whose battery cases are derived
BASIC_DERIVED = ("linear-in-a", "derivation-in-t", "duality-defect", "intertwining")


def _literal_basic_cases(lad, delta):
    """(identity, inputs, value) of basic-connections in the order the check
    records them, each evaluated literally: nabla^bas at every battery
    position, the duality defect and the intertwining of every battery pair."""
    battery, pair = lad.base.battery, delta.predual.pair
    a_batt, v_batt, s_batt = lad.a_bundle.battery, lad.v_bundle.battery, lad.sigma_bundle.battery
    targets = list(zip(v_batt.labels + s_batt.labels, v_batt.sections + s_batt.sections))
    n_v, anchors = len(v_batt.sections), lad.bracket.frame_table.anchors
    a_frames, cases, nablas = lad.a_bundle.frame_sections(), [], []
    for k, a in enumerate(a_frames):
        aname = lad.a_bundle.frame[k]
        rho_phi = [bundle.vf_apply(lad.base, anchors[k], phi) for phi, _ in battery]
        nablas.append([])
        for t_i, (label_t, t) in enumerate(targets):
            basic = lad.basic_v if t_i < n_v else lad.basic_sigma
            nabla = basic(delta, a, t)
            nablas[k].append(nabla)
            for f, (phi, text) in enumerate(battery):
                cases.append(("linear-in-a", f"(({text})*{aname}; {label_t})",
                              basic(delta, a_batt.sections[a_batt.pos(k, f)], t) - nabla.scale(phi)))
                cases.append(("derivation-in-t", f"({aname}; ({text})*{label_t})",
                              basic(delta, a, t.scale(phi)) - nabla.scale(phi) - t.scale(rho_phi[f])))
    for k, a in enumerate(a_frames):
        aname, a_lift = lad.a_bundle.frame[k], lad.sigma_bundle.join(a)
        for p, (label_v, v) in enumerate(targets[:n_v]):
            for q, (label_s, sigma) in enumerate(targets[n_v:]):
                image = lad.image(sigma)
                skew = lad.dull_bracket(delta, v, image) + lad.dull_bracket(delta, image, v)
                cases.append(("duality-defect", f"({aname}; {label_v}; {label_s})",
                              pair(nablas[k][p], sigma) + pair(v, nablas[k][n_v + q])
                              - bundle.vf_apply(lad.base, anchors[k], pair(v, sigma))
                              + pair(skew, a_lift)))
        for q, (label_s, sigma) in enumerate(targets[n_v:]):
            cases.append(("intertwining", f"({aname}; {label_s})",
                          lad.basic_v(delta, a, lad.image(sigma))
                          - lad.pair_map.apply(nablas[k][n_v + q])))
    return cases


def _tilted_dorfman(lad):
    """A Dorfman connection on TM + A* and A + T*M whose d_B is (0, d) plus
    x2 d_1 phi (a_1, 0), whose dull bracket's anchor is not pr_TM and whose
    symbols are not constant; the pairing is the canonical one.  So every
    term of the basic-connection lemmas, the T terms and the corrections of
    linear-in-a included, is nonzero somewhere, as on no declared
    connection.  No axiom needs to hold for the lemmas."""
    canonical = dorfman.canonical_predual(lad.a_bundle)
    q, b, base = canonical.q, canonical.b, lad.base
    x1, x2 = base.coord("x1"), base.coord("x2")
    dmat = [list(row) for row in canonical.dmat]
    dmat[0][0] = x2
    predual = dorfman.PreDual(q, b, canonical.pairing, dmat)
    tangent = Bundle.tangent(base)
    anchor = HomSection.from_columns(q, tangent, [
        tangent.section(Dx1=1), tangent.section(Dx2=1), tangent.section(Dx2="x1"),
        tangent.section(Dx1="x2")])
    bracket = AnchoredBracket.from_pairs(q, anchor, {(0, 2): q.section(Dx1="x2")})
    frames = b.frame_sections()
    symbols = [[frames[(i + j) % b.rank].scale(x1 if (i + j) % 2 else x2) for j in range(b.rank)]
               for i in range(q.rank)]
    return dorfman.DorfmanConnection(predual, bracket, symbols)


def _section4_pairs(monkeypatch):
    """(name, lad, delta) for every section4 line of the catalog and the
    golden specs (the generated workloads run none)."""
    pairs = []
    for name, text, seed in _spec_texts(monkeypatch):
        spec = parse_spec(text)
        for check, args, _ in spec.checks:
            if check == "section4":
                bracket, delta = spec.resolve(check, list(args))
                pairs.append((name, checks._lad(spec, seed, bracket, delta), delta))
    return pairs


def test_derived_basic_connection_cases_equal_the_literal_values(monkeypatch):
    pairs = _section4_pairs(monkeypatch)
    assert {name for name, _, _ in pairs} == {"im2form-zero", "point-bialgebroid",
                                              "curvature-shifts"}
    [lad] = [lad for name, lad, _ in pairs if name == "im2form-zero"]
    tilted = _tilted_dorfman(lad)
    pairs.append(("tilted", laops.LieAlgebroidData(lad.bracket, lad.lie_report), tilted))
    # the bracket of ANCHOR_DEFECT is no Lie algebroid, so its data is built
    # past the gate: the lemmas assume no axiom, and there the intertwining
    # L_a (rho,rho*) sigma - (rho,rho*) L_a sigma, which vanishes on every Lie
    # algebroid, is nonzero
    skewed = laops.LieAlgebroidData(parse_spec(ANCHOR_DEFECT).lookup("bracket", "A"),
                                    CheckReport("lie", "", PASS))
    pairs.append(("anchor-defect", skewed, _tilted_dorfman(skewed)))
    compared, nonzero = Counter(), Counter()
    for name, lad, delta in pairs:
        chk = Recording("derived", "")
        monkeypatch.setattr(laops, "Checker", lambda *args: chk)
        laops.check_basic_identities(lad, delta)
        literal = _literal_basic_cases(lad, delta)
        assert [case[:2] for case in chk.values] == [case[:2] for case in literal]
        for (identity, inputs, value), (_, _, expected) in zip(chk.values, literal):
            assert value == expected, (name, identity, inputs)
            compared[name, identity] += 1
            # on A + T*M a target's label names a frame element of A or T*M
            on_sigma = any(f"{s})" in inputs for s in lad.sigma_bundle.frame)
            nonzero[name, identity, on_sigma] += not value.is_zero()
    assert compared["im2form-zero", "duality-defect"] == 2 * 20 * 20
    assert all(compared["point-bialgebroid", identity] for identity in BASIC_DERIVED)
    # curvature-shifts fails its duality defect; the tilted connections make
    # every lemma term nonzero: d_B is not D, so the T terms (derivation-in-t)
    # are nonzero on both kinds of target, and rho_Delta(w) is not X_w
    x1 = lad.base.coord("x1")
    assert tilted.predual.d(x1) != bundle.db_canonical(lad.sigma_bundle, x1)
    assert nonzero["curvature-shifts", "duality-defect", True]
    for name in ("tilted", "anchor-defect"):
        for identity in ("linear-in-a", "derivation-in-t"):
            assert nonzero[name, identity, False] and nonzero[name, identity, True], identity
        assert nonzero[name, "duality-defect", True]
    assert nonzero["anchor-defect", "intertwining", True]
    assert not nonzero["tilted", "intertwining", True]


def _literal_axiom_c_cases(delta, s_positions):
    """(inputs, value) of axiom-c in the order the checks record them, v over
    the battery of Q, w over its frame and s at s_positions of the battery
    of B, each evaluated literally: rho(v)<w, s> - <[v, w], s> - <w,
    Delta_v s> through the public rho, bracket and apply."""
    q_batt, b_batt = delta.q.battery, delta.b.battery
    pair, base = delta.predual.pair, delta.q.patch
    ws = [(q_batt.labels[t], q_batt.sections[t]) for t in q_batt.frames]
    cases = []
    for label, v in zip(q_batt.labels, q_batt.sections):
        rho_v = delta.bracket.rho(v).nonzero()
        applied = [delta.apply(v, b_batt.sections[p]) for p in s_positions]
        for name, w in ws:
            lie = delta.bracket.bracket(v, w)
            for p, delta_v in zip(s_positions, applied):
                s = b_batt.sections[p]
                cases.append((f"({label}; {name}; {b_batt.labels[p]})",
                              bundle.vf_apply(base, rho_v, pair(w, s)) - pair(lie, s)
                              - pair(w, delta_v)))
    return cases


def _literal_pairing_cases(delta):
    """(inputs, value) of the pairing of curvature-jacobiator in the order the
    check records them, with R(q_i, q_j) applied to every battery section
    of B and the Jacobiator of the frame triple from nested brackets."""
    q_batt, b_batt = delta.q.battery, delta.b.battery
    bracket, pair, names = delta.bracket.bracket, delta.predual.pair, delta.q.frame
    frames = [q_batt.sections[t] for t in q_batt.frames]
    cases = []
    for i, qi in enumerate(frames):
        for j, qj in enumerate(frames):
            images = [delta.frame_curvature(i, j).apply(b) for b in b_batt.sections]
            for k, qk in enumerate(frames):
                triple = (bracket(bracket(qi, qj), qk) + bracket(qj, bracket(qi, qk))
                          - bracket(qi, bracket(qj, qk)))
                for label_b, b, image in zip(b_batt.labels, b_batt.sections, images):
                    cases.append((f"({names[i]}; {names[j]}; {names[k]}; {label_b})",
                                  pair(qk, image) - pair(triple, b)))
    return cases


def _recorded(monkeypatch, check, identity):
    """(inputs, value) of identity in the report of the call check()."""
    chk = Recording("derived", "")
    monkeypatch.setattr(dorfman, "Checker", lambda *args: chk)
    check()
    return [(inputs, value) for name, inputs, value in chk.values if name == identity]


def _scaled_from_frame(delta, cases, slot_batt, slot):
    """How many cases differ from phi times the case of the frame section
    that phi scales in the given slot of the inputs: the cases whose
    correction term is nonzero."""
    by_inputs = dict(cases)
    differing = 0
    for inputs, value in cases:
        parts = inputs[1:-1].split("; ")
        p = slot_batt.labels.index(parts[slot])
        l, f = slot_batt.factors(p)
        if f:
            parts[slot] = slot_batt.labels[slot_batt.frames[l]]
            frame_value = by_inputs[f"({'; '.join(parts)})"]
            differing += value != slot_batt.functions[f] * frame_value
    return differing


def test_derived_axiom_c_and_pairing_cases_equal_the_literal_values(monkeypatch):
    texts = _spec_texts(monkeypatch) + [("anchor-defect", ANCHOR_DEFECT, 7)]
    connections = [(f"{name.split('/')[0]}: {label}", delta) for name, text, _ in texts
                   for label, delta in parse_spec(text).objects["dorfman"].items()]
    spec = parse_spec(catalog_text("im2form-zero"))
    tilted = _tilted_dorfman(checks._lad(spec, 7, spec.lookup("bracket", "A")))
    connections += [("nonconstant-pairing", _nonconstant_pairing()), ("tilted", tilted)]
    assert {"line-bundle-r2: Delta", "curvature-shifts: DeltaE", "bracket-axioms: DeltaE",
            "scaling-r3-7: Delta", "scaling-r3-11: Delta", "perturbed-r3-7: Delta",
            "perturbed-r3-11: Delta"} <= {name for name, _ in connections}
    compared, nonzero, corrected = Counter(), Counter(), Counter()
    for name, delta in connections:
        b_batt = delta.b.battery
        for check, identity, literal in (
                (delta.check_axioms, "axiom-c", _literal_axiom_c_cases(delta, b_batt.frames)),
                (delta.check_duality, "axiom-c",
                 _literal_axiom_c_cases(delta, range(len(b_batt.sections)))),
                (delta.curvature_vs_jacobiator, "pairing", _literal_pairing_cases(delta))):
            derived = _recorded(monkeypatch, check, identity)
            assert [inputs for inputs, _ in derived] == [inputs for inputs, _ in literal]
            for (inputs, value), (_, expected) in zip(derived, literal):
                assert value == expected, (name, identity, inputs)
                nonzero[identity] += not value.is_zero()
            compared[identity] += len(derived)
            if identity == "axiom-c":
                corrected[name] += _scaled_from_frame(delta, literal, delta.q.battery, 0)
    assert compared["axiom-c"] > 10000 and compared["pairing"] > 10000
    # the failing fixtures: the shifted connections and the ones built to fail
    assert nonzero["axiom-c"] and nonzero["pairing"]
    # on the tilted connection <q_i, s> (rho(w)(phi) - <w, d_B phi>) is
    # nonzero in some case; on a canonical pre-dual with rho = pr_TM the
    # correction vanishes
    assert corrected["tilted"] and not corrected["line-bundle-r2: Delta"]


# (spec, line) that ends in fail or error under each mutant of
# _double_leibniz_term, over the catalog and tests/golden/*.spec at seed 7,
# as measured while section4 still evaluated every battery pair literally;
# a derived family may move which identity reports a mutant, never the set
KILLED_BY_BOTH = {
    "bott-foliation": ("bott-dorfman(C, K)", "courant-axioms(C)"),
    "bracket-axioms": ("anchor-compat(A)", "courant-axioms(C)", "dorfman-axioms(DeltaE)",
                       "duality(DeltaE)", "lie(A)"),
    "broken-bott": ("bott-dorfman(C, K)",),
    "broken-dorfman": ("dorfman-axioms(Delta)",),
    "broken-manin": ("recover-perturbed(A, Delta, U, K)",),
    "curvature-shifts": ("curvature(DeltaE)", "la-dirac(A, Delta, U, K)", "section4(A, Delta)",
                         "splitting-theorems(DeltaE)", "ta-generators(A, Delta)"),
    "foliation": ("dorfman-axioms(Delta)",),
    "im2form": ("dorfman-axioms(Delta)", "splitting-theorems(Delta)"),
    "im2form-zero": ("identity-lemmas(A, Delta, U, K)", "manin-pair(A, Delta, U, K)",
                     "section4(A, Delta)", "ta-generators(A, Delta)"),
    "line-bundle-r2": ("dirac(Delta, U, K)", "dorfman-axioms(Delta)", "duality(Delta)",
                       "geometric-dirac(Delta, U, K)", "splitting-theorems(Delta)"),
    "nonholonomic": ("dorfman-axioms(Delta)", "splitting-theorems(Delta)"),
    "x3-anchor": ("anchor-compat(A)", "lie(A)"),
}
KILLED_BY_ONE = {
    "anchor": {
        "curvature-shifts": ("ruth-compat(A, Delta, U, K)",),
        "foliation": ("dirac(Delta, U, K)", "geometric-dirac(Delta, U, K)"),
        "im2form": ("canonical-form(sigma, nabla)", "dirac(Delta, U, K)",
                    "geometric-dirac(Delta, U, K)"),
        "im2form-zero": ("dirac(Delta, U, K)", "geometric-dirac(Delta, U, K)",
                         "k-algebroid(A, Delta, U, K)", "la-dirac(A, Delta, U, K)", "lie(A)",
                         "roundtrip(A, Delta, U, K)", "ruth-compat(A, Delta, U, K)",
                         "standard-iso(A, Delta, U, K, sigma0)"),
        "line-bundle-r2": ("skew(Delta)",),
        "nonholonomic": ("dirac(Delta, U, K)", "geometric-dirac(Delta, U, K)"),
        "point-bialgebroid": ("ta-generators(A, Delta)",),
        "tangent-poisson": ("anchor-compat(A)", "lie(A)", "linear-poisson(A)"),
        "trivial": ("anchor-compat(Q)", "dorfman-axioms(T)"),
    },
    "pairing": {"line-bundle-r2": ("curvature(Delta)",)},
}


@pytest.mark.parametrize("term", ["anchor", "pairing"])
def test_each_leibniz_mutant_still_fails_the_pinned_lines(monkeypatch, term):
    _double_leibniz_term(monkeypatch, term)
    texts = [(name, catalog_text(name)) for name in catalog_names()]
    texts += [(path.stem, path.read_text()) for path in sorted(GOLDEN.glob("*.spec"))]
    killed = set()
    for name, text in texts:
        spec = parse_spec(text)
        for check, args, _ in spec.checks:
            reports = checks.run_check(spec, check, list(args), 7)
            if any(report.status in ("fail", "error") for report in reports):
                killed.add((name, f"{check}({', '.join(args)})"))
    pinned = {(name, line) for table in (KILLED_BY_BOTH, KILLED_BY_ONE[term])
              for name, lines in table.items() for line in lines}
    assert pinned - killed == set()
