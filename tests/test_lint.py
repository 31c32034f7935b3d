"""Static hygiene of the package, read with the standard library's `ast`.

Three kinds of dead weight fail this test: a module-level import that its
module never uses, and a private (`_name`) or public function, class or
method under `src/courant_lab/` that nothing in the package references
(a method is referenced only by an attribute read).  A helper deleted
from its callers must go with its imports, and a public name that only
tests call belongs in those tests, but for the methods named, with their
reasons, in TEST_ONLY_METHODS.

Two kinds of hidden state fail it too: `functools.lru_cache` and
`functools.cache`, which keep a memo on a module-level function or on a
class, and a `global` statement.  A memo lives on the immutable object it
is derived from (`cached_property`, such as the battery of a `Patch` and
of a `Bundle`, or the positional battery tables of an `AnchoredBracket`
and a `DorfmanConnection`; or a per-instance slot on an immutable object,
such as the gradient and the hash of a `ScalarPoly` and the view of the
nonzero components and the hash of a `Section`), in the value table of the
per-spec `LieAlgebroidData` (keyed by the argument sections), or in a
table local to one check.  The one table at
module level is `poly`'s zero per variable tuple, one entry per tuple
value.

The stored form of a polynomial (int numerators over one denominator) is
private to `poly.py`: every other module reads `._terms` only as a zero
test and never reads `._den`.

Zero is owned, not built: outside `poly.py`, only `Patch` calls
`ScalarPoly.zero(`, once per patch, and every other module takes the zero
polynomial from its patch (`Patch.zero()`), so a kernel whose result
vanishes returns that one object.

An identity test in front of an equality test of the same operands
(`a is not b and a != b`, `a is b or a == b`) fails it as well: a `Patch`
or a `Bundle` is equal only to itself, so `is` alone compares them, and a
value type needs only `==`.

The layout of a direct sum is known to `bundle.py` alone: no other module
reads the summand-offset API it replaced (`atom_index`, `atom_slice`,
`Section.part`, `Section.with_part`) or the lookups behind `component`,
`join` and `positions`, which are the one way to read and write a
summand.  A summand is named by the bundle that fills it, so outside
`bundle.py` no call of `component` or `positions` passes an atom kind
(`TM`, `COTM`, `VEC`, `VEC_DUAL`, or its text such as "T*M").  Likewise
a subbundle's complement is read through its owner: no other module
reads the constant vectors `SubBundle.complement`, only the sections
`complement_sections` and the coordinates of `split`.

A pairing is held by its owner: outside `bundle.py`, where it is
defined, only `PreDual` calls `pairing_rows`, so the rows of every pairing
that `matrix_pair` and `leibniz` read, a Courant algebroid's included,
are those of one pre-dual pair.

The total-space oracle stays independent of the operator under test:
`prolong` reads no `leibniz`, neither by import nor as an attribute, so
its brackets come from the Cartan kernels on the total space.  (Its
generator calculus reaches `leibniz` only through `AnchoredBracket`.)

A section keeps its nonzero components (`Section.nonzero()`), and that
view is the one way to read them: outside `bundle.py` no module rebuilds
the scan, either as `nonzero_terms(<x>.coeffs)` or as a comprehension
over `enumerate(<x>.coeffs)` filtered by `._terms`.  A lifted section of
`prolong` is a pair of sections, its `vf` and its `form`, so the same rule
covers them (`nonzero_terms(s.vf.coeffs)` is a rescan).
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "courant_lab"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree, reach):
    """How often each identifier is read in tree by the reads in reach: as a
    bare name and as a name imported by `from ... import` (`rank as
    mat_rank` reads `rank`) for "name", as an attribute for "attribute"."""
    reads = Counter()
    for node in ast.walk(tree):
        if "name" in reach and isinstance(node, ast.Name):
            reads[node.id] += 1
        elif "name" in reach and isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
        elif "attribute" in reach and isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def _defs(tree, private):
    """Private or public functions and classes, at module level and in
    module-level classes; dunder methods are neither.  Yields each with
    the reads that can reach it: a module-level function only by its bare
    name, so a method of the same name does not hide it; a method only as
    an attribute, so a local or a parameter of the same name does not
    either; a class by both."""
    bodies = [(tree.body, True)] + [(node.body, False) for node in tree.body
                                    if isinstance(node, ast.ClassDef)]
    for body, module_level in bodies:
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private and not node.name.endswith("__")):
                if isinstance(node, ast.ClassDef):
                    yield node, ("name", "attribute")
                else:
                    yield node, ("name",) if module_level else ("attribute",)


# The public methods that only tests call, each with the reason it stays
TEST_ONLY_METHODS = {
    "bundle.py: section": "a section from {frame name: coefficient} data, "
                          "the builder API of the tests",
}


def _unreferenced(private):
    reaches = [("name",), ("attribute",), ("name", "attribute")]
    reads = {reach: sum((_read_names(tree, reach) for tree in TREES.values()), Counter())
             for reach in reaches}
    unreferenced = []
    for module, tree in TREES.items():
        for definition, reach in _defs(tree, private):
            # reads inside the definition's own body (recursion) do not count
            own = _read_names(definition, reach)[definition.name]
            if reads[reach][definition.name] == own:
                unreferenced.append(f"{module}: {definition.name}")
    return unreferenced


def test_no_unused_module_level_imports():
    unused = []
    for module, tree in TREES.items():
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        used = {node.id for top in tree.body if top not in imports
                for node in ast.walk(top) if isinstance(node, ast.Name)}
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}: {bound}")
    assert unused == []


def test_no_unreferenced_private_helpers():
    assert _unreferenced(private=True) == []


def test_no_unreferenced_public_names():
    assert sorted(_unreferenced(private=False)) == sorted(TEST_ONLY_METHODS)


def test_no_module_or_class_level_caches():
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{module}: {alias.name}" for alias in node.names
                          if alias.name in ("lru_cache", "cache")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{module}: functools.{node.attr}")
    assert found == []


def test_no_global_statements():
    found = [f"{module}: line {node.lineno}" for module, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def _truth_tests(tree):
    """The nodes of tree in a position that only tests their truth: the
    operand of `not`, an operand of `and`/`or`, the test of an `if`,
    conditional expression, `while` or `assert`, a comprehension's `if`,
    and the element of a generator that `any` or `all` consumes."""
    tested = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            tested.add(node.operand)
        elif isinstance(node, ast.BoolOp):
            tested.update(node.values)
        elif isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            tested.add(node.test)
        elif isinstance(node, ast.comprehension):
            tested.update(node.ifs)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("any", "all") and len(node.args) == 1
              and isinstance(node.args[0], ast.GeneratorExp)):
            tested.add(node.args[0].elt)
    return tested


def test_poly_storage_is_private_to_poly():
    found = []
    for module, tree in TREES.items():
        if module == "poly.py":
            continue
        tested = _truth_tests(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                    node.attr == "_den" or (node.attr == "_terms" and node not in tested)):
                found.append(f"{module}: line {node.lineno} reads .{node.attr}")
    assert found == []


def _identity_then_equality(node):
    """Whether node is `a is not b and a != b` or `a is b or a == b`, with
    the same two operands in either order, among the operands of one
    `and` or `or`."""
    if not isinstance(node, ast.BoolOp):
        return False
    ops = (ast.IsNot, ast.NotEq) if isinstance(node.op, ast.And) else (ast.Is, ast.Eq)
    operands = {op: set() for op in ops}
    for value in node.values:
        if (isinstance(value, ast.Compare) and len(value.ops) == 1
                and type(value.ops[0]) in ops):
            pair = frozenset(ast.dump(x) for x in (value.left, value.comparators[0]))
            operands[type(value.ops[0])].add(pair)
    return bool(operands[ops[0]] & operands[ops[1]])


def test_no_identity_test_before_an_equality_test():
    found = [f"{module}: line {node.lineno}" for module, tree in TREES.items()
             for node in ast.walk(tree) if _identity_then_equality(node)]
    assert found == []


def test_only_patch_builds_a_zero_polynomial():
    def zero_calls(tree):
        return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr == "zero"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "ScalarPoly"}
    found = []
    for module, tree in TREES.items():
        if module == "poly.py":
            continue
        allowed = set().union(*(zero_calls(node) for node in tree.body
                                if isinstance(node, ast.ClassDef) and node.name == "Patch"))
        found += [f"{module}: line {node.lineno}" for node in zero_calls(tree) - allowed]
    assert found == []


# the summand-offset API that Section.component, Bundle.join and
# Bundle.positions replaced, the lookups behind them, and the constant
# vectors of a subbundle's complement, which other modules read as
# SubBundle.complement_sections and through SubBundle.split
LAYOUT_READS = {"atom_index", "atom_slice", "part", "with_part", "summand",
                "_atom_slices", "_summands", "_summand", "_where", "complement"}


def test_only_bundle_reads_the_layout_of_a_direct_sum():
    found = [f"{module}: line {node.lineno} reads .{node.attr}"
             for module, tree in TREES.items() if module != "bundle.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in LAYOUT_READS]
    assert found == []


# the atom kinds of bundle.py, by constant and by text
ATOM_KINDS = {"TM", "COTM", "VEC", "VEC_DUAL"}
KIND_TEXTS = {"TM", "T*M", "V", "V*"}


def _kind_reads(tree):
    """The calls of `component` or `positions` in tree that pass an atom
    kind: a kind constant, bare (`TM`) or as an attribute (`bundle.VEC`),
    or its text."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("component", "positions")):
            args = node.args + [keyword.value for keyword in node.keywords]
            if any((isinstance(arg, ast.Name) and arg.id in ATOM_KINDS)
                   or (isinstance(arg, ast.Attribute) and arg.attr in ATOM_KINDS)
                   or (isinstance(arg, ast.Constant) and arg.value in KIND_TEXTS)
                   for arg in args):
                yield node


def test_no_module_but_bundle_names_a_summand_by_its_kind():
    found = [f"{module}: line {node.lineno}" for module, tree in TREES.items()
             if module != "bundle.py" for node in _kind_reads(tree)]
    assert found == []


def test_the_kind_rule_sees_every_form():
    # the rule is not vacuous: it flags the kind reads the bundle key replaced
    for text in ("x = v.component(TM)", "r = b.positions(VEC)", "y = v.component(VEC_DUAL)",
                 "t = s.component(bundle.COTM)", "r = b.positions('T*M')",
                 "g = b.component(VEC, 'lin')", "r = b.positions(summand=COTM)"):
        assert any(True for _ in _kind_reads(ast.parse(text))), text
    assert not any(True for _ in _kind_reads(ast.parse(
        "x = v.component(tangent); r = b.positions(delta.e); t = tp.field(TM); "
        "y = v.component(lad.a_bundle.dual())")))


def _pairing_rows_calls(tree):
    """The calls of `pairing_rows` in tree, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "pairing_rows" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield node


def test_only_predual_builds_the_rows_of_a_pairing():
    owners = {node for node in ast.walk(TREES["dorfman.py"])
              if isinstance(node, ast.ClassDef) and node.name == "PreDual"}
    allowed = {call for owner in owners for call in _pairing_rows_calls(owner)}
    assert len(owners) == 1 and allowed
    found = [f"{module}: line {node.lineno}" for module, tree in TREES.items()
             for node in _pairing_rows_calls(tree) if node not in allowed]
    assert found == []


def test_the_pairing_rule_sees_both_forms():
    # the rule is not vacuous: it flags a bare call and a call through the module
    for text in ("rows = pairing_rows(matrix)", "rows = bundle.pairing_rows(self.pairing)"):
        assert any(True for _ in _pairing_rows_calls(ast.parse(text))), text
    assert not any(True for _ in _pairing_rows_calls(ast.parse("rows = predual.pair_rows")))


def _reads_coeffs(node):
    """Whether node is `<x>.coeffs`."""
    return isinstance(node, ast.Attribute) and node.attr == "coeffs"


def _rescans(node):
    """Whether node rebuilds a nonzero view of `<x>.coeffs`: the call
    `nonzero_terms(<x>.coeffs)`, or a comprehension over
    `enumerate(<x>.coeffs)` with an `if` that reads `._terms`."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "nonzero_terms" and node.args and _reads_coeffs(node.args[0])):
        return True
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        for gen in node.generators:
            source = gen.iter
            if (isinstance(source, ast.Call) and isinstance(source.func, ast.Name)
                    and source.func.id == "enumerate" and source.args
                    and _reads_coeffs(source.args[0])
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "_terms"
                            for cond in gen.ifs for sub in ast.walk(cond))):
                return True
    return False


def test_only_bundle_scans_a_section_for_its_nonzero_components():
    found = [f"{module}: line {node.lineno}" for module, tree in TREES.items()
             if module != "bundle.py" for node in ast.walk(tree) if _rescans(node)]
    assert found == []


def test_the_rescan_rule_sees_both_forms():
    # the rule is not vacuous: it flags the two forms the views replaced,
    # also over the sections of a lifted section (prolong.LiftedSection)
    for text in ("terms = nonzero_terms(x.coeffs)",
                 "xs = [(i, c) for i, c in enumerate(x.coeffs) if c._terms]",
                 "terms = nonzero_terms(s.vf.coeffs)",
                 "xs = [(i, c) for i, c in enumerate(s.form.coeffs) if c._terms]"):
        assert any(_rescans(node) for node in ast.walk(ast.parse(text)))
    assert not any(_rescans(node) for node in ast.walk(ast.parse(
        "terms = nonzero_terms(row); xs = [c for i, c in enumerate(x.coeffs)]; "
        "zs = [c for c in s.form.coeffs if c._terms]")))


def _leibniz_reads(tree):
    """The nodes of tree that read `leibniz`: an import of it, by either
    import form, or an attribute `<x>.leibniz`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(alias.name.split(".")[-1] == "leibniz" for alias in node.names):
                yield node
        elif isinstance(node, ast.Attribute) and node.attr == "leibniz":
            yield node


def test_prolong_reads_no_leibniz():
    assert [f"line {node.lineno}" for node in _leibniz_reads(TREES["prolong.py"])] == []


def test_the_leibniz_rule_sees_every_form():
    # the rule is not vacuous: it flags both import forms and an attribute read
    for text in ("from .bundle import Section, leibniz", "import courant_lab.bundle.leibniz",
                 "value = bundle.leibniz(x, y, frame, target)"):
        assert any(True for _ in _leibniz_reads(ast.parse(text))), text
    assert not any(True for _ in _leibniz_reads(ast.parse(
        "from .algebroid import AnchoredBracket; value = self.anchored.bracket(x, y)")))
