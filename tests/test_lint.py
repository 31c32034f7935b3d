"""Static hygiene of the package, read with the standard library's `ast`.

Three kinds of dead weight fail this test: a module-level import that its
module never uses, and a private (`_name`) or public function, class or
method under `src/courant_lab/` that nothing in the package references.
A helper deleted from its callers must go with its imports, and a public
name that only tests call belongs in those tests.

Two kinds of hidden state fail it too: `functools.lru_cache` and
`functools.cache`, which keep a memo on a module-level function or on a
class, and a `global` statement.  A memo lives on the immutable object it
is derived from (`cached_property`) or in a table local to one check.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "courant_lab"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _read_names(tree):
    """How often each identifier is read in tree, as a bare name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _defs(tree, private):
    """Private or public functions and classes, at module level and in
    module-level classes; dunder methods are neither."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private and not node.name.endswith("__")):
                yield node


def _unreferenced(private):
    reads = sum((_read_names(tree) for tree in TREES.values()), Counter())
    unreferenced = []
    for module, tree in TREES.items():
        for definition in _defs(tree, private):
            # reads inside the definition's own body (recursion) do not count
            if reads[definition.name] == _read_names(definition)[definition.name]:
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
    assert _unreferenced(private=False) == []


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
