"""Zero is shared, not built.

Every identity of the package is checked as `lhs - rhs == 0`, so most of
the values a passing run builds vanish.  A `Patch` owns one zero
polynomial and a `Bundle` one zero section, and every kernel below whose
result vanishes returns that owner's zero, or an operand it hands back
unchanged, never a zero of its own.  A polynomial sum or difference that
cancels has no patch to ask: it returns the one zero over its variable
tuple, which is the patch's zero too (`ScalarPoly.zero`).  The test counts, over one
`verify-all --seed 7` and a `run --seed 7` of every `tests/golden/*.spec`,
the vanishing results that are neither.  It counts
the zero components of a Section `+` or `-` result too: one that cancels
is the patch's zero, and any other is the left operand's own component.

Nor is a zero differentiated: every caller of `vf_apply` skips a zero
function (through a section's view, the nonzero pairing rows or a test
for zero first), so `vf_apply` never hands back a zero operand.  Before
the callers skipped them, 1,566 of its calls there acted on a zero
function.
"""

import importlib
import io
import pkgutil
import random
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from copy import copy

import pytest

import courant_lab
from courant_lab import bundle, prolong
from courant_lab.bundle import Bundle, BundleError, HomSection, Section, SubBundle, patch
from courant_lab.cli import main
from courant_lab.poly import ScalarPoly, VariableMismatchError, parse_poly

GOLDEN = Path(__file__).parent / "golden"
MODULES = [importlib.import_module(f"courant_lab.{info.name}")
           for info in pkgutil.iter_modules(courant_lab.__path__)]


def _section_kernel(operands):
    """Classify a vanishing Section result against the operands at these
    positions and its bundle's zero section."""
    def classify(args, result):
        if not result.is_zero():
            return []
        if any(result is args[i] for i in operands):
            return ["operand"]
        return ["shared" if result is result.bundle.zero_section() else "built"]
    return classify


def _section_sum(args, result):
    """_section_kernel((0, 1)), and each zero component of a result that is
    not an operand, against the left operand's component and the patch's
    zero: "operand component", "shared component" or "built component"."""
    kinds = _section_kernel((0, 1))(args, result)
    if not any(result is arg for arg in args[:2]):
        zero = result.bundle.patch.zero()
        for c, kept in zip(result.coeffs, args[0].coeffs):
            if c.is_zero():
                kind = "operand" if c is kept else "shared" if c is zero else "built"
                kinds.append(f"{kind} component")
    return kinds


def _poly_kernel(zero_of, operands=()):
    """Classify a vanishing polynomial result, or each vanishing component of
    a list result, against the operands at these positions and the shared
    zero zero_of(args); a polynomial with no zero_of has no shared zero."""
    def classify(args, result):
        kinds = []
        for value in result if isinstance(result, list) else [result]:
            if value.is_zero():
                if any(value is args[i] for i in operands):
                    kinds.append("operand")
                else:
                    shared = zero_of is not None and value is zero_of(args)
                    kinds.append("shared" if shared else "built")
        return kinds
    return classify


METHODS = {
    (Section, "__add__"): _section_sum,
    (Section, "__sub__"): _section_sum,
    (Section, "__neg__"): _section_kernel((0,)),
    (Section, "scale"): _section_kernel((0,)),
    (Section, "component"): _section_kernel(()),
    (Bundle, "join"): _section_kernel(()),
    (HomSection, "apply"): _section_kernel((1,)),
    (SubBundle, "residual"): _section_kernel(()),
    (ScalarPoly, "__neg__"): _poly_kernel(None, (0,)),
    (ScalarPoly, "__add__"): _poly_kernel(lambda args: ScalarPoly.zero(args[0].vars), (0, 1)),
    (ScalarPoly, "__sub__"): _poly_kernel(lambda args: ScalarPoly.zero(args[0].vars), (0, 1)),
    (prolong.TotalPatch, "embed"): _poly_kernel(lambda args: args[0].zero()),
}
FUNCTIONS = {
    "leibniz": _section_kernel((0, 1)),
    "column_apply": _poly_kernel(lambda args: args[2]),
    "vf_bracket": _section_kernel((0, 1)),
    "lie_derivative_form": _section_kernel((0, 1)),
    "vf_apply": _poly_kernel(lambda args: args[0].zero(), (2,)),
    "vf_bracket_comps": _poly_kernel(lambda args: args[0].zero()),
    "lie_form_comps": _poly_kernel(lambda args: args[0].zero()),
    "courant_dorfman_form_part": _poly_kernel(lambda args: args[4].zero()),
    "sum_of_products": _poly_kernel(None, (0,)),
}


@pytest.fixture
def zero_results(monkeypatch):
    """Counter of (kernel, kind) over the vanishing results of the kernels:
    kind is "shared" (the owner's zero), "operand" or "built"."""
    counts = Counter()

    def watch(name, real, classify):
        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            for kind in classify(args, result):
                counts[name, kind] += 1
            counts[name, "calls"] += 1
            return result
        return wrapper

    for (cls, attr), classify in METHODS.items():
        name = f"{cls.__name__}.{attr}"
        monkeypatch.setattr(cls, attr, watch(name, getattr(cls, attr), classify))
    for name, classify in FUNCTIONS.items():
        real = getattr(bundle, name)
        wrapper = watch(name, real, classify)
        for module in MODULES:  # bundle and every module that imports the kernel
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    return counts


def test_verify_all_builds_no_zero_of_its_own(zero_results):
    with redirect_stdout(io.StringIO()):
        assert main(["verify-all", "--seed", "7"]) == 0
        for spec in sorted(GOLDEN.glob("*.spec")):
            assert main(["run", "--seed", "7", str(spec)]) == 0
    kernels = [f"{cls.__name__}.{attr}" for cls, attr in METHODS] + list(FUNCTIONS)
    # every kernel ran, and the run met vanishing results: the count is not vacuous
    assert all(zero_results[name, "calls"] for name in kernels)
    assert sum(zero_results[name, "shared"] for name in kernels) > 10_000
    built = {name: zero_results[name, "built"] for name in kernels if zero_results[name, "built"]}
    assert built == {}
    # a component of a sum or difference that cancels is the patch's zero
    sums = ["Section.__add__", "Section.__sub__"]
    assert [zero_results[name, "built component"] for name in sums] == [0, 0]
    assert all(zero_results[name, "shared component"] for name in sums)
    # vf_apply returns phi itself exactly when phi is zero
    assert zero_results["vf_apply", "calls"] > 10_000
    assert zero_results["vf_apply", "operand"] == 0



def test_a_section_less_an_equal_one_is_the_shared_zero_section():
    base = patch("x1", "x2")
    sum_bundle = Bundle.tangent(base) + Bundle.cotangent(base)
    [s] = bundle.random_sections(sum_bundle, 1, random.Random(5))
    rebuilt = sum_bundle.section({name: str(c) for name, c in zip(sum_bundle.frame, s.coeffs)})
    assert not s.is_zero() and rebuilt.coeffs[0] is not s.coeffs[0]
    for other in (s, copy(s), rebuilt):
        assert s - other is sum_bundle.zero_section()


def test_equal_polynomials_subtract_to_zero_over_one():
    vars = ("x1", "x2")
    p, q = parse_poly("1/2*x1^2 - 3/4*x2", vars), parse_poly("-3/4*x2 + 1/2*x1^2", vars)
    assert p is not q and p == q
    for difference in (p - q, p - p):
        assert difference.is_zero()
        assert difference == ScalarPoly.zero(vars)  # == compares the denominator too


def test_cancelling_polynomials_return_the_zero_of_their_variable_tuple():
    base = patch("x1", "x2")
    p, zero = parse_poly("1/2*x1^2 - 3/4*x2", base.coords), base.zero()
    assert p.vars is base.coords and zero is ScalarPoly.zero(base.coords)
    for vanishing in (p - p, p + -p, -p + p, p - parse_poly("-3/4*x2 + 1/2*x1^2", base.coords)):
        assert vanishing is zero
    # an equal tuple of another object gets a zero over that object
    other = tuple(list(base.coords))
    q = parse_poly("x1", other)
    assert q - q is ScalarPoly.zero(other) and (q - q).vars is other


def test_cancelling_operands_are_still_checked_first():
    base = patch("x1")
    tangent, cotangent = Bundle.tangent(base), Bundle.cotangent(base)
    assert tangent.zero_section().coeffs == cotangent.zero_section().coeffs
    with pytest.raises(BundleError):
        tangent.zero_section() - cotangent.zero_section()
    with pytest.raises(VariableMismatchError):
        parse_poly("1", ("x",)) - parse_poly("1", ("y",))
