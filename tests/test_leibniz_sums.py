"""Brackets sum their Leibniz terms once, and Cartan kernels skip zeros.

`bundle.leibniz` collects the terms of each output coefficient and adds
them with one `poly.sum_of_products` call, so it makes no `ScalarPoly`
`+` or `-` call of its own: each such call would copy the growing sum.
The Cartan kernels `vf_bracket_comps`, `lie_form_comps`,
`courant_dorfman_form_part` and `algebroid.record_metric` call
`vf_apply` only on nonzero functions.  The test counts both over one
`verify-all --seed 7` and a `run --seed 7` of every `tests/golden/*.spec`;
before these kernels, `leibniz` made 3,744 sums and 1,398 differences in
`verify-all` alone, and `vf_apply` acted on a zero function 37,829 times.
Since axiom (c) and the curvature-Jacobiator pairing derive their battery
cases, `verify-all` alone makes 9,409 `vf_apply` calls (10,151 before),
and the golden specs bring the run to 15,158.
"""

import importlib
import io
import pkgutil
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import courant_lab
from courant_lab import bundle
from courant_lab.cli import main
from courant_lab.poly import ScalarPoly

GOLDEN = Path(__file__).parent / "golden"
MODULES = [importlib.import_module(f"courant_lab.{info.name}")
           for info in pkgutil.iter_modules(courant_lab.__path__)]
SKIPPING = ("vf_bracket_comps", "lie_form_comps", "courant_dorfman_form_part", "record_metric")


def test_verify_all_sums_leibniz_terms_once_and_skips_zero_functions(monkeypatch):
    counts = Counter()
    leibniz_code = bundle.leibniz.__code__

    def count_caller(op, real):
        def wrapper(self, other):
            if sys._getframe(1).f_code is leibniz_code:
                counts["leibniz", op] += 1
            return real(self, other)
        return wrapper

    for op in ("__add__", "__sub__"):
        monkeypatch.setattr(ScalarPoly, op, count_caller(op, getattr(ScalarPoly, op)))

    real_leibniz, real_vf_apply = bundle.leibniz, bundle.vf_apply

    def leibniz(*args, **kwargs):
        counts["leibniz", "calls"] += 1
        return real_leibniz(*args, **kwargs)

    def vf_apply(base, x_terms, phi):
        counts["vf_apply", "calls"] += 1
        if phi.is_zero():
            counts["vf_apply", "zero"] += 1
            counts["zero from", sys._getframe(1).f_code.co_name] += 1
        return real_vf_apply(base, x_terms, phi)

    for module in MODULES:  # bundle and every module that imports the kernels
        for name, real, wrapper in (("leibniz", real_leibniz, leibniz),
                                    ("vf_apply", real_vf_apply, vf_apply)):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    # the wrapper's frame sits between a caller and the real leibniz, so the
    # caller test above still sees the real leibniz's own calls
    with redirect_stdout(io.StringIO()):
        assert main(["verify-all", "--seed", "7"]) == 0
        for spec in sorted(GOLDEN.glob("*.spec")):
            assert main(["run", "--seed", "7", str(spec)]) == 0
    # the run is not vacuous: brackets were extended and fields applied
    assert counts["leibniz", "calls"] > 2_000 and counts["vf_apply", "calls"] > 10_000
    assert counts["leibniz", "__add__"] == counts["leibniz", "__sub__"] == 0
    assert {name: counts["zero from", name] for name in SKIPPING} == dict.fromkeys(SKIPPING, 0)
    assert counts["vf_apply", "zero"] < 2_000
