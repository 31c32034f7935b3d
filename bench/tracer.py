"""Span recorder for the traced benchmark run.

`Recorder.install()` wraps every public function and method of each layer
module of `courant_lab` (plus the arithmetic dunders and `__init__`) and
rebinds every name the wrapped object is reachable through: module globals
such as `checks.build_manin_pair` next to `courant.build_manin_pair`,
dict values such as the runners in `checks.REGISTRY`, and class attributes
such as `ScalarPoly.__radd__`, which aliases `__add__`.  `uninstall()` puts
every original back.

Every call is counted.  A call is timed only where it crosses from one
layer into another; a call into the layer already running adds to that
layer's time anyway, so skipping its clock reads changes no layer's self
time and keeps the overhead down.  A layer's self time is the time of its
boundary spans minus the time of the spans they contain.  Boundary spans
down to `SPAN_DEPTH` are kept one by one (id, parent, name, start, end);
deeper ones, millions on the catalog, are summed per (caller layer, layer)
edge.  Everything stays in memory until `write()`.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

PACKAGE = "courant_lab"
LAYERS = ("poly", "linalg", "bundle", "algebroid", "dorfman", "dirac", "laops",
          "courant", "prolong", "specfile", "checks", "report", "cli")
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__pow__", "__truediv__", "__str__"}
SPAN_DEPTH = 3

# Per-layer metric -> the workloads on which it must be nonzero.  The
# end-to-end metric each one should move is in README.md.
EXERCISED_BY: Dict[str, Tuple[str, ...]] = {}


def _metric(names: str, workloads: str) -> None:
    for name in names.split():
        EXERCISED_BY[name] = tuple(workloads.split())


_ALL = "catalog scaling-r3 perturbed-r3"
_metric("poly.new.calls poly.mul.calls poly.add.calls poly.partial.calls "
        "poly.mul.zero_operand_ratio poly.self_s", _ALL)
_metric("poly.str.calls", "perturbed-r3")
_metric("bundle.hom_apply.calls bundle.hom_apply.zero_entry_ratio bundle.frame_section.calls "
        "bundle.rank.calls bundle.self_s", "catalog scaling-r3")
_metric("algebroid.bracket.calls algebroid.check_lie.calls algebroid.check_lie.useful_ratio "
        "algebroid.self_s laops.lad.built laops.self_s courant.manin_pair.built "
        "courant.manin_pair.useful_ratio courant.bracket.calls courant.self_s", "catalog")
_metric("dorfman.apply.calls dorfman.self_s dirac.self_s linalg.rref.calls linalg.self_s "
        "prolong.lift.calls prolong.total_courant.calls prolong.self_s", "catalog perturbed-r3")
_metric("prolong.generator_bracket.calls", "catalog")
_metric("specfile.parse_s", _ALL)
_metric("checks.line_p50_s checks.line_tail_s checks.self_s report.witnesses report.self_s "
        "cli.self_s", "perturbed-r3")
_metric("trace.overhead_ratio", _ALL)


def package_modules() -> Dict[str, object]:
    import courant_lab.cli  # noqa: F401  (imports every layer)

    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith(PACKAGE + ".") and mod is not None}


def layer_targets(modules: Dict[str, object]):
    """(layer, name, function) for every public function and method of each layer."""
    for layer in LAYERS:
        mod = modules[layer]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                yield layer, name, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, value in vars(obj).items():
                    if attr.startswith("_") and attr not in DUNDERS:
                        continue
                    fn = _function_of(value)
                    if fn is not None:
                        yield layer, f"{obj.__name__}.{attr}", fn


def _function_of(value):
    if isinstance(value, (staticmethod, classmethod)):
        return value.__func__
    if isinstance(value, property):
        return value.fget
    return value if inspect.isfunction(value) else None


class Patcher:
    """Rebinds every binding of the given functions and can undo it."""

    def __init__(self):
        self._undo: List[Tuple[Callable, object, object, object]] = []

    def rebind(self, modules: Dict[str, object], replace: Dict[int, Tuple[object, object]]) -> None:
        """`replace` maps id(original) -> (original, wrapper)."""
        def swap(value):
            hit = replace.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        seen_classes = set()
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                new = swap(value)
                if new is not None:
                    self._set(setattr, mod, name, value, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not None:
                            self._set(dict.__setitem__, value, key, item, new)
                elif inspect.isclass(value) and value.__module__.startswith(PACKAGE) \
                        and value not in seen_classes:
                    seen_classes.add(value)
                    for attr, member in list(vars(value).items()):
                        new = self._member(member, swap)
                        if new is not None:
                            self._set(setattr, value, attr, member, new)

    @staticmethod
    def _member(member, swap):
        if isinstance(member, property):
            new = swap(member.fget)
            return None if new is None else property(new, member.fset, member.fdel, member.__doc__)
        if isinstance(member, (staticmethod, classmethod)):
            new = swap(member.__func__)
            return None if new is None else type(member)(new)
        return swap(member)

    def _set(self, setter, owner, key, old, new) -> None:
        setter(owner, key, new)
        self._undo.append((setter, owner, key, old))

    def restore(self) -> None:
        for setter, owner, key, old in reversed(self._undo):
            setter(owner, key, old)
        self._undo.clear()


class LineTimer:
    """The light instrumentation of the untraced reference pass: wall time of
    every `parse_spec` and `run_check` call, with the spec it belongs to."""

    def __init__(self):
        self.spec = ""
        self.parse_s = 0.0
        self.lines: List[Tuple[str, str, Tuple[str, ...], float]] = []
        self._patcher = Patcher()

    def install(self) -> None:
        modules = package_modules()
        parse_spec = modules["specfile"].parse_spec
        run_check = modules["checks"].run_check

        @functools.wraps(parse_spec)
        def timed_parse(*args, **kwargs):
            start = time.perf_counter()
            try:
                return parse_spec(*args, **kwargs)
            finally:
                self.parse_s += time.perf_counter() - start

        @functools.wraps(run_check)
        def timed_check(spec, name, args, seed):
            start = time.perf_counter()
            try:
                return run_check(spec, name, args, seed)
            finally:
                self.lines.append((self.spec, name, tuple(args), time.perf_counter() - start))

        self._patcher.rebind(modules, {id(parse_spec): (parse_spec, timed_parse),
                                       id(run_check): (run_check, timed_check)})

    def uninstall(self) -> None:
        self._patcher.restore()

    def metrics(self) -> Dict[str, float]:
        seconds = [line[3] for line in self.lines]
        return {"specfile.parse_s": self.parse_s,
                "checks.line_p50_s": statistics.median(seconds),
                "checks.line_tail_s": tail(seconds)[1]}

    def table(self) -> str:
        rows = ["spec\tcheck\targs\tseconds"]
        rows += [f"{spec}\t{check}\t{', '.join(args)}\t{sec:.6f}"
                 for spec, check, args, sec in self.lines]
        return "\n".join(rows) + "\n"


def tail(samples: List[float]) -> Tuple[int, float]:
    """(p, value) for the highest percentile p with at least ten samples beyond it.

    With fewer than 20 samples that percentile would lie below the median,
    so the maximum (p = 100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)  # nearest rank, 1-based
    return p, ordered[rank - 1]


class Recorder:
    """Counts, layer self times and boundary spans of one traced pass."""

    def __init__(self):
        n = len(LAYERS)
        self.self_s = [0.0] * n
        # edges[caller][layer]; caller n is the benchmark itself
        self.edges = [[[0, 0.0] for _ in range(n)] for _ in range(n + 1)]
        self.calls: Dict[str, List[int]] = {}
        self.spans: List[Optional[tuple]] = []
        # frames: [layer, seconds spent in child spans, start, span id or -1]
        self.stack: List[list] = [[n, 0.0, 0.0, -1]]
        self.probes = {"mul_zero": 0, "hom_entries": 0, "hom_zero": 0}
        self._scope: Dict[str, Dict[tuple, tuple]] = {"check_lie": {}, "manin_pair": {}}
        self.distinct = {"check_lie": 0, "manin_pair": 0}
        self._patcher = Patcher()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        probes = self._probes(modules)
        replace = {}
        for layer, name, fn in layer_targets(modules):
            if id(fn) not in replace:
                replace[id(fn)] = (fn, self._wrap(layer, name, fn, probes.get(f"{layer}.{name}")))
        self._patcher.rebind(modules, replace)

    def uninstall(self) -> None:
        self._patcher.restore()

    def _probes(self, modules) -> Dict[str, Callable]:
        poly_cls = modules["poly"].ScalarPoly
        is_zero = poly_cls.is_zero  # the original: probes must not count as calls
        counts = self.probes
        scope, distinct = self._scope, self.distinct

        def mul(args, kwargs):
            a, b = args[0], args[1]
            if is_zero(a) or (is_zero(b) if isinstance(b, poly_cls) else b == 0):
                counts["mul_zero"] += 1

        def hom_apply(args, kwargs):
            matrix = args[0].matrix
            counts["hom_entries"] += sum(map(len, matrix))
            counts["hom_zero"] += sum(is_zero(e) for row in matrix for e in row)

        def seen(kind, key, refs):
            # refs keep the keyed objects alive, so their ids stay unique in scope
            if key not in scope[kind]:
                scope[kind][key] = refs
                distinct[kind] += 1

        def check_lie(args, kwargs):
            seen("check_lie", (id(args[0]), args[1:], tuple(sorted(kwargs.items()))), args)

        def manin_pair(args, kwargs):
            lad, triple = args[0], args[1]
            refs = (lad.bracket, triple.delta, triple.u_sub, triple.k_sub)
            seen("manin_pair", tuple(map(id, refs)), refs)

        def cli_main(args, kwargs):
            for table in scope.values():
                table.clear()

        return {"poly.ScalarPoly.__mul__": mul, "bundle.HomSection.apply": hom_apply,
                "algebroid.AnchoredBracket.check_lie": check_lie,
                "courant.build_manin_pair": manin_pair, "cli.main": cli_main}

    def _wrap(self, layer: str, name: str, fn, probe):
        li = LAYERS.index(layer)
        qualname = f"{layer}.{name}"
        cell = self.calls.setdefault(qualname, [0])
        stack, spans, edges, self_s = self.stack, self.spans, self.edges, self.self_s
        clock = time.perf_counter

        def timed(top, args, kwargs):
            if len(stack) <= SPAN_DEPTH:
                sid = len(spans)
                spans.append(None)
            else:
                sid = -1
            frame = [li, 0.0, clock(), sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start = frame[2]
                duration = end - start
                self_s[li] += duration - frame[1]
                top[1] += duration
                edge = edges[top[0]][li]
                edge[0] += 1
                edge[1] += duration
                if sid >= 0:
                    spans[sid] = (sid, top[3], qualname, start, end)

        if probe is None:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                top = stack[-1]
                if top[0] == li:
                    return fn(*args, **kwargs)
                return timed(top, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                probe(args, kwargs)
                top = stack[-1]
                if top[0] == li:
                    return fn(*args, **kwargs)
                return timed(top, args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- results ----------------------------------------------------------------

    def count(self, *qualnames: str) -> int:
        return sum(self.calls.get(q, [0])[0] for q in qualnames)

    def metrics(self) -> Dict[str, float]:
        c = self.count
        ratio = lambda part, whole: part / whole if whole else 0.0  # noqa: E731
        out = {
            "poly.new.calls": c("poly.ScalarPoly.__init__"),
            "poly.mul.calls": c("poly.ScalarPoly.__mul__"),
            "poly.add.calls": c("poly.ScalarPoly.__add__"),
            "poly.partial.calls": c("poly.ScalarPoly.partial"),
            "poly.mul.zero_operand_ratio": ratio(self.probes["mul_zero"],
                                                 c("poly.ScalarPoly.__mul__")),
            "poly.str.calls": c("poly.ScalarPoly.__str__"),
            "bundle.hom_apply.calls": c("bundle.HomSection.apply"),
            "bundle.hom_apply.zero_entry_ratio": ratio(self.probes["hom_zero"],
                                                       self.probes["hom_entries"]),
            "bundle.frame_section.calls": c("bundle.Bundle.frame_section"),
            "bundle.rank.calls": c("bundle.Bundle.rank"),
            "algebroid.bracket.calls": c("algebroid.AnchoredBracket.bracket"),
            "algebroid.check_lie.calls": c("algebroid.AnchoredBracket.check_lie"),
            "algebroid.check_lie.useful_ratio": ratio(self.distinct["check_lie"],
                                                      c("algebroid.AnchoredBracket.check_lie")),
            "laops.lad.built": c("laops.LieAlgebroidData.__init__"),
            "courant.manin_pair.built": c("courant.build_manin_pair"),
            "courant.manin_pair.useful_ratio": ratio(self.distinct["manin_pair"],
                                                     c("courant.build_manin_pair")),
            "courant.bracket.calls": c("courant.CourantData.bracket"),
            "dorfman.apply.calls": c("dorfman.DorfmanConnection.apply"),
            "linalg.rref.calls": c("linalg.rref"),
            "prolong.lift.calls": c("prolong.lift_core", "prolong.lift_linear"),
            "prolong.total_courant.calls": c("prolong.total_courant"),
            "prolong.generator_bracket.calls": c("prolong.GeneratorAlgebra.bracket"),
            "report.witnesses": c("report.Witness.__init__"),
        }
        for i, layer in enumerate(LAYERS):
            if f"{layer}.self_s" in EXERCISED_BY:
                out[f"{layer}.self_s"] = self.self_s[i]
        return out

    def write(self, path: Path, extra: dict) -> None:
        names = list(LAYERS) + ["harness"]
        edges = [{"caller": names[caller], "layer": names[layer], "calls": e[0], "seconds": e[1]}
                 for caller, row in enumerate(self.edges)
                 for layer, e in enumerate(row) if e[0]]
        document = {
            "layers": {layer: {"self_s": self.self_s[i]} for i, layer in enumerate(LAYERS)},
            "calls": {name: cell[0] for name, cell in sorted(self.calls.items()) if cell[0]},
            "edges": edges,
            "spans": [dict(zip(("id", "parent", "name", "start", "end"), span))
                      for span in self.spans if span is not None],
            **extra,
        }
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
