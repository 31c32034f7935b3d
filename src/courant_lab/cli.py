"""Command-line interface.

    courant-lab run [--check NAMES] [--seed N] [--format text|json] [SPEC|-]
    courant-lab catalog [NAME]
    courant-lab verify-all [--seed N] [--format text|json]

`run` executes the [checks] section of a spec file (path or stdin);
`catalog` lists or prints the built-in entries; `verify-all` runs every
catalog entry.  Exit codes: 0 all checks as expected, 1 at least one
unexpected failure, 2 usage or parse errors.  The battery seed defaults
to a fixed constant, overridable with --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .bundle import BATTERY_SEED
from .catalog import catalog_names, catalog_text
from .checks import run_check
from .report import FAIL, ERROR, NOT_APPLICABLE, PASS
from .specfile import SpecError, StructureSpec, parse_spec


def _results_for_spec(spec: StructureSpec, selection: Optional[List[str]],
                      seed: int) -> List[dict]:
    results = []
    for name, args, expect_fail in spec.checks:
        if selection is not None and name not in selection:
            continue
        reports = run_check(spec, name, args, seed)
        if expect_fail:
            bad = [r for r in reports if r.status in (FAIL, ERROR)]
            witnessed = any(r.witnesses for r in bad)
            as_expected = bool(bad) and witnessed
        else:
            as_expected = all(r.status in (PASS, NOT_APPLICABLE) for r in reports)
        results.append({
            "check": name,
            "args": list(args),
            "expected": "fail" if expect_fail else "pass",
            "as_expected": as_expected,
            "reports": [r.to_dict() for r in reports],
        })
    return results


def _summary(results: List[dict]) -> dict:
    total = len(results)
    ok = sum(1 for r in results if r["as_expected"])
    return {"checks": total, "as_expected": ok, "ok": ok == total}


def _emit_text(document: dict, out) -> None:
    for block in document.get("specs", [document]):
        name = block.get("name")
        if name:
            out.write(f"== {name} ==\n")
        for result in block["results"]:
            marker = "ok " if result["as_expected"] else "!! "
            argtext = ", ".join(result["args"])
            expected = " (expected fail)" if result["expected"] == "fail" else ""
            out.write(f"{marker}{result['check']}({argtext}){expected}\n")
            for report in result["reports"]:
                out.write(f"    [{report['status']}] {report['name']}: "
                          f"{report['statement']}\n")
                for line in report["details"]:
                    out.write(f"        {line}\n")
                for witness in report["witnesses"]:
                    out.write(f"        witness {witness['identity']} "
                              f"{witness['inputs']}: {witness['difference']}\n")
        out.write("\n")
    summary = document["summary"]
    out.write(f"summary: {summary['as_expected']}/{summary['checks']} checks as expected\n")


def _emit(document: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
    else:
        _emit_text(document, out)


def _read_spec(path: str) -> StructureSpec:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_spec(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="courant-lab",
                                     description="exact symbolic checks for "
                                                 "bracket geometries on bundles")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run the checks of a spec file")
    p_run.add_argument("spec", nargs="?", default="-",
                       help="spec file path, or - for stdin (default)")
    p_run.add_argument("--check", help="comma-separated check names to run")
    p_run.add_argument("--seed", type=int, default=BATTERY_SEED)
    p_run.add_argument("--format", choices=("text", "json"), default="text")

    p_cat = sub.add_parser("catalog", help="list entries or print one spec")
    p_cat.add_argument("name", nargs="?")

    p_all = sub.add_parser("verify-all", help="run every catalog entry")
    p_all.add_argument("--seed", type=int, default=BATTERY_SEED)
    p_all.add_argument("--format", choices=("text", "json"), default="text")
    return parser


# one parser for every call: parse_args keeps nothing between calls
_PARSER = _parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command is None:
        _PARSER.print_help()
        return 2

    try:
        if args.command == "catalog":
            if args.name is None:
                for name in catalog_names():
                    print(name)
                return 0
            try:
                sys.stdout.write(catalog_text(args.name))
            except KeyError:
                print(f"unknown catalog entry {args.name!r}", file=sys.stderr)
                return 2
            return 0

        if args.command == "run":
            spec = _read_spec(args.spec)
            selection = None
            if args.check:
                selection = [c.strip() for c in args.check.split(",") if c.strip()]
                known = {name for name, _, _ in spec.checks}
                for c in selection:
                    if c not in known:
                        print(f"check {c!r} is not declared in the spec", file=sys.stderr)
                        return 2
            results = _results_for_spec(spec, selection, args.seed)
            document = {"seed": args.seed, "results": results, "summary": _summary(results)}
            _emit(document, args.format, sys.stdout)
            return 0 if document["summary"]["ok"] else 1

        if args.command == "verify-all":
            blocks = []
            all_results = []
            for name in catalog_names():
                spec = parse_spec(catalog_text(name))
                results = _results_for_spec(spec, None, args.seed)
                blocks.append({"name": name, "results": results})
                all_results.extend(results)
            document = {"seed": args.seed, "specs": blocks,
                        "summary": _summary(all_results)}
            _emit(document, args.format, sys.stdout)
            return 0 if document["summary"]["ok"] else 1
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
