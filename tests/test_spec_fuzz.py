"""Seeded line mutations of every catalog spec and every tests/golden/*.spec.

Each mutant must either parse or raise SpecError naming its line, and
every check line of a mutant that parses must run to a report that is not
an `unexpected ...` error: a spec mistake surfaces at parse time (exit 2)
or as a named error, never as a traceback.  The six operators live here,
not in the package.
"""

import random
import re
from pathlib import Path

from courant_lab.catalog import catalog_names, catalog_text
from courant_lab.checks import run_check
from courant_lab.specfile import SpecError, parse_spec

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 2012
MUTANTS_PER_SPEC = 25
# short replacement values: numbers, polynomials, unknown names, frame
# names of other kinds, a yes/no word and nothing at all
VALUES = ("0", "1", "-1", "x1", "x2^2", "1/2", "x1*x2 - 3", "y", "e1", "Dx1", "dx2", "yes", "")


def _delete(lines, rng):
    del lines[rng.randrange(len(lines))]


def _duplicate(lines, rng):
    i = rng.randrange(len(lines))
    lines.insert(i, lines[i])


def _swap(lines, rng):
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]


def _replace_value(lines, rng):
    k = rng.choice([k for k, line in enumerate(lines) if "=" in line])
    lines[k] = lines[k].split("=", 1)[0] + "= " + rng.choice(VALUES)


def _shuffle_list(lines, rng):
    listed = [k for k, line in enumerate(lines) if "," in line.partition("=")[2]]
    if listed:
        k = rng.choice(listed)
        key, _, value = lines[k].partition("=")
        items = value.split(",")
        rng.shuffle(items)
        lines[k] = key + "=" + ",".join(items)


def _bump_digit(lines, rng):
    k, pos = rng.choice([(k, m.start()) for k, line in enumerate(lines)
                         for m in re.finditer(r"\d", line)])
    line = lines[k]
    lines[k] = line[:pos] + str((int(line[pos]) + 1) % 10) + line[pos + 1:]


OPERATORS = (_delete, _duplicate, _swap, _replace_value, _shuffle_list, _bump_digit)


def _mutants():
    rng = random.Random(SEED)
    sources = ([catalog_text(name) for name in catalog_names()]
               + [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.spec"))])
    for text in sources:
        for _ in range(MUTANTS_PER_SPEC):
            lines = text.splitlines()
            rng.choice(OPERATORS)(lines, rng)
            yield "\n".join(lines) + "\n"


def test_mutated_specs_parse_or_fail_on_a_line(capsys):
    parsed = rejected = 0
    for text in _mutants():
        try:
            spec = parse_spec(text)
        except SpecError as exc:
            assert exc.line is not None, (str(exc), text)
            rejected += 1
            continue
        parsed += 1
        for name, args, _ in spec.checks:
            for report in run_check(spec, name, args, 7):
                assert not any(d.startswith("unexpected") for d in report.details), \
                    (name, report.details, text)
    assert capsys.readouterr().err == ""  # no traceback was printed either
    # both outcomes are exercised: of the 350 mutants, 140 parse
    assert parsed >= 100 and rejected >= 100
