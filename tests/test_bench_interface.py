"""The interface the benchmark's light timer (`bench/tracer.py`,
`LineTimer`) wraps by name: `specfile.parse_spec` and `checks.run_check`,
reached through the module globals `cli` calls them by.  A renamed or
bypassed entry point would leave the timer without rows."""

from pathlib import Path

from courant_lab import checks, cli, specfile
from courant_lab.catalog import catalog_text

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_line_timer_times_every_check_line(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import LineTimer

    text = catalog_text("im2form")
    path = tmp_path / "im2form.clab"
    path.write_text(text)
    timer = LineTimer()
    timer.spec = "im2form"
    timer.install()
    try:
        assert cli.main(["run", str(path)]) == 0
    finally:
        timer.uninstall()
    capsys.readouterr()
    assert (cli.run_check, cli.parse_spec) == (checks.run_check, specfile.parse_spec)
    lines = [(name, tuple(args)) for name, args, _ in specfile.parse_spec(text).checks]
    assert lines
    assert [(spec, name, args) for spec, name, args, _ in timer.lines] == \
        [("im2form", name, args) for name, args in lines]
    assert timer.parse_s > 0
