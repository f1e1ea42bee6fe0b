"""CLI tests: every command runs through the sweep registry."""

import functools
import json

import pytest

import repro.crash
from repro.cli import AUDITS, build_parser, main
from repro.runner import SWEEPS


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in [*SWEEPS, *AUDITS]:
        assert name in out


def test_parser_defaults():
    args = build_parser().parse_args(["sweep", "ephemeral"])
    assert args.ops == 400
    assert args.media == "optane"
    assert not args.fresh


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["perf", "fig7"])


def test_ephemeral_experiment_runs(capsys):
    assert main(["sweep", "ephemeral", "--ops", "40", "--device", "1",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "daxvm" in out
    assert "Kops/s" in out


def test_media_experiment_runs(capsys):
    assert main(["sweep", "media", "--ops", "30", "--device", "1",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "cxl-flash" in out
    assert "fast-nvm" in out


def test_predis_experiment_runs(capsys):
    assert main(["sweep", "predis", "--ops", "2000", "--device", "2",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "predis.boot_cycles" in out


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_smoke(name, tmp_path, capsys):
    """Each sweep at its declared smoke knobs: parallel, cache
    round-trip (unless the knobs bypass the cache), then its perf
    report from the same cache.  Every declared column must show up
    in some point's counters, so a misspelt column fails here."""
    knobs = SWEEPS[name].smoke.split()
    argv = [name, *knobs, "--jobs", "2", "--cache-dir", str(tmp_path)]
    verify = ([] if {"--no-cache", "--profile"} & set(knobs)
              else ["--verify-cache"])
    assert main(["sweep", *argv, *verify]) == 0
    out = capsys.readouterr().out
    if verify:
        assert "cache verify OK" in out
    assert main(["perf", *argv, "--json"]) == 0
    states = json.loads(capsys.readouterr().out)
    assert states
    for column in SWEEPS[name].columns:
        assert any(column in state["run"]["counters"]
                   for state in states.values()), column


def test_crash_sweep_fails_on_violations(monkeypatch, capsys):
    """An audit that finds violations fails the sweep and names the
    point and the count (a sweep used to exit 0 whatever its crash
    counters held)."""
    monkeypatch.setattr(repro.crash, "run_crash", functools.partial(
        repro.crash.run_crash, break_commit_fence=True))
    assert main(["sweep", "crash", "--ops", "6", "--device", "1",
                 "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "VIOLATION: point syncbench@0 reports " \
           "crash.invariant_violations = " in err


def test_audit_command_reports_counters(capsys):
    assert main(["crash", "--max-points", "6", "--device", "1",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "crash.points_explored" in out
    assert "crash.invariant_violations" in out
