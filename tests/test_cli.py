"""CLI tests: every command runs through the sweep registry."""

import json

import pytest

import repro.crash
from repro.cli import AUDITS, build_parser, main
from repro.crash.workloads import CRASH_WORKLOADS
from repro.runner import SWEEPS, Sweep, SweepPoint


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
    round-trip, then its perf report from the same cache.  Every
    declared column must show up in some point's counters, so a
    misspelt column fails here."""
    knobs = SWEEPS[name].smoke.split()
    argv = [name, *knobs, "--jobs", "2", "--cache-dir", str(tmp_path)]
    assert main(["sweep", *argv, "--verify-cache"]) == 0
    assert "cache verify OK" in capsys.readouterr().out
    assert main(["perf", *argv, "--json"]) == 0
    [states] = json.loads(capsys.readouterr().out).values()
    assert states
    for column in SWEEPS[name].columns:
        assert any(column in state["run"]["counters"]
                   for state in states.values()), column


def test_quarantined_point_fails_the_sweep(monkeypatch, capsys):
    """A crashing point among healthy ones: the sweep exits 1 and its
    failed-points table names the point and the error.  The sweep is
    registered here; pool workers only see its points' payloads."""
    def build(**knobs):
        return Sweep(name="isolation", title="isolation", points=[
            SweepPoint("selftest", mode, slot, {"mode": mode},
                       device_gib=1, aged=False)
            for slot, mode in enumerate(("ok", "crash", "ok"))])

    build.help_text, build.columns, build.smoke = "isolation", (), ""
    monkeypatch.setitem(SWEEPS, "isolation", build)
    assert main(["sweep", "isolation", "--jobs", "2", "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert "ok@0" not in captured.err and "crash" in captured.err
    assert "RuntimeError" in captured.err
    assert "1 point(s) quarantined, 2 completed" in captured.err


def test_crash_sweep_fails_on_violations(monkeypatch, capsys):
    """An audit that finds violations fails the sweep and names the
    point and the count (a sweep used to exit 0 whatever its crash
    counters held)."""
    def broken_run_crash(factory, workload, *, seed, max_points):
        def broken():
            system = factory()
            system.fs.journal.skip_commit_fence = True
            return system
        return repro.crash.CrashInjector(
            broken, workload, seed=seed, max_points=max_points).run()

    monkeypatch.setattr(repro.crash, "run_crash", broken_run_crash)
    assert main(["sweep", "crash", "--ops", "6", "--device", "1",
                 "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert "VIOLATION: point syncbench@0 reports " \
           "crash.invariant_violations = " in err


def test_workload_choices_are_the_audit_registry():
    workload = next(action for action in build_parser()._actions
                    if action.dest == "workload")
    assert tuple(workload.choices) == tuple(CRASH_WORKLOADS)
    assert all(name in workload.help for name in CRASH_WORKLOADS)


def test_crash_audit_runs_every_registered_workload(capsys):
    """``readbench`` was a fault-only workload; the one registry makes
    it a crash workload too, and it recovers cleanly."""
    assert main(["crash", "--workload", "readbench", "--max-points", "6",
                 "--device", "1", "--no-cache"]) == 0
    assert "crash.invariant_violations" in capsys.readouterr().out


def test_audit_command_reports_counters(capsys):
    assert main(["crash", "--max-points", "6", "--device", "1",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "crash.points_explored" in out
    assert "crash.invariant_violations" in out


@pytest.mark.parametrize("value", ["bogus", "cxl:deamon", "dram:daemon"])
def test_parser_rejects_bad_tiering(value, capsys):
    """A misspelt tier or suffix, or a daemon with nowhere faster to
    promote to, is a usage error saying why, not a silent static tier
    or a quarantined point."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["crash", "--tiering", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    if value == "dram:daemon":
        assert "hot tier would equal the data tier" in err
    else:
        assert "dram/pmem/cxl/far" in err and ":daemon" in err


@pytest.mark.parametrize("value", ["ddr,xyz", "cxl, ddr ,nvm"])
def test_parser_rejects_unknown_node_kind(value, capsys):
    """A misspelt node kind is a usage error naming it, not an audit
    point quarantined by the machine build."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["crash", "--node-kinds", value])
    assert exit_info.value.code == 2
    bad = value.split(",")[-1].strip()
    assert f"unknown node kind {bad!r}" in capsys.readouterr().err
