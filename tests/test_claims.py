"""The claims registry: check and margin semantics, the runner's
verdicts, the ``claims`` command's exit status, every claim naming
registered sweeps that ``sweep``/``perf``/``claims`` run alike, and the
generated EXPERIMENTS.md block staying in step with the registry.  The
claims themselves run at full size in CI (``python -m repro claims``);
no test here runs a registered sweep's points."""

import json
import re
from pathlib import Path

import pytest

import repro.cli as cli
from repro.analysis.claims import (
    CLAIMS,
    Check,
    Claim,
    Verdict,
    format_claims,
    run_claims,
)
from repro.runner import SWEEPS, Sweep, SweepPoint, SweepResult, run_sweep
from repro.runner.sweeps import build_pairs, build_sweep

ROOT = Path(__file__).resolve().parents[1]

#: The knobs of the CLI's defaults (a claim's pairs override them).
DEFAULTS = cli._knobs(cli.build_parser().parse_args(["claims"]))


def test_check_margin_is_signed_relative_distance():
    assert Check("x", 3.0, ">", 2.0).margin == pytest.approx(0.5)
    assert Check("x", 1.0, ">", 2.0).margin == pytest.approx(-0.5)
    assert Check("x", 1.5, "<", 2.0).margin == pytest.approx(0.25)
    assert Check("x", 5.0, ">", 0).margin == 1.0
    assert Check("x", 2.0, ">=", 2.0).passed
    assert not Check("x", 2.0, ">", 2.0).passed
    assert Check("x", 2.0, "==", 2.0).margin == 0.0
    assert Check("x", 3.0, "==", 2.0).margin == pytest.approx(-0.5)


def test_claim_margin_skips_equalities_that_hold():
    claim = Claim("c", "artifact", lambda r: ())
    verdict = Verdict(claim, [Check("n", 4, "==", 4),
                              Check("a", 3.0, ">", 2.0),
                              Check("b", 1.0, "<", 1.1)])
    assert verdict.passed
    assert verdict.margin == pytest.approx(0.1 / 1.1)
    broken = Verdict(claim, [Check("n", 5, "==", 4), Check("a", 3, ">", 2)])
    assert not broken.passed and broken.margin == pytest.approx(-0.25)


def _ephemeral(series, interface):
    return SweepPoint("ephemeral", series, 1,
                      {"file_size": 8 << 10, "num_files": 8,
                       "num_threads": 1, "interface": interface},
                      device_gib=1, aged=False)


def _speedup(r):
    yield Check("daxvm/read", r.run(series="daxvm").ops_per_second
                / r.run(series="read").ops_per_second, ">", 1.0)


def _register(monkeypatch, name, build):
    """Register ``build`` as sweep ``name`` (the parent builds sweeps;
    pool workers only see payloads)."""
    build.help_text, build.columns, build.smoke = name, (), ""
    monkeypatch.setitem(SWEEPS, name, build)


def _fixed(name, *points):
    """A builder of ``points`` whatever the knobs."""
    return lambda **knobs: Sweep(name=name, title=name, points=list(points))


def _pair(monkeypatch):
    _register(monkeypatch, "pair", _fixed("pair", _ephemeral("read", "read"),
                                          _ephemeral("daxvm", "daxvm")))
    return (("pair", {}),)


def test_run_claims_shares_points_and_reports_failures(monkeypatch):
    pair = _pair(monkeypatch)
    _register(monkeypatch, "broken", _fixed(
        "broken", SweepPoint("selftest", "crash", 0, {"mode": "crash"},
                             device_gib=1, aged=False)))
    claims = [
        Claim("speedup", "a", _speedup, pair),
        Claim("same-points", "b",
              lambda r: [Check("points", len(r.points), "==", 3)], pair),
        Claim("quarantined", "c", _speedup, (("broken", {}),)),
        Claim("raises", "d", lambda r: [r.get(series="nope")], pair),
    ]
    result, verdicts = run_claims(claims, run_sweep, DEFAULTS)
    assert len(result.points) == 2 and len(result.failed) == 1
    speedup, same, quarantined, raises = verdicts
    assert speedup.passed and speedup.margin > 0
    assert not same.passed and same.checks[0].value == 2
    assert "quarantined point(s): crash@0" in quarantined.error
    assert raises.error.startswith("KeyError")
    table = format_claims(verdicts)
    assert "| speedup | a | daxvm/read > 1 |" in table
    assert table.count("FAIL") == 3


def test_claims_command_exit_status(monkeypatch, capsys, tmp_path):
    pair = _pair(monkeypatch)
    cache = ["--cache-dir", str(tmp_path)]
    monkeypatch.setitem(cli.CLAIMS, "speedup",
                        Claim("speedup", "a", _speedup, pair))
    assert cli.main(["claims", "speedup", *cache]) == 0
    assert "| speedup |" in capsys.readouterr().out
    failing = Claim("speedup", "a",
                    lambda r: [Check("points", len(r.points), "==", 3)],
                    pair)
    monkeypatch.setitem(cli.CLAIMS, "speedup", failing)
    assert cli.main(["claims", "speedup", *cache]) == 1
    assert "claims: FAIL speedup" in capsys.readouterr().err
    # ``sweep`` runs a claim's pairs, checks or not: both points, from
    # the cache the claims runs filled.
    assert cli.main(["sweep", "speedup", *cache]) == 0
    out = capsys.readouterr().out
    assert "== pair ops=400" in out and "2/2 points served from cache" in out


def test_every_claim_names_only_registered_sweeps():
    for claim in CLAIMS.values():
        assert claim.sweeps, claim.id
        for name, knobs in claim.sweeps:
            assert name in SWEEPS, (claim.id, name)
            assert set(knobs) <= set(DEFAULTS), (claim.id, knobs)


def test_sweep_perf_and_claims_run_the_same_points(monkeypatch, capsys):
    """For every claim, ``sweep ID``, ``perf ID`` and ``claims ID`` hand
    the runner the same points in the same order (nothing simulates:
    the runner is replaced by one that records and returns none)."""
    ran = []

    def record(args, sweep):
        ran.append([point.key for point in sweep.points])
        return SweepResult(sweep=sweep, points=[])

    monkeypatch.setattr(cli, "_run", record)
    for claim_id in CLAIMS:
        for command in ("sweep", "perf", "claims"):
            cli.main([command, claim_id])
        swept, perf, claimed = ran[-3:]
        assert swept and swept == perf == claimed, claim_id
    capsys.readouterr()


def _distinct(sweep: Sweep) -> bool:
    labels = [point.label for point in sweep.points]
    return len(labels) == len(set(labels))


def test_every_sweep_has_distinct_labels():
    """At its smoke knobs and at every pair a claim names, so a section
    of ``sweep``/``perf`` output never hides a point."""
    parser = cli.build_parser()
    for name, builder in SWEEPS.items():
        args = parser.parse_args(["sweep", name, *builder.smoke.split()])
        assert _distinct(build_sweep(name, **cli._knobs(args))), name
    for claim in CLAIMS.values():
        for (name, _), sweep in zip(claim.sweeps,
                                    build_pairs(claim.sweeps, DEFAULTS)):
            assert _distinct(sweep), (claim.id, name)


def test_perf_json_keeps_every_point_of_a_claim(monkeypatch, capsys,
                                                tmp_path):
    """Two pairs of one claim whose points share labels: ``perf --json``
    nests the states by pair, so none is dropped."""
    def build(*, ops, **machine):
        return Sweep(name="tiny", title="tiny", points=[SweepPoint(
            "ephemeral", interface, 1,
            {"file_size": 8 << 10, "num_files": ops, "num_threads": 1,
             "interface": interface}, device_gib=1, aged=False)
            for interface in ("read", "daxvm")])

    _register(monkeypatch, "tiny", build)
    monkeypatch.setitem(CLAIMS, "twice", Claim(
        "twice", "t", lambda r: (), (("tiny", {"ops": 4}),
                                     ("tiny", {"ops": 6}))))
    assert cli.main(["perf", "twice", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
    states = json.loads(capsys.readouterr().out)
    assert [sorted(points) for points in states.values()] == \
        [["daxvm@1", "read@1"]] * 2
    assert [key.split()[:2] for key in states] == [["tiny", "ops=4"],
                                                  ["tiny", "ops=6"]]


def test_experiments_block_lists_every_claim_in_order():
    """The block is pasted from ``python -m repro claims``; CI diffs
    the values, this keeps its rows in step with the registry."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    block = re.search(r"<!-- claims:begin -->\n(.*?)<!-- claims:end -->",
                      text, re.S).group(1)
    rows = block.strip().splitlines()
    assert rows[:2] == format_claims([]).splitlines()
    assert [row.split(" | ")[0][2:] for row in rows[2:]] == list(CLAIMS)
    design = (ROOT / "DESIGN.md").read_text()
    for claim_id in CLAIMS:
        assert f"`{claim_id}`" in design, claim_id
