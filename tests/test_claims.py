"""The claims registry: check and margin semantics, the runner's
verdicts, the ``claims`` command's exit status, and the generated
EXPERIMENTS.md block staying in step with the registry.  The claims
themselves run at full size in CI (``python -m repro claims``)."""

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
from repro.runner import POINT_RUNNERS, SweepPoint, run_sweep

ROOT = Path(__file__).resolve().parents[1]


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


def test_run_claims_shares_points_and_reports_failures():
    points = (_ephemeral("read", "read"), _ephemeral("daxvm", "daxvm"))
    claims = [
        Claim("speedup", "a", _speedup, extra=points),
        Claim("same-points", "b",
              lambda r: [Check("points", len(r.points), "==", 3)],
              extra=points),
        Claim("quarantined", "c", _speedup,
              extra=(SweepPoint("selftest", "crash", 0, {"mode": "crash"},
                                device_gib=1, aged=False),)),
        Claim("raises", "d", lambda r: [r.get(series="nope")],
              extra=points),
    ]
    result, verdicts = run_claims(claims, run_sweep)
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
    points = (_ephemeral("read", "read"), _ephemeral("daxvm", "daxvm"))
    cache = ["--cache-dir", str(tmp_path)]
    monkeypatch.setitem(cli.CLAIMS, "speedup",
                        Claim("speedup", "a", _speedup, extra=points))
    assert cli.main(["claims", "speedup", *cache]) == 0
    assert "| speedup |" in capsys.readouterr().out
    failing = Claim("speedup", "a",
                    lambda r: [Check("points", len(r.points), "==", 3)],
                    extra=points)
    monkeypatch.setitem(cli.CLAIMS, "speedup", failing)
    assert cli.main(["claims", "speedup", *cache]) == 1
    assert "claims: FAIL speedup" in capsys.readouterr().err
    assert cli.main(["sweep", "speedup"]) == 2


def test_every_claim_names_runnable_points():
    for claim in CLAIMS.values():
        for point in claim.points():
            assert point.experiment in POINT_RUNNERS, (claim.id, point)


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
