"""The golden gates (:mod:`repro.analysis.goldens`).

Every (gate, candidate) pair replays its capture and must reproduce
the gate's file under ``tests/golden/`` byte for byte: the 1-node
topology, the radix4 scheme, the tier registry, the fast-forward and
classic engines, an empty fault plan, crash replay, passive tenancy
and a pass-through hypervisor all change no simulated number.  The
self-tests below keep the harness itself honest.

If a gate fails, the message names the gate and the first drifted
label and field.  Recapture (``python -m repro golden --recapture
NAME``) only when a change intends to move simulated numbers, and say
so in the change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.goldens import (
    GATES,
    GOLDEN_DIR,
    check,
    compare,
    golden_path,
)
from repro.cli import main

PAIRS = [(gate, candidate) for gate, (_file, _ref, candidates)
         in GATES.items() for candidate in candidates]


@pytest.mark.parametrize("gate,candidate", PAIRS,
                         ids=[f"{g}-{c}" for g, c in PAIRS])
def test_candidate_matches_golden(gate, candidate):
    check(gate, candidate)


def test_every_golden_file_belongs_to_exactly_one_gate():
    files = [file for file, _ref, _candidates in GATES.values()]
    assert len(files) == len(set(files))
    assert sorted(files) == sorted(p.name for p in GOLDEN_DIR.glob("*.json"))
    for gate in GATES:
        assert golden_path(gate).exists(), gate


def test_tampered_golden_names_gate_label_and_field(tmp_path):
    golden = json.loads(golden_path("mmu").read_text())
    tampered = json.loads(json.dumps(golden))
    run = tampered["apache-aged"]["daxvm@4"]
    domain = sorted(run["ledger"]["domains"])[0]
    run["ledger"]["domains"][domain] += 1.0
    path = tmp_path / "mmu_equivalence.json"
    path.write_text(json.dumps(tampered, indent=2, sort_keys=True) + "\n")
    with pytest.raises(AssertionError) as err:
        compare("mmu", golden, path)
    message = str(err.value)
    assert "mmu gate" in message
    assert f"apache-aged/daxvm@4/ledger/domains/{domain}" in message


def test_recapture_of_unknown_gate_exits_2_and_lists_gates(capsys):
    assert main(["golden", "--recapture", "nosuch"]) == 2
    err = capsys.readouterr().err
    for gate in GATES:
        assert gate in err


def test_registry_stays_off_the_run_path():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = ("import sys, repro.runner.worker, repro.runner.sweeps, "
              "repro.crash, repro.faults, repro.tiering, repro.virt; "
              "print([m for m in sys.modules if 'golden' in m])")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
