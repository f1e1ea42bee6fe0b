"""Tests of the benchmark itself, at ``--smoke`` size (about a second
per workload).  Run with ``pytest bench/`` from the repository root."""

import json
import os
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import compare, load_metric_specs, verdict
from run import LAYERS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(out: Path, workload: str, seed: int, trace: int,
           cwd: Path = ROOT):
    record_file = out / f"{workload}-{seed}-{trace}.json"
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke",
         "--json", str(record_file)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    [record] = json.loads(record_file.read_text())
    return result, record


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(workload, seed, trace) -> (result line, full record)``."""
    out = tmp_path_factory.mktemp("bench")
    keys = [(w, 0, trace) for w in WORKLOADS for trace in (0, 1)]
    keys.append(("audit_replicas", 1, 0))
    return {key: _bench(out, *key) for key in keys}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = runs[(workload, 0, trace)]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == declared
    for name, metric in runs[(workload, 0, 0)][0]["metrics"].items():
        assert metric["value"] > 0, name


def _layer(runs, workload: str, name: str) -> float:
    return runs[(workload, 0, 1)][0]["metrics"][name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_cover_the_traced_wall(runs, workload):
    _, record = runs[(workload, 0, 1)]
    wall = record["end_to_end"]["wall_s"]["value"]
    self_total = sum(_layer(runs, workload, f"{name}.self_s")
                     for name in LAYERS)
    assert self_total == pytest.approx(wall, rel=0.02)
    assert record["traced_self_total_s"] == pytest.approx(
        record["traced_wall_s"], rel=0.02)


def test_attached_layers_run_only_on_attached(runs):
    for name in ("tenancy", "tiering", "virt"):
        key = f"{name}.calls_in"
        assert _layer(runs, "attached", key) > 0
        for workload in ("read_contended", "append_single"):
            assert _layer(runs, workload, key) == 0


def test_traced_split_separates_the_workloads(runs):
    def share(workload, *layers):
        wall = runs[(workload, 0, 1)][1]["end_to_end"]["wall_s"]["value"]
        return sum(_layer(runs, workload, f"{n}.self_s")
                   for n in layers) / wall

    assert share("read_contended", "sim") >= 2 * share("append_single",
                                                         "sim")
    assert (share("append_single", "vm", "mem")
            >= 2 * share("read_contended", "vm", "mem"))
    for workload in WORKLOADS:
        calls = _layer(runs, workload, "crash.calls_in")
        assert (calls > 0) == (workload == "audit_replicas"), workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sim_digest_is_stable_across_runs(runs, workload):
    assert (runs[(workload, 0, 0)][1]["sim_digest"]
            == runs[(workload, 0, 1)][1]["sim_digest"])


def test_sim_digest_follows_the_seed_on_audit_replicas(runs):
    assert (runs[("audit_replicas", 0, 0)][1]["sim_digest"]
            != runs[("audit_replicas", 1, 0)][1]["sim_digest"])


def _copy_bench(target: Path, with_src: bool) -> None:
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", target)
    shutil.copytree(BENCH_DIR, target / "bench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", target / "src", ignore=skip)


def _contract_command(seconds) -> list:
    return [sys.executable, "bench/run.py", "--workload", "read_contended",
            "--seed", "0", "--seconds", str(seconds), "--trace", "0"]


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    _copy_bench(tmp_path, with_src=False)
    done = subprocess.run(_contract_command(SPEC["run_seconds"]),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_refuses_another_run_length():
    done = subprocess.run(_contract_command(SPEC["run_seconds"] + 1),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "BENCHMARK.json" in done.stderr


def test_set_up_ignores_bytecode_beside_the_sources(tmp_path):
    """Bytecode left in ``src/`` (say, by the tier-1 tests) must not
    change what set-up costs: the children keep their own cache."""
    _copy_bench(tmp_path, with_src=True)
    package = tmp_path / "src" / "repro"
    stale = tmp_path / "stale.py"
    stale.write_text("raise SystemExit('stale bytecode was imported')\n")
    py_compile.compile(
        str(stale), doraise=True,
        cfile=str(package / "__pycache__" /
                  f"__init__.{sys.implementation.cache_tag}.pyc"),
        invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    env.pop("PYTHONPYCACHEPREFIX", None)
    planted = subprocess.run([sys.executable, "-c", "import repro"],
                             env=env, capture_output=True, text=True,
                             timeout=60)
    assert "stale bytecode" in planted.stderr  # the plant is live

    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "attached",
         "--seed", "0", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"]
    written = [p for p in (tmp_path / "src").rglob("__pycache__")
               if p != package / "__pycache__"]
    assert written == []
    assert any((tmp_path / ".bench_build" / "pycache").rglob("system*.pyc"))


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, faster, "lower", 0.1) == "improved"
    assert verdict(parent, slower, "lower", 0.1) == "regressed"
    assert verdict(parent, parent, "lower", 0.1) == "unchanged"
    assert verdict(parent, faster, "higher", 0.1) == "regressed"
    assert verdict(parent[:9], faster[:9], "lower", 0.1) == "unresolved"
    assert verdict(parent, faster, "lower", 0.1,
                   alternating=False) == "unresolved"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert verdict(parent, slower, "lower", None) == "regressed"


def _records(side: int, trace: int, metric: str, scale: float,
             smoke: bool = False) -> list:
    """Ten alternating synthetic run records of one side."""
    section = "per_layer" if trace else "end_to_end"
    return [{"workload": "attached", "trace": trace, "seed": i,
             "seconds": 0 if smoke else SPEC["run_seconds"],
             "smoke": smoke, "started_at": 2 * i + (side + i) % 2,
             "sim_digest": "d", "failed": 0,
             section: {metric: {"value": scale * (10 + i % 3),
                                "unit": "s"}}}
            for i in range(10)]


def test_compare_counts_only_end_to_end_regressions(capsys):
    specs = load_metric_specs()
    assert compare(_records(0, 1, "vm.self_s", 1.0),
                   _records(1, 1, "vm.self_s", 1.5), specs) == 0
    assert "regressed (information)" in capsys.readouterr().out
    assert compare(_records(0, 0, "wall_s", 1.0),
                   _records(1, 0, "wall_s", 1.5), specs) == 1


def test_compare_refuses_runs_of_different_sizes():
    with pytest.raises(ValueError, match="cannot be paired"):
        compare(_records(0, 0, "wall_s", 1.0),
                _records(1, 0, "wall_s", 1.0, smoke=True),
                load_metric_specs())
