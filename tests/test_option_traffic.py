"""Every keyword option of the machine's main entry points has a caller.

An option that no shipped code path passes has exactly one value in
use; its other values are dead branches that tests, goldens and any
sensitivity screen would still have to cover.  This scans the shipped
source -- the package, the benchmark and the examples, not the tests
-- for calls of each entry point and fails when a parameter with a
default is never passed, by keyword or by position.
An entry point whose options were all folded to constants has nothing
left to pass; it stays listed so that a new option needs a caller.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.analysis.report import format_series, render_bars
from repro.config import CostModel
from repro.crash import CrashInjector
from repro.faults import FaultInjector
from repro.fs.vfs import InodeCache
from repro.mem.latency import MemoryModel
from repro.mem.physmem import PhysicalMemory
from repro.obs.histogram import Histogram
from repro.obs.ledger import Ledger
from repro.runner import SweepPoint, run_point, run_sweep
from repro.sim.engine import Engine, Wake
from repro.sim.stats import Stats
from repro.system import System
from repro.tenancy import CpuThrottle, consolidate_config
from repro.vm.mm import MMStruct
from repro.workloads.common import map_file

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = (ROOT / "src" / "repro", ROOT / "bench", ROOT / "examples")

#: Entry point -> the function or class name its calls are found by.
ENTRY_POINTS = {
    "CostModel.copy_cycles": (CostModel.copy_cycles, "copy_cycles"),
    "CpuThrottle": (CpuThrottle.__init__, "CpuThrottle"),
    "CrashInjector": (CrashInjector.__init__, "CrashInjector"),
    "Engine.seconds": (Engine.seconds, "seconds"),
    "FaultInjector": (FaultInjector.__init__, "FaultInjector"),
    "Histogram.percentiles": (Histogram.percentiles, "percentiles"),
    "InodeCache": (InodeCache.__init__, "InodeCache"),
    "Ledger.events": (Ledger.events, "events"),
    "MMStruct.access": (MMStruct.access, "access"),
    "MemoryModel.device_delay": (MemoryModel.device_delay, "device_delay"),
    "PhysicalMemory.region": (PhysicalMemory.region, "region"),
    "Stats.observe": (Stats.observe, "observe"),
    "SweepPoint": (SweepPoint.__init__, "SweepPoint"),
    "System.daxvm_for": (System.daxvm_for, "daxvm_for"),
    "System.new_process": (System.new_process, "new_process"),
    "System": (System.__init__, "System"),
    "System.seconds": (System.seconds, "seconds"),
    "Wake": (Wake.__init__, "Wake"),
    "consolidate_config": (consolidate_config, "consolidate_config"),
    "format_series": (format_series, "format_series"),
    "map_file": (map_file, "map_file"),
    "render_bars": (render_bars, "render_bars"),
    "run_point": (run_point, "run_point"),
    "run_sweep": (run_sweep, "run_sweep"),
}


def _optional_params(func):
    """Names and positions (after ``self``, if any) of the parameters
    that have defaults: the options a caller may leave out."""
    params = [p for p in inspect.signature(func).parameters.values()
              if p.name != "self"]
    return {p.name: i for i, p in enumerate(params)
            if p.default is not inspect.Parameter.empty}


def _called(func, method: str) -> bool:
    """Is ``func`` a call of ``<expr>.<method>`` or of bare ``method``?"""
    if isinstance(func, ast.Attribute):
        return func.attr == method
    return isinstance(func, ast.Name) and func.id == method


def _passed(method: str):
    """Keyword names and the highest positional count over every
    ``<expr>.<method>(...)`` or ``<method>(...)`` call in the shipped
    source."""
    keywords, most_positional = set(), 0
    for path in sorted(p for root in SHIPPED for p in root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _called(node.func, method):
                keywords.update(k.arg for k in node.keywords if k.arg)
                most_positional = max(most_positional, len(node.args))
    return keywords, most_positional


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_option_is_passed_somewhere(name):
    func, method = ENTRY_POINTS[name]
    optional = _optional_params(func)
    keywords, most_positional = _passed(method)
    assert not optional or most_positional or keywords, \
        f"no call of {name} found"
    unused = sorted(param for param, index in optional.items()
                    if param not in keywords and index >= most_positional)
    assert not unused, (
        f"{name}: no shipped call passes {unused}; an option with "
        f"one value in use should be that value as a constant")
