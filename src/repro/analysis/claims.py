"""The paper's claims as data, checked through the sweep runner.

A :class:`Claim` is one shape the reproduction promises (DESIGN.md §3
names them): who wins, by roughly how much, and where the crossovers
fall.  It names its points as ``(sweep, knobs)`` pairs: registered
sweeps of :mod:`repro.runner.sweeps`, their knobs merged over the
CLI's.  It yields :class:`Check` s, each ``value OP bound``, with the
paper's stated value where there is one.  The first check a claim
yields is its headline.

``python -m repro claims`` runs the union of every claim's points
through :func:`repro.runner.run_sweep`, so claims get the result cache,
the pool and ``--jobs``, and prints one row per claim; ``sweep ID``
and ``perf ID`` run one claim's pairs the same way.  Every machine is
built by :func:`repro.runner.worker.build_system` from its point.

A check's *margin* is its signed distance from its bound, relative to
the bound: positive when the operator holds with room to spare, zero
at an exact tie, negative when it fails.  A claim's margin is its
smallest check margin (equalities that hold aside), and a claim passes
when every check's operator holds.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.results import RunResult
from repro.config import MEDIA_PRESETS, CostModel
from repro.obs import CostDomain
from repro.runner.manifest import PointResult, Sweep, SweepPoint, pooled
from repro.runner.sweeps import (
    CONSOLIDATE_TENANTS,
    PAGE_SIZES,
    SYNC_INTERVALS,
    TIERING_TIERS,
    Pair,
    build_pairs,
)
from repro.workloads import AppendVariant, SyncDiscipline

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One ``value OP bound`` predicate over a claim's results."""

    label: str
    value: float
    op: str
    bound: float
    #: The paper's stated value, as the paper words it ("" if none).
    paper: str = ""

    @property
    def passed(self) -> bool:
        return bool(OPS[self.op](self.value, self.bound))

    @property
    def margin(self) -> float:
        """Signed distance from the bound, relative to the bound (to
        the value when the bound is zero, so such checks read ±1)."""
        if self.op == "==":
            gap = -abs(self.value - self.bound) or 0.0
        elif self.op in (">", ">="):
            gap = self.value - self.bound
        else:
            gap = self.bound - self.value
        return gap / (abs(self.bound) or abs(self.value) or 1.0)


_FIELDS = {f.name for f in fields(SweepPoint)}


class Results:
    """A claim's point results, looked up by point field or param."""

    def __init__(self, points: Sequence[PointResult]):
        self.points = list(points)

    def all(self, **match) -> List[PointResult]:
        return [pr for pr in self.points
                if all((getattr(pr.point, key) if key in _FIELDS
                        else pr.point.params.get(key)) == want
                       for key, want in match.items())]

    def get(self, **match) -> PointResult:
        found = self.all(**match)
        if len(found) != 1:
            raise KeyError(f"{len(found)} points match {match}")
        return found[0]

    def run(self, **match) -> RunResult:
        return self.get(**match).run


@dataclass
class Claim:
    id: str
    artifact: str
    checks: Callable[[Results], Iterable[Check]]
    sweeps: Tuple[Pair, ...] = ()


@dataclass
class Verdict:
    claim: Claim
    checks: List[Check] = field(default_factory=list)
    #: Why the checks could not be evaluated ("" when they were).
    error: str = ""

    @property
    def passed(self) -> bool:
        return not self.error and all(c.passed for c in self.checks)

    @property
    def margin(self) -> float:
        """The tightest check's margin; an equality that holds has no
        room either way, so it does not bound the claim's margin."""
        return min((c.margin for c in self.checks
                    if c.op != "==" or not c.passed), default=0.0)


CLAIMS: Dict[str, Claim] = {}


def claim(claim_id: str, artifact: str, *sweeps: Pair):
    """Register a claim on its ``(sweep, knobs)`` pairs; the decorated
    function yields its checks.  The CLI's default knobs are the
    benchmark machine: Optane, a 4 GiB device, aged ext4, 32 KB
    files."""
    def decorate(fn):
        CLAIMS[claim_id] = Claim(claim_id, artifact, fn, sweeps)
        return fn
    return decorate


def _ratio(label: str, num: float, den: float, op: str, bound: float,
           paper: str = "") -> Check:
    return Check(label, num / den, op, bound, paper)


# ---------------------------------------------------------------------------
# Figure 1: the headline comparisons of DAX interfaces.
# ---------------------------------------------------------------------------
def _files(size: int) -> int:
    """Read-once file count at ``size``: a 256 MB budget, 3 to 300."""
    return max(3, min(300, (256 << 20) // size))


FIG1A_SIZES = (4 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 16 << 20,
               64 << 20)


@claim("fig1a", "Fig. 1a read-once latency vs file size",
       *[("ephemeral", {"ops": _files(s), "size": s}) for s in FIG1A_SIZES])
def _fig1a(r: Results):
    def lat(series, kb):
        return r.run(series=series, file_size=kb << 10).latency_us

    for kb in (4, 32, 128):
        yield _ratio(f"mmap/read latency, {kb} KB", lat("mmap", kb),
                     lat("read", kb), ">", 1.0, "up to 1.3")
        yield _ratio(f"mmap/read latency, {kb} KB", lat("mmap", kb),
                     lat("read", kb), "<", 2.0, "up to 1.3")
    for kb in (32, 128, 512, 2048):
        yield _ratio(f"daxvm/read latency, {kb} KB", lat("daxvm", kb),
                     lat("read", kb), "<", 1.0, "< 1")


@claim("fig1b", "Fig. 1b read-once throughput vs threads",
       ("scaling", {"ops": 1600}))
def _fig1b(r: Results):
    def kops(series, threads):
        return r.run(series=series, x=threads).ops_per_second / 1e3

    mmap = [pr.run.ops_per_second / 1e3 for pr in r.all(series="mmap")]
    yield _ratio("daxvm/mmap at 16 threads", kops("daxvm", 16),
                 kops("mmap", 16), ">", 3, "mmap does not scale")
    yield Check("mmap peak Kops/s vs best of 2 and 4 threads", max(mmap),
                "==", max(kops("mmap", 2), kops("mmap", 4)))
    yield _ratio("mmap at 16 threads / mmap peak", kops("mmap", 16),
                 max(mmap), "<", 1.0)
    yield _ratio("mmap at 16 / 4 threads", kops("mmap", 16),
                 kops("mmap", 4), "<", 1.1)
    yield _ratio("daxvm/read at 16 threads", kops("daxvm", 16),
                 kops("read", 16), ">", 0.9)
    yield _ratio("daxvm/read at 1 thread", kops("daxvm", 1),
                 kops("read", 1), ">", 1.0)


#: Figs. 1c and 5: one pass of 4 KB ops over the 96 MB file.
REPETITIVE = ("repetitive", {"ops": 384})


def _repetitive(r: Results, iface: str, pattern: str, mode: str, kb: int,
                suffix: str = "") -> float:
    """Ops/s of one ``repetitive`` sweep point."""
    return r.run(series=f"{iface}+{pattern}+{mode}{suffix}",
                 x=kb).ops_per_second


@claim("fig1c", "Fig. 1c repetitive 4 KB ops over a large file", REPETITIVE)
def _fig1c(r: Results):
    def kops(pattern, mode, iface):
        return _repetitive(r, iface, pattern, mode, 4, "+nomonitor") / 1e3

    yield _ratio("seq read mmap/read", kops("seq", "read", "mmap"),
                 kops("seq", "read", "read"), "<=", 1.05, "<= 1")
    for pattern in ("seq", "rand"):
        for mode in ("read", "write"):
            for other in ("mmap", "read"):
                yield _ratio(f"{pattern} {mode} daxvm/{other}",
                             kops(pattern, mode, "daxvm"),
                             kops(pattern, mode, other), ">", 1.0, "> 1")


# ---------------------------------------------------------------------------
# Tables II and III (Table I's DaxVM column is executed by
# tests/test_interface.py::test_table1_daxvm_capabilities_execute).
# ---------------------------------------------------------------------------
#: Table II's cells: (pattern, table medium) -> paper cycles per walk.
TABLE2 = {("seq", "dram"): 28, ("rand", "dram"): 111,
          ("seq", "pmem"): 103, ("rand", "pmem"): 821}


@claim("tab2", "Table II average page-walk cycles",
       ("tables", {"ops": 16384, "aged": False}))
def _tab2(r: Results):
    def walk(pattern, tables):
        c = r.run(series=tables, pattern=pattern).counters
        return c["vm.walk_cycles"] / c["vm.tlb_misses"]

    yield Check("rand read, PMem tables: cycles/walk", walk("rand", "pmem"),
                ">", 600, "821")
    yield _ratio("rand/seq cycles/walk, DRAM tables", walk("rand", "dram"),
                 walk("seq", "dram"), ">", 2.5, "4.0")
    yield _ratio("PMem/DRAM cycles/walk, rand", walk("rand", "pmem"),
                 walk("rand", "dram"), ">", 5, "7.4")
    for (pattern, tables), paper in TABLE2.items():
        yield Check(f"{pattern} read, {tables} tables: |error| vs paper",
                    abs(walk(pattern, tables) - paper) / paper, "<", 0.25,
                    str(paper))


@claim("tab3", "Table III MMU monitor rule",
       ("tables", {"ops": 8192, "aged": False}))
def _tab3(r: Results):
    def monitor(pattern):
        pr = r.get(series="pmem", pattern=pattern)
        walk = pr.run.counters.get("vm.walk_cycles", 0.0)
        avg = walk / pr.run.counters.get("vm.tlb_misses", 1.0)
        overhead = walk / pr.run.cycles
        costs = MEDIA_PRESETS[pr.point.media]()
        fired = (avg > costs.monitor_walk_cycles
                 and overhead > costs.monitor_mmu_overhead)
        return avg, overhead, float(fired)

    seq_avg, _seq_overhead, seq_fired = monitor("seq")
    rand_avg, rand_overhead, rand_fired = monitor("rand")
    yield Check("rand AvgPageWalk (cycles)", rand_avg, ">", 200, "> 200")
    yield Check("rand MMU overhead", rand_overhead, ">", 0.05, "> 5%")
    yield Check("rand: rule fires", rand_fired, "==", 1.0, "fires")
    yield Check("seq AvgPageWalk (cycles)", seq_avg, "<", 200, "< 200")
    yield Check("seq: rule fires", seq_fired, "==", 0.0, "does not fire")


# ---------------------------------------------------------------------------
# Figures 4-7: microbenchmarks.
# ---------------------------------------------------------------------------
FIG4_SIZES = (4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20,
              16 << 20, 64 << 20)


def _rel_read(r: Results, series: str, **match) -> float:
    """Read-once throughput of ``series`` relative to read()."""
    return (r.run(series=series, **match).mb_per_second
            / r.run(series="read", **match).mb_per_second)


@claim("fig4", "Fig. 4 ephemeral throughput rel. to read",
       *[("ephemeral", {"ops": _files(s), "size": s}) for s in FIG4_SIZES])
def _fig4(r: Results):
    def rel(series, kb):
        return _rel_read(r, series, file_size=kb << 10)

    yield Check("best daxvm/read", max(rel("daxvm", s >> 10)
                                       for s in FIG4_SIZES),
                ">", 1.35, "up to 1.5")
    for kb in (4, 16, 64):
        yield Check(f"mmap/read, {kb} KB", rel("mmap", kb), "<", 1.0, "~0.8")
        yield Check(f"mmap/read, {kb} KB", rel("mmap", kb), ">", 0.55, "~0.8")
    yield _ratio("populate/mmap, 1 MB", rel("populate", 1024),
                 rel("mmap", 1024), ">", 1.0)
    for kb in (16, 64, 256, 1024, 4096):
        yield Check(f"daxvm/read, {kb} KB", rel("daxvm", kb), ">", 1.0)
    for kb in (16 << 10, 64 << 10):
        yield Check(f"daxvm/read, {kb} KB", rel("daxvm", kb), ">", 1.3)


@claim("fig4-aging", "Fig. 4 robustness to fragmentation (16 MB files)",
       *[("ephemeral", {"ops": _files(16 << 20), "size": 16 << 20,
                        "aged": aged}) for aged in (False, True)])
def _fig4_aging(r: Results):
    def drop(series):
        return _rel_read(r, series, aged=False) - _rel_read(r, series,
                                                            aged=True)

    yield Check("mmap/read drop, fresh to aged", drop("mmap"), ">", 0.15,
                "mmap decays")
    yield Check("daxvm/read drop, fresh to aged", drop("daxvm"), "<",
                drop("mmap") / 2, "robust")


@claim("fig5", "Fig. 5 repetitive 1 KB/4 KB access", REPETITIVE)
def _fig5(r: Results):
    def ratio(kb, pattern, mode, a, b):
        return (_repetitive(r, a, pattern, mode, kb)
                / _repetitive(r, b, pattern, mode, kb))

    for pattern in ("seq", "rand"):
        for mode in ("read", "write"):
            where = f"4 KB {pattern} {mode}"
            daxvm = ratio(4, pattern, mode, "daxvm", "read")
            yield Check(f"{where} daxvm/syscall", daxvm, ">", 1.3, "1.3-3.9")
            yield Check(f"{where} daxvm/syscall", daxvm, "<", 4.2, "1.3-3.9")
            yield Check(f"{where} daxvm/mmap",
                        ratio(4, pattern, mode, "daxvm", "mmap"),
                        ">", 1.25, "1.8-2.2")
    for mode in ("read", "write"):
        yield Check(f"4 KB seq {mode} mmap/syscall",
                    ratio(4, "seq", mode, "mmap", "read"), "<", 1.0, "< 1")
    for pattern in ("seq", "rand"):
        for mode in ("read", "write"):
            where = f"1 KB {pattern} {mode}"
            yield Check(f"{where} mmap/syscall",
                        ratio(1, pattern, mode, "mmap", "read"),
                        ">", 0.85, ">= 1")
            yield Check(f"{where} daxvm/syscall",
                        ratio(1, pattern, mode, "daxvm", "read"),
                        ">", 1.3, "1.3-3.9")
            yield Check(f"{where} daxvm/mmap",
                        ratio(1, pattern, mode, "daxvm", "mmap"),
                        ">", 1.4, "up to 2")


def _monitor_gain(r: Results, every: int) -> float:
    return (r.run(monitor_every=every).ops_per_second
            / r.run(monitor_every=0).ops_per_second)


@claim("fig5-monitor", "§V-B table migration on irregular access",
       ("monitor", {"ops": 16384}))
def _fig5_monitor(r: Results):
    gain = _monitor_gain(r, 2048)
    yield Check("monitor on/off throughput", gain, ">", 1.02, "~1.10")
    yield Check("monitor on/off throughput", gain, "<", 1.35, "~1.10")


@claim("fig6", "Fig. 6 sync disciplines rel. to write()+fsync",
       ("sync", {"ops": 2000, "size": 384 << 20}))
def _fig6(r: Results):
    def rel(discipline, k):
        return (r.run(discipline=discipline.value, x=k).mb_per_second
                / r.run(discipline=SyncDiscipline.WRITE_FSYNC.value,
                        x=k).mb_per_second)

    mmap_fsync, daxvm_fsync = (SyncDiscipline.MMAP_FSYNC,
                               SyncDiscipline.DAXVM_FSYNC)
    mmap_user, nosync = SyncDiscipline.MMAP_USER, SyncDiscipline.DAXVM_NOSYNC
    for k in (64, 512, 2048):
        yield Check(f"daxvm-nosync, {k} ops/sync", rel(nosync, k), ">", 1.5,
                    "up to 1.8")
        yield _ratio(f"daxvm-nosync / mmap-user, {k} ops/sync",
                     rel(nosync, k), rel(mmap_user, k), ">", 1.0)
        yield Check(f"mmap-user, {k} ops/sync", rel(mmap_user, k), "<", 1.0,
                    "~0.6")
    for k in (64, 512, 2048, 8192):
        yield Check(f"mmap+fsync, {k} ops/sync", rel(mmap_fsync, k), "<",
                    1.0, "down to 0.32")
    yield Check("mmap+fsync, worst interval",
                min(rel(mmap_fsync, k) for k in SYNC_INTERVALS), ">", 0.3,
                "0.32")
    yield Check("daxvm+fsync, 4 ops/sync", rel(daxvm_fsync, 4), "<", 0.35,
                "~10x worse")
    yield _ratio("daxvm+fsync / mmap+fsync, 2048 ops/sync",
                 rel(daxvm_fsync, 2048), rel(mmap_fsync, 2048), ">", 0.8,
                 "parity")


#: Fig. 7: the appends sweep on fresh images, 40 appends per point
#: (30 for §III-B's zeroing points, 60 for §V-B's table points).
APPENDS = ("appends", {"ops": 320, "aged": False})


def _append_rel(r: Results, fs_type: str, variant: str, kb: int) -> float:
    """Append throughput of ``variant`` relative to write()."""
    def mb(v):
        return r.run(series=f"{fs_type}+{v}", x=kb).mb_per_second
    return mb(variant) / mb(AppendVariant.WRITE.value)


@claim("fig7-ext4", "Fig. 7 appends on ext4-DAX", APPENDS)
def _fig7_ext4(r: Results):
    def rel(variant, kb=1024):
        return _append_rel(r, "ext4", variant, kb)

    yield Check("daxvm+prezero/write, 1 MB", rel("daxvm+prezero"), ">", 1.5,
                "up to 2")
    yield _ratio("daxvm+prezero/mmap, 1 MB", rel("daxvm+prezero"),
                 rel("mmap"), ">", 1.6, "up to 2")
    yield _ratio("daxvm+prezero/daxvm, 1 MB", rel("daxvm+prezero"),
                 rel("daxvm"), ">", 1.5, "up to 2")
    yield _ratio("+nosync/daxvm+prezero, 1 MB", rel("daxvm+prezero+nosync"),
                 rel("daxvm+prezero"), ">=", 1.0, "up to 1.5")
    yield Check("daxvm/write, 4 KB", rel("daxvm", 4), "<", 1.0, "< 1")


@claim("fig7-nova", "Fig. 7 appends on NOVA", APPENDS)
def _fig7_nova(r: Results):
    def rel(variant, kb=1024):
        return _append_rel(r, "nova", variant, kb)

    yield Check("daxvm+prezero+nosync/write, 4 MB",
                rel("daxvm+prezero+nosync", 4096), ">", 1.0, "up to 1.45")
    yield Check("daxvm+prezero+nosync/write, 4 MB",
                rel("daxvm+prezero+nosync", 4096), "<", 1.8, "up to 1.45")
    yield Check("mmap/write, 1 MB", rel("mmap"), "<", 0.65, "< 0.5")
    yield _ratio("daxvm+prezero/daxvm, 1 MB", rel("daxvm+prezero"),
                 rel("daxvm"), ">", 1.0)


def _zeroing_shares(r: Results, series: str, sizes: Sequence[int],
                    low: float, high: float, **match):
    """§III-B: share of a DaxVM append's latency that is zeroing."""
    for size in sizes:
        def lat(variant):
            return r.run(series=f"{series}{variant}", append_size=size,
                         **match).latency_us
        share = 1 - lat("daxvm+prezero") / lat("daxvm")
        for op, bound in ((">", low), ("<", high)):
            yield Check(f"zeroing share, {size >> 10} KB appends", share,
                        op, bound, "0.3-0.4")


@claim("fig7-zeroing", "§III-B zeroing share of MM appends (Fig. 7 runs)",
       APPENDS)
def _fig7_zeroing(r: Results):
    yield from _zeroing_shares(r, "ext4+", (64 << 10, 256 << 10, 1 << 20),
                               0.2, 0.6)


# ---------------------------------------------------------------------------
# Figure 8: Apache.
# ---------------------------------------------------------------------------
#: Fig. 8a at 2400 requests, and its 16-core incremental bars.
APACHE = ("apache", {"ops": 2400})
ABLATIONS = ("ablations", {"ops": 2400})


@claim("fig8a", "Fig. 8a Apache scalability, 32 KB pages", APACHE,
       ABLATIONS)
def _fig8a(r: Results):
    def kreq(series, cores=16):
        return r.run(series=series, x=cores).ops_per_second / 1e3

    full = kreq("daxvm")
    yield _ratio("daxvm/mmap, 16 cores", full, kreq("mmap"), ">", 3.5,
                 "up to 4.9")
    yield _ratio("mmap at 16 cores / mmap peak", kreq("mmap"),
                 max(pr.run.ops_per_second / 1e3
                     for pr in r.all(series="mmap")), "<", 1.0,
                 "no scaling past 4")
    yield _ratio("mmap at 16 / 4 cores", kreq("mmap"), kreq("mmap", 4), "<",
                 1.45)
    yield _ratio("read at 16 / 1 cores", kreq("read"), kreq("read", 1), ">",
                 10, "near-linear")
    yield _ratio("file tables/populate, 16 cores", kreq("+filetables"),
                 kreq("populate"), ">", 2)
    yield _ratio("+ephemeral/file tables, 16 cores", kreq("+ephemeral"),
                 kreq("+filetables"), ">", 1.1, "~2")
    yield _ratio("+async/+ephemeral, 16 cores", full, kreq("+ephemeral"),
                 ">=", 1.0, "~1.05")
    yield _ratio("latr/populate, 16 cores", kreq("latr"), kreq("populate"),
                 ">", 1.0)
    yield _ratio("mmap+async/latr, 16 cores", kreq("mmap+async"),
                 kreq("latr"), ">", 1.05, "~1.12")
    yield _ratio("daxvm/latr, 16 cores", full, kreq("latr"), ">", 2)
    yield _ratio("daxvm/read, 16 cores", full, kreq("read"), ">", 0.95,
                 "1.3")


@claim("fig8a-sweep", "Fig. 8a through the apache sweep",
       ("apache", {"ops": 800}))
def _fig8a_sweep(r: Results):
    def kreq(series, cores=16):
        return r.run(series=series, x=cores).ops_per_second / 1e3

    yield _ratio("daxvm/mmap, 16 cores", kreq("daxvm"), kreq("mmap"), ">",
                 1.0, "up to 4.9")
    yield _ratio("mmap at 16 cores / mmap peak", kreq("mmap"),
                 max(pr.run.ops_per_second / 1e3
                     for pr in r.all(series="mmap")), "<", 1.0,
                 "no scaling past 4")


@claim("fig8a-multiprocess", "§V-C Apache with single-thread processes",
       APACHE)
def _fig8a_multiprocess(r: Results):
    def kreq(series):
        return r.run(series=series, x=8).ops_per_second

    yield _ratio("mmap processes/threads", kreq("mmap+procs"), kreq("mmap"),
                 ">", 1.3)
    yield _ratio("mmap processes/read", kreq("mmap+procs"), kreq("read"),
                 "<", 1.1, "at best read")
    yield _ratio("daxvm/mmap, processes", kreq("daxvm+procs"),
                 kreq("mmap+procs"), ">", 1.0)


@claim("fig8b", "Fig. 8b Apache vs page size, 16 cores",
       ("pages", {"ops": 2400}))
def _fig8b(r: Results):
    def rel(series, page):
        return (r.run(series=series, page_size=page).ops_per_second
                / r.run(series="read", page_size=page).ops_per_second)

    daxvm = [rel("daxvm", page) for page in PAGE_SIZES]
    yield Check("best daxvm/read", max(daxvm), ">", 1.05, "up to 1.5")
    yield _ratio("daxvm/read at 32 KB over 4 KB", rel("daxvm", 32 << 10),
                 rel("daxvm", 4 << 10), ">", 1.0, "grows with size")
    yield Check("worst daxvm/read", min(daxvm), ">", 0.95, ">= 1")
    yield Check("best mmap/read", max(rel("mmap", page)
                                      for page in PAGE_SIZES), "<", 1.0)


# ---------------------------------------------------------------------------
# Figure 9: applications.
# ---------------------------------------------------------------------------
@claim("fig9a", "Fig. 9a text search", ("textsearch", {"ops": 1200}))
def _fig9a(r: Results):
    def mbs(series, threads=16):
        return r.run(series=series, x=threads).mb_per_second

    yield _ratio("daxvm/read, 16 threads", mbs("daxvm"), mbs("read"), ">",
                 1.3, "~1.7")
    yield _ratio("daxvm/mmap, 16 threads", mbs("daxvm"), mbs("mmap"), ">",
                 1.5, "~1.7")
    yield _ratio("async/sync unmap, 16 threads", mbs("daxvm"),
                 mbs("daxvm-sync-unmap"), ">", 1.02, "~1.10")
    yield _ratio("daxvm at 16 / 2 threads", mbs("daxvm"), mbs("daxvm", 2),
                 ">", 1.5, "scales")


@claim("fig9b", "Fig. 9b P-Redis boot and warm-up",
       ("predis", {"ops": 50_000, "size": 768 << 20}))
def _fig9b(r: Results):
    def boot(series):
        run = r.run(series=series)
        return run.counters["predis.boot_cycles"] / run.freq_hz

    def window(series, which):
        return r.run(series=series).counters[f"predis.{which}_ops_per_s"]

    yield Check("daxvm boot (s)", boot("daxvm"), "<", 0.001, "instant")
    yield Check("lazy mmap boot (s)", boot("mmap"), "<", 0.001, "instant")
    yield _ratio("lazy mmap last/first window", window("mmap", "last_window"),
                 window("mmap", "first_window"), ">", 1.5, "slow climb")
    yield Check("populate boot (s)", boot("populate"), ">",
                50 * boot("mmap"), "~10 s stall")
    yield _ratio("populate fastest/slowest window",
                 window("populate", "max_window"),
                 window("populate", "min_window"), "<", 1.1, "flat")
    yield _ratio("daxvm/populate first window",
                 window("daxvm", "first_window"),
                 window("populate", "first_window"), ">", 0.8, "~1")
    yield _ratio("daxvm/populate last window", window("daxvm", "last_window"),
                 window("populate", "last_window"), ">", 0.95, "~1")


#: Fig. 9c and §V-C's NOVA runs: 10k operations on a 6 GiB device.
YCSB = ("ycsb", {"ops": 10_000, "device_gib": 6})


def _ycsb_gain(r: Results, workload: str, variant: str,
               fs_type: str = "ext4") -> float:
    def ops(series):
        return r.run(series=f"{fs_type}+{series}",
                     workload=workload).ops_per_second
    return ops(variant) / ops("mmap")


@claim("fig9c", "Fig. 9c YCSB on Pmem-RocksDB, aged ext4", YCSB)
def _fig9c(r: Results):
    def gain(workload, variant):
        return _ycsb_gain(r, workload, variant)

    for wl in ("load_a", "load_e"):
        yield Check(f"{wl} daxvm/mmap", gain(wl, "daxvm"), ">", 1.7, "2.3")
        yield _ratio(f"{wl} +prezero/daxvm", gain(wl, "daxvm+pz"),
                     gain(wl, "daxvm"), ">", 1.0, "2.8/2.3")
        yield _ratio(f"{wl} +nosync/+prezero", gain(wl, "daxvm+pz+ns"),
                     gain(wl, "daxvm+pz"), ">=", 1.0, "2.95/2.8")
        yield Check(f"{wl} daxvm+pz+ns/mmap", gain(wl, "daxvm+pz+ns"), "<",
                    4.5, "2.95")
    yield Check("run_d daxvm+pz+ns/mmap", gain("run_d", "daxvm+pz+ns"), ">",
                1.2, "1.46")
    for op, bound in ((">", 0.9), ("<", 1.4)):
        yield Check("run_c daxvm/mmap", gain("run_c", "daxvm"), op, bound,
                    "1.05-1.21")
    yield Check("load_a populate/mmap", gain("load_a", "populate"), "<", 1.1,
                "< 1")


@claim("fig9c-nova", "§V-C YCSB on NOVA", YCSB)
def _fig9c_nova(r: Results):
    load = _ycsb_gain(r, "load_a", "daxvm+pz+ns", "nova")
    run = _ycsb_gain(r, "run_b", "daxvm+pz+ns", "nova")
    for op, bound in ((">", 1.05), ("<", 2.2)):
        yield Check("load_a daxvm+pz+ns/mmap on NOVA", load, op, bound,
                    "~1.35")
    for op, bound in ((">", 0.95), ("<", 1.6)):
        yield Check("run_b daxvm+pz+ns/mmap on NOVA", run, op, bound, "~1.1")
    yield Check("load_a gain, NOVA vs ext4", load, "<",
                _ycsb_gain(r, "load_a", "daxvm+pz+ns"), "smaller on NOVA")


# ---------------------------------------------------------------------------
# §III and §V-B: motivation and overheads.
# ---------------------------------------------------------------------------
@claim("s5b-storage", "§V-B storage overheads",
       ("storage", {"ops": 1200, "size": 64 << 20, "aged": False}))
def _s5b_storage(r: Results):
    c = r.run().counters
    yield Check("64 MB file: table/data", c["big.pmem_bytes"] / (64 << 20),
                "<", 0.002, "0.2% ceiling")
    yield Check("Linux tree: table/data (PMem + DRAM)",
                (c["tree.pmem_bytes"] + c["tree.dram_bytes"])
                / c["tree.data_bytes"], "<", 0.12, "2.8% PMem")
    yield Check("Linux tree: DRAM table bytes", c["tree.dram_bytes"], ">", 0)
    yield Check("Linux tree: PMem table bytes", c["tree.pmem_bytes"], ">", 0)


@claim("s5b-latency", "§V-B append latency of file-table maintenance",
       APPENDS)
def _s5b_latency(r: Results):
    def overhead(size):
        return (r.run(series="tables+write", append_size=size).latency_us
                / r.run(series="write", append_size=size).latency_us)

    yield Check("32 KB appends, with/without tables", overhead(32 << 10),
                "<", 1.18, "<= 1.10")
    yield Check("1 MB appends, with/without tables", overhead(1 << 20), "<",
                overhead(32 << 10), "amortised")
    yield Check("1 MB appends, with/without tables", overhead(1 << 20), "<",
                1.06, "amortised")


@claim("s3-sync", "§III-A4 msync fault blow-up",
       ("msync", {"ops": 2000, "size": 16 << 20, "device_gib": 2,
                  "aged": False}))
def _s3_sync(r: Results):
    c = r.run().counters
    blowup = c["msync.faults_sync"] / c["msync.faults_nosync"]
    for op, bound in ((">", 1.8), ("<", 4.5)):
        yield Check("faults with/without 1 msync per 10 writes", blowup, op,
                    bound, "~2.8")


@claim("s3-zero", "§III-B zeroing share of MM appends", APPENDS)
def _s3_zero(r: Results):
    yield from _zeroing_shares(r, "", (64 << 10, 512 << 10, 2 << 20),
                               0.25, 0.55)


# ---------------------------------------------------------------------------
# §V-C ablations and the §IV-A1 policy.
# ---------------------------------------------------------------------------
@claim("abl-batch", "§V-C unmap batching level", ABLATIONS)
def _abl_batch(r: Results):
    def kreq(batch):
        if batch == 33:  # ``+async``: the default async_unmap_batch_pages
            return r.run(series="+async").ops_per_second
        return r.run(batch_pages=batch).ops_per_second

    for op, bound in ((">", 1.02), ("<", 1.45)):
        yield _ratio("batch 512/33 pages", kreq(512), kreq(33), op, bound,
                     "~1.20")
    yield _ratio("batch 33/8 pages", kreq(33), kreq(8), ">=", 0.95)
    yield _ratio("batch 512/128 pages", kreq(512), kreq(128), ">=", 0.98)


@claim("abl-prezero", "§V-C pre-zero throttle interference",
       ("prezero", {"ops": 8000, "device_gib": 6}))
def _abl_prezero(r: Results):
    slowdown = 1 - (r.run(series="zeroing").ops_per_second
                    / r.run(series="quiet").ops_per_second)
    for op, bound in ((">", -0.02), ("<", 0.20)):
        yield Check("foreground slowdown with pre-zeroing", slowdown, op,
                    bound, "5-10%")


@claim("abl-migrate", "§V-B table migration, 128 MB file",
       ("monitor", {"ops": 32768}))
def _abl_migrate(r: Results):
    gain = _monitor_gain(r, 4096)
    yield Check("monitor on/off throughput", gain, ">", 1.03, "~1.10")
    yield Check("monitor on/off throughput", gain, "<", 1.35, "~1.10")
    yield Check("table migrations",
                r.run(monitor_every=4096).counters.get(
                    "daxvm.table_migrations", 0), ">=", 1)


@claim("abl-policy", "§IV-A1 volatile/persistent table placement",
       ("policy", {"ops": 800}))
def _abl_policy(r: Results):
    best = max(pr.run.ops_per_second for pr in r.points)
    yield _ratio("32 KB split / best policy",
                 r.run(series="paper").ops_per_second, best, ">", 0.93,
                 "best of both")
    yield Check("all-persistent: DRAM table bytes",
                r.run(series="all-persistent").counters[
                    "filetable.dram_bytes"], "==", 0)
    yield Check("all-volatile: PMem table bytes",
                r.run(series="all-volatile").counters[
                    "filetable.pmem_bytes"], "==", 0)


# ---------------------------------------------------------------------------
# Extensions beyond the paper's evaluation.
# ---------------------------------------------------------------------------
@claim("ext-media", "§VI DaxVM beyond PMem", ("media", {"ops": 400}))
def _ext_media(r: Results):
    def rel(preset, iface):
        return (r.run(series=f"{preset}+{iface}").mb_per_second
                / r.run(series=f"{preset}+read").mb_per_second)

    yield _ratio("daxvm/read, fast-nvm over optane", rel("fast-nvm", "daxvm"),
                 rel("optane", "daxvm"), ">", 1.0, "grows toward DRAM")
    for preset in MEDIA_PRESETS:
        yield Check(f"{preset}: daxvm/read", rel(preset, "daxvm"), ">", 1.0)
        yield Check(f"{preset}: mmap/read", rel(preset, "mmap"), "<", 1.0)
    yield Check("cxl-flash: daxvm/read", rel("cxl-flash", "daxvm"), ">", 1.0)


def _distinct(r: Results, expected: int):
    """The sweep's size, and its cache keys all distinct."""
    yield Check("points", len(r.points), "==", expected)
    yield Check("distinct cache keys",
                len({pr.point.cache_key("fp") for pr in r.points}), "==",
                len(r.points))


@claim("ext-numa", "NUMA file placement, two sockets",
       ("numa", {"ops": 800}))
def _ext_numa(r: Results):
    def kops(placement, threads):
        return r.run(series=placement, x=threads).ops_per_second

    for op, bound in ((">", 1.2), ("<", 1.8)):
        yield _ratio("local/remote, 1 thread", kops("local", 1),
                     kops("remote", 1), op, bound, "~1.4 (UPI)")
    for threads in (1, 2):
        yield _ratio(f"remote/interleave, {threads} threads",
                     kops("remote", threads), kops("interleave", threads),
                     "<", 1.0)
        yield _ratio(f"interleave/local, {threads} threads",
                     kops("interleave", threads), kops("local", threads),
                     "<", 1.0)
    yield _ratio("interleave/local, 16 threads", kops("interleave", 16),
                 kops("local", 16), ">", 1.0)
    for pr in r.points:
        local = pr.stats.get("numa.local_accesses")
        remote = pr.stats.get("numa.remote_accesses")
        where = pr.point.label
        if pr.point.series == "local":
            yield Check(f"{where} remote accesses", remote, "==", 0)
            yield Check(f"{where} local accesses", local, ">", 0)
        elif pr.point.series == "remote":
            yield Check(f"{where} local accesses", local, "==", 0)
            yield Check(f"{where} remote accesses", remote, ">", 0)
        else:
            yield Check(f"{where} accesses", local + remote, ">", 0)


@claim("ext-mmu", "DaxVM attach under four translation schemes",
       ("mmu", {"ops": 48, "size": 4 << 20, "device_gib": 1}))
def _ext_mmu(r: Results):
    def attach(workload, scheme, aged):
        return r.get(series=f"{workload}+{scheme}", aged=aged).ledger \
            .event_total(CostDomain.FILETABLE, "attach")

    for workload in ("syncbench", "kvstore"):
        for aged in (False, True):
            where = f"{workload}{' aged' if aged else ''}"
            radix4 = attach(workload, "radix4", aged)
            radix5 = attach(workload, "radix5", aged)
            hashed = attach(workload, "hashed", aged)
            yield _ratio(f"{where}: hashed/radix4 attach", hashed, radix4,
                         ">", 50, "O(1) needs a radix tree")
            yield _ratio(f"{where}: hashed/range attach", hashed,
                         attach(workload, "range", aged), ">", 5)
            yield Check(f"{where}: radix4 attach vs radix5", radix4, "==",
                        radix5)
            yield Check(f"{where}: radix5 attach", radix5, ">", 0)
    for workload in ("syncbench", "kvstore"):
        yield _ratio(f"{workload}: range attach, aged/clean",
                     attach(workload, "range", True),
                     attach(workload, "range", False), ">", 1.0)
    yield from _distinct(r, 16)


@claim("ext-tiering", "Interfaces across data tiers, with ktierd",
       ("tiering", {"ops": 64, "size": 64 << 10, "device_gib": 1,
                    "aged": False}))
def _ext_tiering(r: Results):
    def cycles(series, tier):
        return r.run(series=series, x=TIERING_TIERS.index(tier)).cycles

    yield _ratio("daxvm cycles, CXL/PMem", cycles("daxvm", "cxl"),
                 cycles("daxvm", "pmem"), "<", 1.0, "break-even per interface")
    yield _ratio("read cycles, CXL/PMem", cycles("read", "cxl"),
                 cycles("read", "pmem"), ">", 1.0)
    yield from _distinct(r, 20)
    for series in ("read", "mmap", "daxvm"):
        for tier in ("pmem", "cxl"):
            yield _ratio(f"{series} cycles, DRAM/{tier}",
                         cycles(series, "dram"), cycles(series, tier), "<",
                         1.0)
    for tier in ("pmem", "cxl"):
        yield _ratio(f"mmap cycles on {tier}, ktierd/static",
                     cycles("mmap+ktierd", tier), cycles("mmap", tier), "<",
                     1.0)
        yield _ratio(f"read cycles on {tier}, ktierd/static",
                     cycles("read+ktierd", tier), cycles("read", tier), ">=",
                     1.0)
    for pr in r.points:
        scans = pr.stats.get("tiering.scans")
        tier_cycles = pr.ledger.domain_total(CostDomain.TIERING)
        if pr.point.tiering.get("daemon"):
            yield Check(f"{pr.point.label} ktierd scans", scans, ">", 0)
            yield Check(f"{pr.point.label} tiering cycles", tier_cycles,
                        ">", 0)
        else:
            yield Check(f"{pr.point.label} ktierd scans", scans, "==", 0)
            yield Check(f"{pr.point.label} tiering cycles", tier_cycles,
                        "==", 0)
    yield Check("most pages promoted by one ktierd point",
                max(pr.stats.get("tiering.promoted_pages")
                    for pr in r.points if pr.point.tiering.get("daemon")),
                ">", 0)


def _tenant_p99(pr: PointResult) -> float:
    """Worst foreground-tenant p99 of one point (degenerate points
    fall back to the un-tenanted span histogram)."""
    hists = [h for key, h in pr.run.percentiles.items()
             if key.startswith("tenant.t") and key.endswith(".request")]
    if not hists:
        hists = [pr.run.percentiles.get("span.apache.request", {})]
    return max(h.get("p99", 0.0) for h in hists)


@claim("ext-consolidate", "Consolidation knee, 1-16 tenants",
       ("consolidate", {"ops": 16, "size": 64 << 10, "device_gib": 1}))
def _ext_consolidate(r: Results):
    def p99(series, n):
        return _tenant_p99(r.get(series=series, x=n))

    for series in ("apache+noq+nohog", "apache+q+nohog", "apache+noq+hog",
                   "apache+q+hog"):
        yield _ratio(f"{series} p99, 16/1 tenants", p99(series, 16),
                     p99(series, 1), ">", 1.2, "knee")
        for lo, hi in zip(CONSOLIDATE_TENANTS, CONSOLIDATE_TENANTS[1:]):
            yield Check(f"{series} p99, {hi} vs {lo} tenants",
                        p99(series, hi), ">=", p99(series, lo))
    yield from _distinct(r, 60)
    for pr in r.all(x=1):
        if pr.point.series.endswith("noq+nohog"):
            yield Check(f"{pr.point.label} tenancy requests",
                        pr.stats.get("tenancy.requests"), "==", 0)
            yield Check(f"{pr.point.label} tenancy cycles",
                        pr.ledger.domain_total(CostDomain.TENANCY), "==", 0)
    for n in (8, 16):
        policed = r.get(series="apache+q+hog", x=n)
        unpoliced = r.get(series="apache+noq+hog", x=n)
        for counter in ("tenancy.cpu_throttle_cycles",
                        "tenancy.bw_throttle_cycles",
                        "tenancy.antagonist_pages_dirtied"):
            yield Check(f"{n} tenants, quotas: {counter}",
                        policed.stats.get(counter), ">", 0)
        yield Check(f"{n} tenants, quotas: hog peak kernel bytes",
                    policed.stats.get("tenant.hog.peak_kernel_bytes"), ">", 0)
        yield _ratio(f"{n} tenants: cycles, quotas/none", policed.run.cycles,
                     unpoliced.run.cycles, ">", 1.0)
        yield _ratio(f"{n} tenants: p99, quotas/none", _tenant_p99(policed),
                     _tenant_p99(unpoliced), "<=", 1.10)
        yield Check(f"{n} tenants, no quotas: cpu throttle cycles",
                    unpoliced.stats.get("tenancy.cpu_throttle_cycles"), "==",
                    0)
    for pr in r.points:
        if pr.point.x == 1 and pr.point.series.endswith("noq+nohog"):
            continue
        for i in range(int(pr.point.x)):
            yield Check(f"{pr.point.label} t{i} requests",
                        pr.stats.get(f"tenant.t{i}.requests"), ">", 0)


@claim("ext-migrate", "Post-copy live migration of a guest",
       ("migrate", {"ops": 16, "size": 64 << 10, "device_gib": 1,
                    "aged": False}))
def _ext_migrate(r: Results):
    budget = CostModel().migrate_downtime_budget
    base = {pr.point.series.split("+")[0]: pr.run.cycles
            for pr in r.points if pr.point.series.endswith("+base")}
    checks, downtimes = [], []
    for pr in r.points:
        c, where = pr.run.counters, pr.point.label
        checks.append(Check(f"{where} violations", c["virt.violations"],
                            "==", 0))
        if pr.point.series.endswith("+base"):
            checks += [
                Check(f"{where} migrations", c["virt.migrations_started"],
                      "==", 0),
                Check(f"{where} virt cycles", pr.run.domains.get("virt", 0.0),
                      "==", 0),
                Check(f"{where} nested walk cycles",
                      c["virt.nested_walk_cycles"], ">", 0)]
            continue
        started = c["virt.migrations_started"]
        checks += [
            Check(f"{where} cycles vs never migrated", pr.run.cycles, ">=",
                  base[pr.point.series.split("+")[0]]),
            Check(f"{where} migrations completed",
                  c["virt.migrations_completed"], "==", started),
            Check(f"{where} migrations aborted",
                  c["virt.migrations_aborted"], "==", 0)]
        if not started:
            continue  # trigger never reached (kvstore at x=64)
        per_job = c["virt.downtime_cycles"] / started
        downtimes.append(per_job)
        checks += [
            Check(f"{where} downtime per job", per_job, ">", 0.0),
            Check(f"{where} downtime per job", per_job, "<", budget / 10),
            Check(f"{where} pages pulled", c["virt.pages_pulled"], ">", 0)]
        prefetched = c["virt.prefetched_pages"]
        checks.append(Check(f"{where} pages prefetched", prefetched,
                            *((">", 0) if "+prefetch" in where
                              else ("==", 0))))
    yield Check("downtime spread across jobs (cycles)",
                max(downtimes) - min(downtimes), "<", 1.0, "fixed payload")
    yield from _distinct(r, 18)
    yield from checks
    for workload in ("syncbench", "kvstore"):
        for pre in r.all(series=f"{workload}+prefetch"):
            yield Check(f"{pre.point.label} cycles vs no prefetch",
                        pre.run.cycles, "<=",
                        r.run(series=f"{workload}+noprefetch",
                              x=pre.point.x).cycles)


# ---------------------------------------------------------------------------
# Running and rendering.
# ---------------------------------------------------------------------------
def run_claims(claims: Sequence[Claim], run: Callable[[Sweep], object],
               knobs: Dict[str, object]):
    """Run the union of ``claims``' pairs, their knobs merged over
    ``knobs``, as one sweep through ``run`` (a
    :func:`repro.runner.run_sweep` call) and evaluate every claim on
    its share.  Returns ``(sweep result, verdicts)``; a claim with a
    quarantined point, or whose checks raise, fails with the reason."""
    wanted = {c.id: pooled(c.id, c.artifact, build_pairs(c.sweeps, knobs))
              for c in claims}
    result = run(pooled("claims", "Paper claims", list(wanted.values())))
    verdicts = []
    for c in claims:
        part = result.part(wanted[c.id])
        if part.failed:
            verdicts.append(Verdict(c, error="quarantined point(s): " + ", "
                                    .join(f.point.label for f in part.failed)))
            continue
        try:
            checks = list(c.checks(Results(part.points)))
        except Exception as err:  # noqa: BLE001 — the claim fails
            verdicts.append(Verdict(c, error=f"{type(err).__name__}: {err}"))
            continue
        verdicts.append(Verdict(c, checks))
    return result, verdicts


def _row(*cells: str) -> str:
    return "| " + " | ".join(cells) + " |"


def format_claims(verdicts: Sequence[Verdict]) -> str:
    """One markdown row per claim: its headline check with the paper's
    value, the claim's margin (its tightest check) and the outcome."""
    lines = [_row("claim", "artifact", "headline check", "paper",
                  "measured", "margin", "result"),
             _row(*["---"] * 7)]
    for v in verdicts:
        if v.error:
            lines.append(_row(v.claim.id, v.claim.artifact, v.error, "", "",
                              "", "FAIL"))
            continue
        head = v.checks[0]
        passed = sum(c.passed for c in v.checks)
        lines.append(_row(
            v.claim.id, v.claim.artifact,
            f"{head.label} {head.op} {head.bound:.3g}", head.paper,
            f"{head.value:.3g}", f"{v.margin:+.1%}",
            f"{'pass' if v.passed else 'FAIL'} {passed}/{len(v.checks)}"))
    return "\n".join(lines)


def format_checks(verdict: Verdict, failed_only: bool = False) -> str:
    """Every check of one claim (or only its failures), one per line."""
    return "\n".join(
        f"{verdict.claim.id}: {'ok  ' if c.passed else 'FAIL'} {c.label} = "
        f"{c.value:.4g}, needs {c.op} {c.bound:.4g} (margin {c.margin:+.1%})"
        for c in verdict.checks if not (failed_only and c.passed))
