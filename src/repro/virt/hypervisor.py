"""Guest VMs nested over DaxVM-backed files.

A :class:`Hypervisor` attached to a :class:`repro.system.System`
(``system.attach_hypervisor``) enrolls every process created after it
as a **guest**: the process's :class:`~repro.vm.mm.MMStruct` gets a
:class:`GuestAddressSpace` installed as ``mm.guest``, and the VM
layer's hooks route through it:

* ``mm.mmap`` / ``daxvm_mmap`` report new mappings via
  :meth:`GuestAddressSpace.note_mapping` (the migration residency
  snapshot is taken over these);
* every mapped access runs :meth:`GuestAddressSpace.on_access` before
  translation — the post-copy intercept point;
* ``mm._tlb_cost`` prices TLB misses through the scheme's
  *two-dimensional* walk (``nested_walk_cost``) when the guest is
  nested.

The design is deliberately two-speed.  A **pass-through** guest
(``VirtConfig()`` — no nested pricing, no migration) installs all the
hooks but yields nothing, charges nothing and bumps no counter: the
machine stays bit-identical to a bare one, pinned by the
``virt`` golden gate.  Arming ``nested`` and/or
``migrate`` turns the same hooks into the real hypervisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import InvalidArgumentError
from repro.obs import Counter


@dataclass
class VirtConfig:
    """Hypervisor knobs (part of sweep cache keys via ``to_state``)."""

    #: Price guest translations through the scheme's two-dimensional
    #: walk (EPT-style ``n*m + n + m`` references).
    nested: bool = False
    #: Arm a post-copy live migration: after ``migrate_after`` guest
    #: accesses the guest pauses, hands over minimal state and resumes
    #: on the destination, pulling pages on demand.
    migrate: bool = False
    #: Guest accesses before the migration pause triggers.
    migrate_after: int = 32
    #: Run the background prefetch kthread after resume.
    prefetch: bool = True
    #: Seeds the retry-backoff jitter.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.migrate_after < 1:
            raise InvalidArgumentError("migrate_after must be >= 1")

    @property
    def passive(self) -> bool:
        """True when every hook is a guaranteed no-op."""
        return not (self.nested or self.migrate)

    def to_state(self) -> Dict[str, object]:
        return {
            "nested": self.nested,
            "migrate": self.migrate,
            "migrate_after": self.migrate_after,
            "prefetch": self.prefetch,
            "seed": self.seed,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "VirtConfig":
        return cls(
            nested=bool(state.get("nested", False)),
            migrate=bool(state.get("migrate", False)),
            migrate_after=int(state.get("migrate_after", 32)),
            prefetch=bool(state.get("prefetch", True)),
            seed=int(state.get("seed", 0)),
        )


class GuestAddressSpace:
    """One guest: the nested view over a process's mm_struct."""

    def __init__(self, hypervisor: "Hypervisor", process,
                 config: VirtConfig):
        self.hypervisor = hypervisor
        self.process = process
        self.mm = process.mm
        self.config = config
        #: Mappings reported by mmap paths (migration snapshots these).
        self.vmas: List = []
        self.accesses = 0
        #: The guest's (single) migration job, once triggered.
        self.job = None

    @property
    def nested(self) -> bool:
        """Consulted by ``MMStruct._tlb_cost`` for 2D walk pricing."""
        return self.config.nested

    def note_mapping(self, vma) -> None:
        self.vmas.append(vma)

    def on_access(self, vma, first_page: int, last_page: int, *,
                  write: bool = False):
        """Hypervisor intercept on every mapped access (generator).

        Pass-through guests return before the first yield *and* before
        the first counter bump — the golden gate depends on both.
        """
        cfg = self.config
        if not (cfg.nested or cfg.migrate):
            return
        self.accesses += 1
        self.mm.stats.add(Counter.VIRT_GUEST_ACCESSES)
        if not cfg.migrate:
            return
        if self.job is None and self.accesses >= cfg.migrate_after:
            self.job = self.hypervisor.start_migration(self)
            yield from self.job.pause_and_handover()
        if self.job is not None and self.job.in_flight:
            yield from self.job.on_guest_access(vma, first_page,
                                                last_page, write=write)


class Hypervisor:
    """Per-machine hypervisor: guest registry + migration jobs."""

    def __init__(self, system, config: Optional[VirtConfig] = None):
        self.system = system
        self.config = config or VirtConfig()
        self.guests: List[GuestAddressSpace] = []
        self.jobs: List = []

    def enroll(self, process) -> GuestAddressSpace:
        """Make ``process`` a guest (``System.new_process`` calls this
        for every process created while a hypervisor is attached)."""
        guest = GuestAddressSpace(self, process, self.config)
        process.mm.guest = guest
        self.guests.append(guest)
        return guest

    def start_migration(self, guest: GuestAddressSpace):
        from repro.virt.migration import MigrationJob

        job = MigrationJob(self, guest)
        self.jobs.append(job)
        return job

    def finalize(self) -> None:
        """Post-run settlement: every in-flight migration must end
        completed or rolled back (call after ``system.run()``)."""
        for job in self.jobs:
            job.finalize()

    def violations(self) -> List[str]:
        found: List[str] = []
        for i, job in enumerate(self.jobs):
            found.extend(f"job {i}: {v}" for v in job.violations)
        return found

    def settle(self) -> List[str]:
        """Settle every job (:meth:`finalize`) after a finished run and
        audit them: the recorded breaches, plus each job left in
        flight or that absorbed poisoned pages."""
        self.finalize()
        found = self.violations()
        for i, job in enumerate(self.jobs):
            if job.in_flight:
                found.append(f"job {i} neither completed nor rolled "
                             f"back ({job.state})")
            if job.absorbed:
                found.append(f"job {i} absorbed poisoned pages: "
                             f"{job.absorbed}")
        return found


__all__ = ["GuestAddressSpace", "Hypervisor", "VirtConfig"]
