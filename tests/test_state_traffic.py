"""Every attribute the package stores is read somewhere.

An attribute that shipped code writes but never reads is a second book
beside the ``Stats`` counters and the ``Ledger``: it costs a store on
every event and a line of state to keep right, and no run reports it.
This scans the package source for attribute stores (``x.a = ...`` and
``x.a += ...``) and fails when a stored name is never loaded anywhere
in ``src/``, ``bench/`` or ``examples/`` and never named in a string
(a ``getattr`` key, a dataclass field name, a state-dict key).

The scan matches names, not owners, so it is blind to an attribute
that is write-only on one class while another class's attribute of the
same name is read: ``System.placement`` was stored and never read, but
``SweepPoint.placement`` is loaded, so the scan passed it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READERS = ("src", "bench", "examples")

#: Write-only in shipped code on purpose: each is a test's observer of
#: state that has no ``Stats`` twin.
KEPT = {
    "tags_written": "DirtyTracker: granules newly tagged dirty, per "
                    "tracker",
    "flushes": "kvstore: memtable flushes of one store instance",
    "wal_rolls": "kvstore: WAL segment rolls of one store instance",
    "zombie": "VMA: marks a mapping unmapped but not yet reaped",
    "corrupt": "ResultCache: entries that failed to decode",
    "degraded_reason": "MigrationJob: why a job left the pulling state",
    "lost": "PersistRecord: the record did not survive a crash",
    "acked_lost": "CrashState: acknowledged records a crash dropped",
    "inodes_scanned": "RecoveryReport: inodes one recovery walked",
    "tables_intact": "RecoveryReport: file tables recovery found "
                     "complete",
}


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _stored():
    """Attribute name -> ``file:line`` of each store in the package."""
    stored = {}
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)):
                stored.setdefault(node.attr, []).append(
                    f"{path.relative_to(ROOT)}:{node.lineno}")
    return stored


def _read():
    """Attribute names loaded, and strings named, in any reader tree."""
    names = set()
    for directory in READERS:
        for _path, tree in _trees(ROOT / directory):
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    names.add(node.value)
    return names


def test_every_stored_attribute_is_read():
    read = _read()
    unread = {name: sites for name, sites in sorted(_stored().items())
              if name not in read and name not in KEPT}
    assert not unread, (
        f"stored in src/repro but never read: {unread}; count it "
        f"through Stats or delete it")


def test_kept_names_are_still_write_only():
    stored, read = _stored(), _read()
    stale = sorted(name for name in KEPT
                   if name not in stored or name in read)
    assert not stale, f"KEPT entries no longer write-only: {stale}"
