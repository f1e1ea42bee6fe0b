"""Exception hierarchy for the repro package.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch simulator-level failures without masking programming errors.
Errors that mirror POSIX errno semantics carry an ``errno_name`` so that
workloads can branch on them the way C code branches on errno.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro simulator."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No runnable thread exists but blocked threads remain."""


class MissingCounterError(ReproError):
    """A statistic was read whose counter was never touched.

    Raised by :meth:`Stats.ratio` and :meth:`Stats.percentile` instead
    of silently returning 0.0, which used to mask instrumentation that
    never fired (a ratio against a never-incremented denominator looks
    identical to a genuinely zero one).
    """


class MemoryError_(ReproError):
    """Physical memory exhaustion (DRAM or PMem)."""

    errno_name = "ENOMEM"


class AddressSpaceError(ReproError):
    """Virtual address space allocation failure or misuse."""

    errno_name = "ENOMEM"


class InvalidArgumentError(ReproError):
    """An operation was called with arguments POSIX would reject."""

    errno_name = "EINVAL"


class SegmentationFault(ReproError):
    """Access touched an unmapped virtual address (SIGSEGV-like)."""

    errno_name = "EFAULT"


class FileSystemError(ReproError):
    """Generic file system failure."""

    errno_name = "EIO"


class NoSuchFileError(FileSystemError):
    """Path lookup failed."""

    errno_name = "ENOENT"


class FileExistsError_(FileSystemError):
    """Exclusive create hit an existing path."""

    errno_name = "EEXIST"


class NoSpaceError(FileSystemError):
    """The block allocator ran out of free blocks."""

    errno_name = "ENOSPC"


class MediaError(ReproError):
    """An uncorrectable PMem media error (a badblock / poisoned line).

    Subclasses model two ways Linux surfaces one: SIGBUS from a
    DAX-mapped load and transient device stalls.
    """

    errno_name = "EIO"


class PoisonedPageError(MediaError):
    """Simulated SIGBUS: an access consumed a poisoned line via DAX.

    Raised into the faulting simulated thread; workloads can catch it
    (the SIGBUS-handler idiom) or die on it, exactly like a process
    under ``memory_failure()``.
    """

    signal_name = "SIGBUS"

    def __init__(self, message: str, *, frame: int = -1,
                 inode: int = -1, path: str = "", file_page: int = -1):
        super().__init__(message)
        self.frame = frame
        self.inode = inode
        self.path = path
        self.file_page = file_page


class DeviceStallError(MediaError):
    """The device stalled past an operation deadline (transient)."""


class NotSupportedError(ReproError):
    """Operation rejected by a relaxed-POSIX interface (e.g. DaxVM)."""

    errno_name = "ENOTSUP"


class BadFileDescriptorError(ReproError):
    """Operation on a closed or invalid file descriptor."""

    errno_name = "EBADF"
