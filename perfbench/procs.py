"""Process accounting: CPU time, peak memory and worker reaping."""

from __future__ import annotations

import multiprocessing
import os
import resource
import time

#: Limit on waiting for a child process to exit [s].
CHILD_TIMEOUT = 60.0
#: Grace for pool workers to exit on their own before they are stopped [s].
WORKER_GRACE = 10.0


def children_cpu_seconds() -> float:
    """User + system CPU of every reaped child process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_seconds() -> float:
    """User + system CPU of this process and every reaped child."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime + children_cpu_seconds()


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _state(child) -> str | None:
    """The OS state letter of a child process, or ``None`` once it is gone.

    ``multiprocessing`` can report a child as alive for a moment after
    another thread (a pool's manager) has reaped it, so liveness is read
    from ``/proc``: a process that is no longer our child is gone.
    """
    if child.exitcode is not None:
        return None
    try:
        with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return fields[0] if int(fields[1]) == os.getpid() else None


def reap_children() -> int:
    """Wait until every worker process started so far has exited and been
    reaped, so its CPU time is accounted and none outlives the benchmark.

    A worker still running after :data:`WORKER_GRACE` was left behind by
    the pool; it is terminated (then killed) and counted.  Returns that
    count.
    """
    deadline = time.monotonic() + WORKER_GRACE
    children = multiprocessing.active_children()
    for child in children:
        child.join(max(deadline - time.monotonic(), 0.0))
    # Exited workers a pool manager is still reaping: wait for it.
    while any(_state(child) == "Z" for child in children) \
            and time.monotonic() < deadline:
        time.sleep(0.005)
    stray = [child for child in children if _state(child) not in (None, "Z")]
    for stop in ("terminate", "kill"):
        for child in stray:
            if _state(child) not in (None, "Z"):
                getattr(child, stop)()
                child.join(CHILD_TIMEOUT / 2)
    if any(_state(child) not in (None, "Z") for child in stray):
        raise RuntimeError("worker processes could not be stopped")
    return len(stray)
