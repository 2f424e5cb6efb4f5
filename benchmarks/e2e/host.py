"""Host facts the benchmark reads from outside a process: CPU pinning,
CPU time and peak resident memory by pid."""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def usable_cpus() -> list[int]:
    """The CPUs this process may run on.  Read it before pinning: a
    pinned process (and every child it spawns) sees one CPU only."""
    return sorted(os.sched_getaffinity(0))


def pin_self(cpu: int) -> None:
    """Pin the calling process; as ``preexec_fn`` it pins a child before
    the child's program starts, so no thread is ever left behind."""
    os.sched_setaffinity(0, {cpu})


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, all threads."""
    with open(f"/proc/{pid}/stat") as fh:
        # the command name may hold spaces; fields count from its ")"
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int | str = "self") -> float:
    """``VmHWM`` of a process.  Not ``ru_maxrss``: exec stores the
    spawning parent's high-water mark there, so a worker would report
    the parent's input-generation peak instead of its own."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
