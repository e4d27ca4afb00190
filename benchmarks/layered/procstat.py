"""CPU time and peak memory of one process, read from ``/proc``."""

from __future__ import annotations

import os

_TICKS_PER_SECOND = float(os.sysconf("SC_CLK_TCK"))


def read_cpu_seconds(pid: int | str = "self") -> float:
    """Cumulative user+system CPU seconds of ``pid``, all threads."""
    with open(f"/proc/{pid}/stat", "rb") as stat:
        # The command name (field 2) may hold spaces; fields are counted from
        # its closing parenthesis.  utime and stime are fields 14 and 15.
        fields = stat.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_SECOND


def read_vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MB."""
    with open(f"/proc/{pid}/status", "rb") as status:
        for line in status:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")
