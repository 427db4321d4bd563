"""Hypervisor steal time of this machine, read from ``/proc/stat``.

On a virtual machine whose host is shared, other guests can hold the
physical CPUs for seconds at a time.  The guest kernel counts that time as
*steal*: the CPUs wanted to run but the machine was not scheduled.  No
change to the program can affect it, so the benchmark subtracts the steal
that accrued during a timed interval from that interval's clock time.
"""

import os


def steal_s() -> float:
    """Steal time summed over all CPUs since boot, in seconds; 0 where unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0
