"""One idle-priority spinner: keeps one virtual CPU from halting.

    python3 keepawake.py CPU PARENT_PID

A halted vCPU is woken through the hypervisor, and on a busy host that
takes from microseconds to tens of milliseconds.  A request that crosses
between the generator, the server's event loop and its executor thread
pays that several times, so the numbers measured the host's scheduler
more than the program (README.md, "Keeping the vCPUs awake").  Under
``SCHED_IDLE`` this loop runs only when nothing else on its CPU wants
to, and the kernel treats a CPU that runs nothing else as idle when it
places a waking thread, so it takes no time from the program under test.

It exits as soon as ``PARENT_PID`` is no longer its parent: a generator
that dies without cleaning up leaves no spinner behind.
"""

from __future__ import annotations

import os
import sys


def main(cpu: int, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    total = 0
    while os.getppid() == parent:
        for value in range(20_000):
            total += value


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
