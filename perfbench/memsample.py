"""Sample the memory of a process and its children until told to stop.

Usage: ``python perfbench/memsample.py PID``

Every :data:`INTERVAL_S` it sums the proportional set size (PSS) of
``PID`` and of each of its child processes, from
``/proc/<pid>/smaps_rollup``, and keeps the largest sum.  PSS splits a
page shared by several processes between them, so forked pool workers
do not count their parent's pages a second time, as adding resident
sets would.  When a line arrives on standard input it prints the peak
in kB and exits.

It runs as a process of its own so the measured process stays
single-threaded when it forks its workers.
"""

from __future__ import annotations

import os
import select
import sys
from pathlib import Path
from typing import List

INTERVAL_S = 0.025


def pss_kb(pid: int) -> int:
    """PSS of ``pid`` in kB; 0 once the process has ended."""
    try:
        rollup = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    for line in rollup.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return 0


def children(pid: int) -> List[int]:
    """Live child processes of ``pid``, over all its threads."""
    found: List[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found += [int(child) for child in (task / "children").read_text().split()]
        except OSError:
            pass
    return found


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    pid, me = int(argv[0]), os.getpid()
    peak = 0
    while True:
        total = pss_kb(pid) + sum(pss_kb(child) for child in children(pid) if child != me)
        peak = max(peak, total)
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready:
            break
    print(peak, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
