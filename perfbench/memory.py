"""Peak resident memory per unit of work, read from ``/proc``.

The peak of a whole run is set by whichever seeded circuit needs the most
memory, and about one seed in five draws a circuit that needs 15-140 MB
more than the rest: the run's maximum swings with the seed, not with the
program.  Inside one process the peak of a unit also carries what earlier
units left resident, so a heavy circuit raises every unit after it.

So :func:`unit_peaks_kb` runs each unit of work (one circuit in the serial
workloads, the whole ``synthesize_batch`` call and its checks in
``batch-process``) in a child forked from the same parent state, the one a
user's ``repro synth`` process has before its first call: imports done,
inputs in memory.  The child resets its peak counter (``VmHWM``, by
writing ``5`` to ``/proc/self/clear_refs``), runs the unit, and reports its
peak plus the peaks of its live children (pool workers).  Every unit is
measured from the same start, and the median over units gives the memory
a typical unit needs, whatever the seed made of the heaviest one.
"""

from __future__ import annotations

import contextlib
import os
import signal

from perfbench import flows
from perfbench.tracing import NullTracer


def hwm_kb(pid: int | str) -> int:
    """Peak resident set (VmHWM) of a live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak() -> None:
    """Set this process's VmHWM back to its current resident set."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _descendants(pid: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def children_hwm_kb() -> int:
    """Summed peak resident sets of this process's live descendants."""
    return sum(hwm_kb(child) for child in _descendants(os.getpid()))


class UnitPeaks:
    """Collects the peak resident memory of each unit of work."""

    def __init__(self) -> None:
        self.peaks_kb: list[int] = []

    @contextlib.contextmanager
    def unit(self):
        reset_peak()
        yield
        self.peaks_kb.append(hwm_kb("self") + children_hwm_kb())


def unit_peaks_kb(workload: str, circuits) -> list[int]:
    """Peak resident memory of each unit of ``workload``, each in a fresh fork.

    Up to one child per usable CPU runs at a time; each child's peak is its
    own, so running them side by side changes no reading.  Call it before
    any pass: a child forked while a worker pool is live would inherit the
    pool's handles without its threads and hang on it.
    """
    if _descendants(os.getpid()):
        raise RuntimeError("memory must be measured before any worker pool starts")
    units = [circuits] if workload == "batch-process" else [[c] for c in circuits]
    width = len(os.sched_getaffinity(0))
    peaks = [0] * len(units)
    running: dict[int, tuple[int, int]] = {}  # pid -> (unit index, pipe read end)
    try:
        for index, unit in enumerate(units):
            if len(running) >= width:
                _reap_one(workload, running, peaks)
            pid, read_fd = _fork_unit(workload, unit)
            running[pid] = (index, read_fd)
        while running:
            _reap_one(workload, running, peaks)
    finally:
        for pid, (_, read_fd) in running.items():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    return peaks


def _fork_unit(workload: str, circuits) -> tuple[int, int]:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            code = _child(workload, circuits, write_fd)
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _reap_one(workload: str, running: dict, peaks: list[int]) -> None:
    """Wait for one child to end and store the peak it reported."""
    pid, status = os.waitpid(-1, 0)
    index, read_fd = running.pop(pid)
    with os.fdopen(read_fd) as fh:
        reply = fh.read()
    if status != 0 or not reply:
        raise RuntimeError(f"memory child for {workload} failed (status {status})")
    peaks[index] = int(reply)


def _child(workload: str, circuits, write_fd: int) -> int:
    from repro.engine.executors import shutdown_pool

    memory = UnitPeaks()
    try:
        flows.run_pass(workload, circuits, NullTracer(), memory)
    finally:
        shutdown_pool()
        _end_descendants()
    (peak,) = memory.peaks_kb
    os.write(write_fd, str(peak).encode())  # shorter than PIPE_BUF: never blocks
    os.close(write_fd)
    return 0


def _end_descendants() -> None:
    """Kill and reap what the unit left running.

    The bound-set scoring pool lives until interpreter exit, which a forked
    child skips; its workers would also hold the result pipe open.
    """
    for pid in _descendants(os.getpid()):
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
