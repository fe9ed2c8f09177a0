"""Co-measured CPU speed, so timed intervals can be rescaled to reference seconds.

Shared hosts change a core's speed under the benchmark: on the 2-vCPU host
this benchmark was written on, the same pure-Python loop runs 1.45x slower
for stretches of 5-30 s at a time, which no run length averages away.  A
:class:`SpeedProbe` runs a fixed loop on the thread doing the timed work
every ``PERIOD`` seconds of that process's CPU time (``SIGVTALRM``) and
records how long the loop took.  :func:`reference_seconds` turns a wall
time into the time it would have taken at the reference speed.

The probe costs about 0.4% of the work it samples and touches nothing of
the program.  Pool workers of a parallel pass are probed too: a fork hook
starts a probe in each child, which appends its samples to a file.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from pathlib import Path
from typing import List, Optional

#: CPU time between two samples of one process.
PERIOD = 0.05
#: The loop's duration at reference speed (its typical duration on the
#: host the benchmark was written on).
REFERENCE_SPIN_S = 200e-6


def _spin() -> int:
    total = 0
    for i in range(3000):
        total += i * i
    return total


class SpeedProbe:
    """Samples the loop's duration on this process's main thread."""

    def __init__(self, sink: Optional[int] = None) -> None:
        self.samples: List[float] = []
        self._sink = sink  # file descriptor that receives one line per sample
        self._previous = None

    def _sample(self, *_: object) -> None:
        started = time.perf_counter()
        _spin()
        duration = time.perf_counter() - started
        if self._sink is None:
            self.samples.append(duration)
        else:
            os.write(self._sink, b"%.9f\n" % duration)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *_: object) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, self._previous)


#: Directory that forked children write their samples to, or ``None``.
_child_dir: Optional[Path] = None
_hook_registered = False


def _probe_child() -> None:
    if _child_dir is None:
        return
    sink = os.open(_child_dir / f"{os.getpid()}.txt",
                   os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    SpeedProbe(sink).__enter__()  # runs until the child exits


class ChildProbes:
    """Probe every process forked while the context is open."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.samples: List[float] = []

    def __enter__(self) -> "ChildProbes":
        global _child_dir, _hook_registered
        if not _hook_registered:
            os.register_at_fork(after_in_child=_probe_child)
            _hook_registered = True
        self.directory.mkdir(parents=True, exist_ok=True)
        _child_dir = self.directory
        return self

    def __exit__(self, *_: object) -> None:
        global _child_dir
        _child_dir = None
        for path in sorted(self.directory.glob("*.txt")):
            self.samples.extend(float(line) for line in path.read_text().split())
            path.unlink()
        self.directory.rmdir()


def reference_seconds(wall: float, samples: List[float]) -> float:
    """*wall* rescaled by the median sampled speed (unchanged without samples)."""
    if not samples:
        return wall
    return wall * REFERENCE_SPIN_S / statistics.median(samples)
