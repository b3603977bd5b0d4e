"""Host-speed calibration: express lookup latencies at a reference speed.

The host this benchmark was tuned on changes the speed of a busy CPU by
up to 2x, in spells from well under a second to minutes, and process CPU
time swings as much as wall time.  So timed work is measured next to a
fixed interpreter-bound *piece* of work and scaled by how long the pieces
took::

    reported = measured * REFERENCE_PIECE_S / piece_seconds

* the single-threaded lookup passes alternate with pieces, and a block's
  latencies are scaled by the median piece time of the block;
* during a cold unit, whose pool workers keep both CPUs busy while the
  benchmark process waits, a :class:`Sampler` process times one piece
  every ``gap`` seconds, and the unit's wall time is scaled by the mean.

``piece`` is the benchmark's own code and never calls the simulator, so a
change to the simulator moves the measured time but not the calibration.
Set-up probes (a fresh process starting, importing and reading files) do
not slow down in proportion to the piece, so they are reported unscaled;
see ``README.md``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List, Optional

#: Seconds one piece takes at the reference speed.  Latencies are reported
#: as if the pieces next to them had taken exactly this long; a piece takes
#: 0.45-1.0 ms on the 2-CPU x86_64 VM the benchmark was tuned on.
REFERENCE_PIECE_S = 1.0e-3


class _Slot:
    __slots__ = ("key", "queue")

    def __init__(self, key: int) -> None:
        self.key = key
        self.queue: List[int] = []


def piece() -> float:
    """Seconds for one fixed piece of interpreter work (about 1 ms).

    It mixes what the simulator's host code does most (attribute reads,
    small-list appends and pops, dict updates, integer arithmetic) so that
    both slow down alike when the host does.
    """
    t0 = time.perf_counter()
    slots = [_Slot(i) for i in range(64)]
    counts: dict = {}
    acc = 0
    for i in range(2000):
        slot = slots[i & 63]
        slot.queue.append(i)
        if len(slot.queue) > 8:
            slot.queue.pop(0)
        key = (i * 7) & 255
        counts[key] = counts.get(key, 0) + slot.key
        acc = (acc * 3 + len(slot.queue)) & 0xFFFF
    dt = time.perf_counter() - t0
    return dt if acc >= 0 else 0.0


def scale(piece_s: float) -> float:
    """Factor that turns a time measured beside ``piece_s`` into a
    reference-speed time."""
    return REFERENCE_PIECE_S / piece_s


class Sampler:
    """Times one piece every ``gap`` seconds in a separate process.

    Use as a context manager around work that runs in other processes;
    at a 50-ms gap the pieces take about 2 % of one CPU.  It is a process
    rather than a thread so that the benchmark process holds no extra
    thread when the engine forks its pool workers.
    """

    def __init__(self, gap: float = 0.05) -> None:
        self.gap = gap
        self.pieces: List[float] = []
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Sampler":
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.gap)], stdout=subprocess.PIPE, text=True
        )
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        out, _ = self._proc.communicate()
        # Each piece is one flushed line; drop a line cut off by the stop.
        self.pieces = [float(line) for line in out.split("\n")[:-1]]

    def scale(self) -> float:
        """Scale factor from the mean piece time, or 1.0 without pieces."""
        return scale(statistics.fmean(self.pieces)) if self.pieces else 1.0


def _sample(gap: float) -> None:
    while True:
        print(repr(piece()), flush=True)
        time.sleep(gap)


if __name__ == "__main__":
    _sample(float(sys.argv[1]))
