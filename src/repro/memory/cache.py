"""Set-associative cache with MSHR merging.

A deliberately lean timing model: tag lookup is immediate (the latency is
charged by the caller as the level's hit latency), misses allocate an MSHR
entry keyed by line address so that concurrent misses to the same line
merge, and fills install the line with LRU replacement.

The model tracks *when* a line's fill completes so that a request arriving
while its line is still in flight is merged and inherits the in-flight
completion time rather than issuing a duplicate request downstream.

In-flight fills sit in a ``(fill_cycle, seq, line)`` min-heap beside the
line → fill-cycle map, so retiring them costs O(completed fills) rather
than a scan of every outstanding miss.  Fills that complete by the same
probe install in allocation (``seq``) order: LRU state and evictions are
those of a scan over the fills in the order they were allocated.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

_SEQ = itemgetter(1)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    mshr_merges: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """One cache level (used for both L1 slices and the shared L2)."""

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int,
        ways: int,
        hit_latency: int,
        mshrs: int,
        name: str = "cache",
    ) -> None:
        if size_bytes % (line_bytes * ways):
            raise ValueError("size must be divisible by line_bytes * ways")
        self.name = name
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        self.hit_latency = hit_latency
        self.max_mshrs = mshrs
        self.stats = CacheStats()
        # set index -> OrderedDict(line_address -> True), LRU at front
        self._sets: Dict[int, OrderedDict] = {}
        # line address -> cycle the in-flight fill completes
        self._mshr: Dict[int, int] = {}
        # min-heap of (fill_cycle, seq, line), one entry per in-flight line;
        # seq is the allocation order fills install in
        self._fills: List[Tuple[int, int, int]] = []
        self._seq = 0

    # -- queries -------------------------------------------------------------

    def set_index(self, line_address: int) -> int:
        return line_address % self.num_sets

    def contains(self, line_address: int) -> bool:
        s = self._sets.get(self.set_index(line_address))
        return s is not None and line_address in s

    def mshrs_free(self, now: int) -> int:
        self._drain_mshrs(now)
        return self.max_mshrs - len(self._mshr)

    # -- access --------------------------------------------------------------

    def probe(self, line_address: int, now: int) -> Tuple[bool, Optional[int]]:
        """Look up a line without side effects beyond LRU update.

        Returns ``(hit, inflight_completion)``: ``hit`` is True when the line
        is resident; ``inflight_completion`` is the fill-completion cycle when
        the line is currently being fetched (an MSHR merge opportunity).
        """
        self._drain_mshrs(now)
        idx = self.set_index(line_address)
        s = self._sets.get(idx)
        if s is not None and line_address in s:
            s.move_to_end(line_address)
            return True, None
        return False, self._mshr.get(line_address)

    def record_hit(self) -> None:
        self.stats.hits += 1

    def record_merge(self) -> None:
        self.stats.misses += 1
        self.stats.mshr_merges += 1

    def allocate_miss(self, line_address: int, fill_cycle: int) -> None:
        """Register a miss whose fill will complete at ``fill_cycle``."""
        self.stats.misses += 1
        mshr = self._mshr
        if line_address in mshr:
            # Re-targeting an in-flight fill keeps its allocation slot (the
            # subsystem never does this: it merges into in-flight lines).
            mshr[line_address] = fill_cycle
            fills = self._fills
            for i, (_, seq, line) in enumerate(fills):
                if line == line_address:
                    fills[i] = (fill_cycle, seq, line)
                    break
            heapify(fills)
            return
        mshr[line_address] = fill_cycle
        heappush(self._fills, (fill_cycle, self._seq, line_address))
        self._seq += 1

    def install(self, line_address: int) -> None:
        """Install a line (on fill completion)."""
        idx = self.set_index(line_address)
        # get-or-create: setdefault() would allocate a fresh OrderedDict on
        # every install, even when the set already exists (cycle-hot path).
        s = self._sets.get(idx)
        if s is None:
            s = self._sets[idx] = OrderedDict()  # simcheck: hot-ok -- one OrderedDict per cache set, on first touch only
        if line_address in s:
            s.move_to_end(line_address)
            return
        if len(s) >= self.ways:
            s.popitem(last=False)
            self.stats.evictions += 1
        s[line_address] = True

    def _drain_mshrs(self, now: int) -> None:
        """Retire completed fills: install their lines and free the MSHRs."""
        fills = self._fills
        if not fills or now < fills[0][0]:
            return
        entry = heappop(fills)
        if not fills or now < fills[0][0]:
            del self._mshr[entry[2]]
            self.install(entry[2])
            return
        done = [entry]  # simcheck: hot-ok -- only reached when two or more fills completed by the same probe
        while fills and fills[0][0] <= now:
            done.append(heappop(fills))
        done.sort(key=_SEQ)
        for _, _, line in done:
            del self._mshr[line]
            self.install(line)

    def flush(self) -> None:
        """Drop all resident lines and in-flight fills (test helper)."""
        self._sets.clear()
        self._mshr.clear()
        self._fills.clear()
        self._seq = 0

    def begin_run(self) -> None:
        """Cold-start the cache for a new kernel launch.

        Back-to-back ``GPU.run`` calls model independent launches, so a
        second kernel must see exactly the state a fresh GPU would: no
        resident lines and, critically, no in-flight MSHR fills left over
        from the previous kernel's trailing stores (a load completing
        "mid-run" from a stale fill would shift timing and LRU state).
        Cumulative ``stats`` are untouched — they partition across runs.
        """
        self._sets.clear()
        self._mshr.clear()
        self._fills.clear()
        self._seq = 0
