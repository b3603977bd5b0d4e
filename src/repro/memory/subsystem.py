"""Per-SM memory subsystem: L1 → L2 → DRAM, plus shared memory.

Each SM owns an L1 slice and a shared-memory scratchpad; the L2 and DRAM are
chip-level and shared by all SMs (pass the same instances to every
subsystem).  The subsystem converts a warp memory instruction into a single
completion cycle, which the LDST execution unit uses as the writeback time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from ..config import GPUConfig, MemoryConfig
from ..isa import Instruction, MemRef
from .cache import Cache
from .dram import DRAM
from .shared_memory import SharedMemory

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Tracer


@dataclass(frozen=True)
class AccessResult:
    """Outcome of sending a warp's transactions into the hierarchy."""

    completion_cycle: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int


def build_l2(mem: MemoryConfig) -> Cache:
    """The chip-level L2; share one instance across all SM subsystems."""
    return Cache(
        size_bytes=mem.l2_size_bytes,
        line_bytes=mem.l2_line_bytes,
        ways=mem.l2_ways,
        hit_latency=mem.l2_hit_latency,
        mshrs=mem.l2_mshrs,
        name="L2",
    )


def build_dram(mem: MemoryConfig) -> DRAM:
    return DRAM(
        latency=mem.dram_latency,
        bytes_per_cycle=mem.dram_bytes_per_cycle,
        line_bytes=mem.l2_line_bytes,
        num_channels=mem.dram_channels,
    )


class MemorySubsystem:
    """The memory path attached to one SM."""

    def __init__(
        self,
        config: GPUConfig,
        l2: Optional[Cache] = None,
        dram: Optional[DRAM] = None,
    ) -> None:
        mem = config.memory
        self.config = config
        if mem.l1_line_bytes <= 0 or mem.l1_line_bytes & (mem.l1_line_bytes - 1):
            raise ValueError("l1_line_bytes must be a positive power of two")
        self._line_bytes = mem.l1_line_bytes
        self.l1 = Cache(
            size_bytes=mem.l1_size_bytes,
            line_bytes=mem.l1_line_bytes,
            ways=mem.l1_ways,
            hit_latency=mem.l1_hit_latency,
            mshrs=mem.l1_mshrs,
            name="L1",
        )
        self.l2 = l2 if l2 is not None else build_l2(mem)  # simcheck: persistent -- chip-level shared instance; GPU._run resets it once per launch
        self.dram = dram if dram is not None else build_dram(mem)  # simcheck: persistent -- chip-level shared instance; GPU._run resets it once per launch
        self.shared = SharedMemory(mem.shared_mem_banks)
        #: L1←L2 ingest throughput: line transactions accepted per cycle.
        self._l1_port_free = 0
        # event tracing (repro.obs); attached by the owning SM when active
        self.tracer: Optional["Tracer"] = None  # simcheck: persistent -- wiring installed once per process, survives runs
        self._sm_id = -1  # simcheck: persistent -- wiring installed once per process, survives runs

    def attach_tracer(self, tracer: "Tracer", sm_id: int) -> None:
        """Attach the event tracer; accesses emit ``mem`` span events."""
        self.tracer = tracer
        self._sm_id = sm_id

    def begin_run(self) -> None:
        """Reset per-launch transient state (the L1 side of the SM).

        The shared L2/DRAM are reset once per launch by the GPU, not per
        subsystem — several SMs share those instances.
        """
        self._l1_port_free = 0
        self.l1.begin_run()

    # -- global memory ---------------------------------------------------------

    def access_global(self, mem: MemRef, now: int) -> AccessResult:
        """Send one warp's coalesced global transactions into the hierarchy."""
        l1, l2 = self.l1.stats, self.l2.stats
        l1_hits, l1_misses, l2_hits, l2_misses = l1.hits, l1.misses, l2.hits, l2.misses
        done = self._access_lines(mem.base_address // self._line_bytes, mem.num_lines, now)
        return AccessResult(
            completion_cycle=done,
            l1_hits=l1.hits - l1_hits,
            l1_misses=l1.misses - l1_misses,
            l2_hits=l2.hits - l2_hits,
            l2_misses=l2.misses - l2_misses,
        )

    def _access_lines(self, base_line: int, num_lines: int, now: int) -> int:
        """Completion cycle of lines ``base_line .. base_line+num_lines-1``.

        Traces record each warp instruction's coalescing outcome as a run of
        consecutive lines.  The L1 probe (and its drain guard) is inlined;
        L1 hit/merge counts are added once per access.
        """
        l1 = self.l1
        sets, mshr, fills = l1._sets, l1._mshr, l1._fills
        num_sets, hit_latency = l1.num_sets, l1.hit_latency
        port = self._l1_port_free
        hits = merges = 0
        completion = now
        for i in range(num_lines):
            line = base_line + i
            # One L1 tag port: back-to-back transactions of the same warp
            # instruction serialize one per cycle.
            t_issue = now + i
            if t_issue < port:
                t_issue = port
            port = t_issue + 1
            if fills and fills[0][0] <= t_issue:
                l1._drain_mshrs(t_issue)
            s = sets.get(line % num_sets)
            if s is not None and line in s:
                s.move_to_end(line)
                hits += 1
                t_done = t_issue + hit_latency
            else:
                inflight = mshr.get(line)
                if inflight is not None:
                    merges += 1
                    t_done = t_issue + hit_latency
                    if inflight > t_done:
                        t_done = inflight
                else:
                    t_done = self._access_l2(line, t_issue + hit_latency)
                    l1.allocate_miss(line, t_done)
            if t_done > completion:
                completion = t_done
        self._l1_port_free = port
        stats = l1.stats
        stats.hits += hits
        stats.misses += merges
        stats.mshr_merges += merges
        return completion

    def _access_l2(self, line_address: int, t_at_l2: int) -> int:
        """Completion cycle of an L1 miss reaching the L2 at ``t_at_l2``
        (L1 miss detection + NoC hop after the L1 probe)."""
        l2 = self.l2
        hit, inflight = l2.probe(line_address, t_at_l2)
        if hit:
            l2.record_hit()
            return t_at_l2 + l2.hit_latency
        if inflight is not None:
            l2.record_merge()
            return max(inflight, t_at_l2 + l2.hit_latency)
        t_done = self.dram.access(t_at_l2, line_address) + l2.hit_latency
        l2.allocate_miss(line_address, t_done)
        return t_done

    # -- shared memory -----------------------------------------------------------

    def access_shared(self, now: int, conflict_degree: int = 1) -> int:
        return self.shared.access(now, conflict_degree)

    # -- instruction-level entry point --------------------------------------------

    def access(self, inst: Instruction, now: int, shared_conflict_degree: int = 1) -> int:
        """Completion cycle for a memory instruction's data."""
        if inst.opcode.is_global_memory:
            mem = inst.mem
            assert mem is not None
            if self.tracer is not None:
                result = self.access_global(mem, now)
                done = result.completion_cycle
                self.tracer.mem_access(
                    now,
                    self._sm_id,
                    "global",
                    max(1, done - now),
                    l1_hits=result.l1_hits,
                    l1_misses=result.l1_misses,
                )
                return done
            return self._access_lines(mem.base_address // self._line_bytes, mem.num_lines, now)
        if inst.opcode.is_shared_memory:
            done = self.access_shared(now, shared_conflict_degree)
            if self.tracer is not None:
                self.tracer.mem_access(now, self._sm_id, "shared", max(1, done - now))
            return done
        raise ValueError(f"{inst.opcode.name} is not a memory instruction")
