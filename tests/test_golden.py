"""Golden-value regression tests.

The simulator is deterministic, so exact cycle counts for fixed scenarios
are stable; these tests pin them.  If a change to the timing model is
*intentional*, update the constants here — the diff then documents the
performance impact of the change.  If a change trips these without
touching the timing model, it introduced nondeterminism or an accidental
behavioural change.
"""

import pytest

from repro import (
    fully_connected,
    kepler,
    rba,
    simulate,
    srr,
    volta_v100,
)
from repro.trace import TraceBuilder, make_kernel
from repro.workloads import fma_microbenchmark, get_kernel


def cycles(kernel, cfg):
    return simulate(kernel, cfg, num_sms=1).cycles


class TestGoldenMicrobench:
    def test_fma_baseline_volta(self):
        assert cycles(fma_microbenchmark("baseline", fmas=128), volta_v100()) == 609

    def test_fma_unbalanced_volta(self):
        assert cycles(fma_microbenchmark("unbalanced", fmas=128), volta_v100()) == 2145

    def test_fma_unbalanced_kepler(self):
        assert cycles(fma_microbenchmark("unbalanced", fmas=128), kepler()) == 607

    def test_fma_unbalanced_srr(self):
        assert cycles(fma_microbenchmark("unbalanced", fmas=128), srr()) == 612


class TestGoldenApps:
    def test_cg_lou_baseline(self):
        assert cycles(get_kernel("cg-lou"), volta_v100()) == 13147

    def test_cg_lou_rba(self):
        assert cycles(get_kernel("cg-lou"), rba()) == 10906

    def test_rod_nw_baseline(self):
        assert cycles(get_kernel("rod-nw"), volta_v100()) == 16156

    def test_pb_stencil_fully_connected(self):
        k = get_kernel("pb-stencil")
        assert cycles(k, fully_connected()) == cycles(k, fully_connected())


class TestGoldenPipeline:
    def test_single_fadd_latency(self):
        # issue t0, grants t0 (2 banks), dispatch t1, interval 2 + latency 4
        # -> writeback t7; EXIT waits for the scoreboard and issues t7;
        # run ends after cycle 7 -> 8 cycles total.
        k = make_kernel("one", [TraceBuilder().emit(
            __import__("repro.isa", fromlist=["fadd"]).fadd(8, 0, 1)
        ).build()])
        assert cycles(k, volta_v100()) == 8

    def test_single_ldg_latency(self):
        tb = TraceBuilder().global_load(dst=1, addr_reg=0, base_address=0)
        k = make_kernel("ld", [tb.build()])
        mem = volta_v100().memory
        got = cycles(k, volta_v100())
        # cold miss: L1 + L2 + DRAM latencies plus pipeline overheads
        floor = mem.l1_hit_latency + mem.l2_hit_latency + mem.dram_latency
        assert floor < got < floor + 50

    def test_instruction_count_exact(self):
        stats = simulate(
            fma_microbenchmark("baseline", fmas=64), volta_v100(), num_sms=1
        )
        # 8 warps x (64 FMA + BAR + EXIT)
        assert stats.instructions == 8 * 66


class TestGoldenMemoryDigests:
    """Whole-stats digests of memory-bound Fig. 9 points.

    Copied from ``perfbench/reference.json`` (the benchmark's oracle), so
    a change to L1/L2/MSHR timing, install order or LRU state that moves
    any statistic fails here, not only in the benchmark.
    """

    @pytest.mark.parametrize(
        "app,design,digest",
        [
            ("pb-lbm", "baseline", "72b76d2b7d55e7d2"),
            ("pb-lbm", "shuffle_rba", "344c753347985129"),
            ("ply-mvt", "baseline", "43b657840ccd6ee8"),
            ("ply-mvt", "shuffle_rba", "721d70d83e161ded"),
        ],
    )
    def test_membound_digest(self, app, design, digest):
        from repro.experiments.designs import get_design
        from repro.obs import stats_digest

        stats = simulate(get_kernel(app), get_design(design), num_sms=1)
        assert stats_digest(stats.to_payload()) == digest
