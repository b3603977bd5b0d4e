"""Bit-determinism of simulation across fresh interpreter processes.

The engine's disk cache (and every golden test) relies on simulation
being a pure function of its inputs.  The classic way this breaks in
Python is iterating a hash-ordered set in a scheduling decision — the
candidate order then depends on ``PYTHONHASHSEED`` / object addresses,
and any tie in a scheduler key silently picks different warps in
different processes.  These tests run the same simulation in two fresh
interpreters with *different* hash seeds and require byte-identical
serialized stats.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

_SCRIPT = """\
import sys
from repro.experiments.engine import ExperimentEngine, SimPoint
from repro.experiments.export import dump_json

engine = ExperimentEngine(workers=1, use_disk_cache=False)
for spec in sys.argv[1:]:
    app, design = spec.split(":")
    stats = engine.run_point(SimPoint(app, design))
    sys.stdout.write(dump_json(stats, indent=0))
    sys.stdout.write("\\n")
"""


def _run_fresh_process(hash_seed: str, specs) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *specs],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


@pytest.mark.slow
def test_identical_stats_across_hash_seeds():
    specs = ["rod-nw:baseline", "cg-lou:rba", "tpcU-q8:shuffle"]
    out_a = _run_fresh_process("0", specs)
    out_b = _run_fresh_process("424242", specs)
    assert out_a, "subprocess produced no output"
    assert out_a == out_b


@pytest.mark.slow
def test_bank_stealing_identical_across_hash_seeds():
    """Regression for the RPR001 fix in BankStealingScheduler.

    ``steal_candidate`` used to probe bank idleness through ``set(banks)``;
    the candidate scan must stay hash-order-free so the stolen warp is the
    same in every process.
    """
    specs = ["cg-lou:bank_stealing", "pb-sgemm:bank_stealing"]
    out_a = _run_fresh_process("1", specs)
    out_b = _run_fresh_process("31337", specs)
    assert out_a, "subprocess produced no output"
    assert out_a == out_b


def test_bank_stealing_repeat_run_identical():
    """Two fresh in-process simulations (distinct object ids) must agree."""
    from repro.experiments.designs import get_design
    from repro.gpu import simulate
    from repro.workloads import get_kernel

    cfg = get_design("bank_stealing")
    runs = [
        simulate(get_kernel("cg-lou"), cfg, num_sms=1).to_payload()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_registry_listings_are_sorted():
    """Regression for the keyed sorted-on-set sites in the registry:
    suites() and app_names() must return stable, totally ordered lists."""
    from repro.workloads import app_names, suites

    names = suites()
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for suite in names:
        apps = app_names(suite)
        assert apps == sorted(apps)


def test_allocator_register_order_is_sorted():
    """Regression for the keyed sorted-on-set site in the allocator."""
    from repro.regalloc.allocator import ConflictAwareAllocator
    from repro.trace import TraceBuilder

    trace = TraceBuilder().fma_chain(16, regs=12).build()
    alloc = ConflictAwareAllocator(num_banks=4)
    regs = alloc._registers(trace)
    assert regs == sorted(regs)
    assert len(regs) == len(set(regs))


def test_ready_pool_iterates_in_insertion_order():
    """The sub-core ready pool must never be a hash-ordered set."""
    from repro import volta_v100
    from repro.core import StreamingMultiprocessor
    from repro.memory import MemorySubsystem, build_dram, build_l2

    cfg = volta_v100().replace(num_sms=1)
    sm = StreamingMultiprocessor(
        0,
        cfg,
        MemorySubsystem(cfg, l2=build_l2(cfg.memory), dram=build_dram(cfg.memory)),
    )
    for sc in sm.subcores:
        assert isinstance(sc.ready, dict)
