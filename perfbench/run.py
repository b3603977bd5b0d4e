#!/usr/bin/env python3
"""End-to-end benchmark of the experiment engine, with per-layer spans.

Run from the repository root::

    python3 perfbench/run.py --workload fig10-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload fig09-membound --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --update-reference

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes a separate traced run and reports the per-layer metrics.  Both
print a human-readable report and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--update-reference`` re-simulates every workload point and rewrites the
reference digests the correctness oracle compares against; nothing else
writes that file.  The metric names and units come from ``BENCHMARK.json``
beside ``perfbench/``, and ``perfbench/README.md`` defines them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run caches (removed at exit),
#: span files and the exact-repeat records.
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

WORKERS = min(2, os.cpu_count() or 1)
#: Fresh-process set-ups timed per round; ``setup_s`` is their median.
SETUP_PROBES = 4
#: Lookups per block: each block gives one p50 and one p99, so every p99
#: has at least ten lookups beyond it.
LOOKUP_BLOCK = 1000
#: Lookup blocks in each round.
LOOKUP_BLOCKS = 8
#: Host-speed calibration pieces (``hostspeed.piece``) timed after each
#: lookup pass.
PASS_PIECES = 5
#: Lookup passes in each round of a traced run; a fixed count, so every
#: ``.calls`` total repeats exactly.
TRACE_LOOKUP_PASSES = 20
#: A cold unit is not started when it could end past this many seconds
#: into the measurement, which keeps every run well inside 180 s.
MEASURE_CAP_S = 120.0

#: One Table III app per benchmark suite that has one in Table III
#: (TPC-H left out: tpcC-q9 alone costs as much as three others).  Six
#: apps × eight designs keeps a cold unit near 10 s on two workers, so
#: several rounds fit a run; the whole 200-point grid takes ~58 s.
FIG10_APPS = ("pb-sad", "cutlass-4096", "rod-bp", "cg-lou", "ply-2Dcon", "db-rnn-tr")
#: Fig. 10 paper mean speedups (percent) that ``paper_gap_pp`` compares
#: the simulated means of the ``FIG10_APPS`` slice against.
FIG10_PAPER = {"rba": 11.1, "cu4": 4.1, "shuffle_rba": 19.3}
MEMBOUND_MIN_FRACTION = 0.25

WORKLOADS = ("fig10-cold", "fig09-membound")


def log(line: str = "") -> None:
    print(line, flush=True)


# -- workloads -----------------------------------------------------------------


def workload_points(workload: str):
    """The workload's simulation points."""
    from repro.experiments import fig09_all_apps, fig10_sensitive
    from repro.experiments.engine import SimPoint
    from repro.workloads import SENSITIVE_APPS, app_names, get_profile

    if workload == "fig10-cold":
        apps: Sequence[str] = FIG10_APPS
        designs = ("baseline",) + tuple(fig10_sensitive.DESIGNS)
    else:
        apps = [
            a for a in app_names()
            if a not in SENSITIVE_APPS
            and get_profile(a).mem_fraction >= MEMBOUND_MIN_FRACTION
        ]
        designs = ("baseline",) + tuple(fig09_all_apps.DESIGNS)
    return [SimPoint(a, d) for a in apps for d in designs]


def reference_points():
    points = {}
    for workload in WORKLOADS:
        for p in workload_points(workload):
            points[p] = None
    return list(points)


def point_id(point) -> str:
    return f"{point.app}|{point.design}|{point.num_sms}"


def versions() -> Dict[str, object]:
    import repro
    from repro.experiments.engine import CACHE_SCHEMA
    from repro.workloads import PROFILE_VERSION

    return {
        "sim_version": repro.__version__,
        "profile_version": PROFILE_VERSION,
        "cache_schema": CACHE_SCHEMA,
    }


# -- correctness oracle --------------------------------------------------------


class Oracle:
    """Checks every resolved point; failures are counted, never raised."""

    def __init__(self, reference: Optional[dict]):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._kernel_insts: Dict[str, int] = {}
        self._digests: Optional[Dict[str, str]] = None
        if reference is None:
            self._stale = "no reference digests; run --update-reference"
        elif reference.get("versions") != versions():
            self._stale = (
                f"reference digests are for {reference.get('versions')}, "
                f"code is {versions()}; run --update-reference"
            )
        else:
            self._stale = None
            self._digests = reference["digests"]

    def kernel_instructions(self, app: str) -> int:
        """Warp-instructions in the app's synthesized trace, EXITs included."""
        if app not in self._kernel_insts:
            from repro.workloads import get_kernel

            kernel = get_kernel(app)
            self._kernel_insts[app] = sum(
                len(w.instructions) for cta in kernel.ctas for w in cta.warps
            )
        return self._kernel_insts[app]

    def _fail(self, point, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{point_id(point)}: {why}")

    def check_cold(self, point, stats) -> None:
        """Conservation, instruction total and reference digest."""
        from repro.obs import stats_digest

        self.attempted += 1
        try:
            errors = stats.conservation_errors()
            if errors:
                return self._fail(point, f"conservation: {errors[0]}")
            expected = self.kernel_instructions(point.app)
            if stats.instructions != expected:
                return self._fail(
                    point, f"instructions {stats.instructions} != trace total {expected}"
                )
            if self._stale is not None:
                return self._fail(point, self._stale)
            want = self._digests.get(point_id(point))
            got = stats_digest(stats.to_payload())
            if want != got:
                return self._fail(point, f"digest {got} != reference {want}")
        except Exception as exc:  # the oracle must never end the run
            self._fail(point, f"check raised {exc!r}")

    def check_warm(self, point, stats, cold) -> None:
        """A cache read must return exactly what the cold unit produced.

        ``SimStats`` equality compares every field, and the payload (hence
        the digest) is a lossless function of the fields, so equal stats
        have equal digests; comparing fields skips serializing and hashing.
        """
        self.attempted += 1
        try:
            if stats != cold:
                self._fail(point, "warm result differs from the cold pass")
        except Exception as exc:
            self._fail(point, f"check raised {exc!r}")

    def fail_all(self, points, why: str) -> None:
        for p in points:
            self.attempted += 1
            self._fail(p, why)


# -- engine drivers ------------------------------------------------------------


class Workspace:
    """Per-run directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        os.environ["REPRO_CACHE_DIR"] = str(self.root / "default-results")
        os.environ["REPRO_TRACE_CACHE_DIR"] = str(self.root / "default-trace-code")
        self._n = 0

    def fresh_cache(self) -> Path:
        """An empty result-cache directory; the engine keeps its trace-code
        cache in ``<dir>/trace-code``, so that starts empty too."""
        self._n += 1
        path = self.root / f"cache-{self._n}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class ColdUnit:
    """One cold ``run_many`` over a workload's points.

    With ``calibrate`` a ``hostspeed.Sampler`` runs alongside, and
    ``scale`` turns ``wall`` into seconds at the reference host speed.
    """

    def __init__(self, points, rng: random.Random, workers: int, ws: Workspace,
                 calibrate: bool = False):
        from repro.experiments.engine import ExperimentEngine
        from repro.workloads import registry

        self.cache = ws.fresh_cache()
        # The compiled-kernel memo is process-wide; a cold unit must not
        # inherit kernels an earlier in-process unit compiled.
        registry._COMPILED_MEMO.clear()
        order = list(points)
        rng.shuffle(order)
        self.engine = ExperimentEngine(workers=workers, cache_dir=self.cache)
        sampler = hostspeed.Sampler()
        with sampler if calibrate else contextlib.nullcontext():
            t0 = time.perf_counter()
            self.results = self.engine.run_many(order)
            self.wall = time.perf_counter() - t0
        self.scale = sampler.scale()
        self.instructions = sum(s.instructions for s in self.results.values())


def lookup_pass(points, rng: random.Random, cache: Path) -> Tuple[dict, float, List[float], object]:
    """Re-resolve every point, one ``run_point`` each, on a fresh engine."""
    from repro.experiments.engine import ExperimentEngine

    order = list(points)
    rng.shuffle(order)
    engine = ExperimentEngine(workers=WORKERS, cache_dir=cache)
    out = {}
    latencies = []
    now = time.perf_counter
    t0 = now()
    for p in order:
        t = now()
        out[p] = engine.run_point(p)
        latencies.append(now() - t)
    return out, now() - t0, latencies, engine


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def paper_gap_pp(results) -> float:
    """Mean |simulated − paper Fig. 10 mean speedup|, in percentage points,
    over the ``FIG10_APPS`` slice."""
    from repro.experiments.engine import SimPoint
    from repro.experiments.report import average_speedups

    rows = []
    for app in FIG10_APPS:
        base = results[SimPoint(app, "baseline")].cycles
        rows.append((app, {d: base / results[SimPoint(app, d)].cycles for d in FIG10_PAPER}))
    avg = average_speedups(rows, FIG10_PAPER)
    return statistics.fmean(abs((avg[d] - 1) * 100 - FIG10_PAPER[d]) for d in FIG10_PAPER)


def fig10_gap(rng: random.Random, ws: Workspace, oracle: Oracle) -> float:
    """``paper_gap_pp`` for a workload whose grid is not the Fig. 10 slice:
    resolves the slice's baseline and paper designs cold, untimed."""
    from repro.experiments.engine import SimPoint

    points = [SimPoint(a, d) for a in FIG10_APPS for d in ("baseline",) + tuple(FIG10_PAPER)]
    try:
        unit = ColdUnit(points, rng, WORKERS, ws)
    except Exception as exc:  # count the points as failed, keep reporting
        oracle.fail_all(points, f"run_many raised {exc!r}")
        return 0.0
    reap_children()
    for p, s in unit.results.items():
        oracle.check_cold(p, s)
    shutil.rmtree(unit.cache, ignore_errors=True)
    return paper_gap_pp(unit.results)


def model_metrics(results) -> Dict[str, float]:
    stats = list(results.values())
    cycles = sum(s.cycles for s in stats)
    insts = sum(s.instructions for s in stats)
    l1 = sum(s.l1_hits for s in stats), sum(s.l1_hits + s.l1_misses for s in stats)
    l2 = sum(s.l2_hits for s in stats), sum(s.l2_hits + s.l2_misses for s in stats)
    return {
        "model.cycles": cycles,
        "model.ipc": insts / cycles if cycles else 0.0,
        "model.bank_conflict_cycles": sum(s.bank_conflict_cycles() for s in stats),
        "model.l1_hit_ratio": l1[0] / l1[1] if l1[1] else 0.0,
        "model.l2_hit_ratio": l2[0] / l2[1] if l2[1] else 0.0,
        "model.dram_accesses": sum(s.dram_accesses for s in stats),
    }


def time_setups(workload: str, count: int) -> List[float]:
    """Wall time of fresh processes doing imports, point list and engine."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            check=True,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return times


def setup_probe(workload: str) -> None:
    from repro.experiments.engine import ExperimentEngine

    workload_points(workload)
    ExperimentEngine(workers=WORKERS, cache_dir=WORK / "probe-unused")


def reap_children() -> None:
    """Wait for every pool worker this process started."""
    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.terminate()
            child.join(5)


def peak_rss_mb() -> float:
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- end-to-end run ------------------------------------------------------------


def passes_per_block(points) -> int:
    return math.ceil(LOOKUP_BLOCK / len(points))


class Round:
    """One cold unit, then lookup passes over the cache it just filled.

    The unit is a cold ``run_many`` over the workload's points.  Each
    lookup pass re-resolves every point with ``run_point`` on a fresh
    engine, so every call reads the disk cache, and each result is
    checked against the unit's as it arrives (so none is kept).

    With ``calibrate`` the unit is speed-scaled, the passes are grouped
    into blocks of ``passes_per_block``, and ``hostspeed`` pieces are timed
    after every pass.  Each block adds one entry to ``blocks``: its p50
    and p99 latency and the speed scale of its pieces.
    """

    def __init__(self, points, rng: random.Random, workers: int, ws: Workspace,
                 passes: int, oracle: Oracle, calibrate: bool = True):
        self.unit = ColdUnit(points, rng, workers, ws, calibrate)
        reap_children()
        self.lookups = 0
        self.lookup_wall = 0.0
        #: (p50 s, p99 s, speed scale), one per block of passes.
        self.blocks: List[Tuple[float, float, float]] = []
        self.profiles = [self.unit.engine.profile]
        per_block = passes_per_block(points)
        latencies: List[float] = []
        pieces: List[float] = []
        for i in range(passes):
            out, wall, lat, engine = lookup_pass(points, rng, self.unit.cache)
            self.lookups += len(lat)
            self.lookup_wall += wall
            self.profiles.append(engine.profile)
            for p, s in out.items():
                oracle.check_warm(p, s, self.unit.results[p])
            if calibrate:
                latencies.extend(lat)
                pieces.extend(hostspeed.piece() for _ in range(PASS_PIECES))
                if (i + 1) % per_block == 0:
                    self.blocks.append((
                        percentile(latencies, 0.50),
                        percentile(latencies, 0.99),
                        hostspeed.scale(statistics.median(pieces)),
                    ))
                    latencies, pieces = [], []
        shutil.rmtree(self.unit.cache, ignore_errors=True)

    def check_cold(self, oracle: Oracle) -> None:
        for p, s in self.unit.results.items():
            oracle.check_cold(p, s)


def run_e2e(workload: str, rng: random.Random, seconds: float, ws: Workspace, oracle: Oracle):
    points = workload_points(workload)
    passes = LOOKUP_BLOCKS * passes_per_block(points)
    setups: List[float] = []
    units: List[Tuple[float, float]] = []  # (wall s, speed scale) per cold unit
    blocks: List[Tuple[float, float, float]] = []  # see Round.blocks
    instructions = 0
    lookups = 0
    gap: Optional[float] = None
    # Set-up probes, cold units and lookup blocks are spread over the run,
    # a few per round, and each metric is a median over them, so that a
    # slow spell of the host does not decide a whole metric.
    t_start = time.perf_counter()
    last_round = 0.0
    while not units or (
        time.perf_counter() - t_start < seconds
        and time.perf_counter() - t_start + last_round < MEASURE_CAP_S
    ):
        t_round = time.perf_counter()
        setups.extend(time_setups(workload, SETUP_PROBES))
        try:
            rnd = Round(points, rng, WORKERS, ws, passes, oracle)
        except Exception as exc:  # count the round as failed, keep reporting
            oracle.fail_all(points, f"run_many raised {exc!r}")
            break
        units.append((rnd.unit.wall, rnd.unit.scale))
        instructions = rnd.unit.instructions
        blocks.extend(rnd.blocks)
        lookups += rnd.lookups
        rnd.check_cold(oracle)
        if gap is None and workload == "fig10-cold":
            gap = paper_gap_pp(rnd.unit.results)
        last_round = time.perf_counter() - t_round
    if gap is None:
        gap = fig10_gap(rng, ws, oracle)

    med = statistics.median
    walls = [wall * k for wall, k in units]
    values = {
        "setup_s": med(setups),
        "points_per_s": med(len(points) / w for w in walls) if walls else 0.0,
        "sim_kinsts_per_s": med(instructions / 1000.0 / w for w in walls) if walls else 0.0,
        "lookup_ms_p50": med(b[0] * b[2] for b in blocks) * 1000 if blocks else 0.0,
        "lookup_ms_p99": med(b[1] * b[2] for b in blocks) * 1000 if blocks else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "paper_gap_pp": gap,
    }
    counted = (f"median over {len(units)} cold units of {len(points)} points, "
               "unscaled wall x speed scale: " + " ".join(f"{w:.2f}s x{k:.3f}" for w, k in units))
    per_block = (
        f"median over {len(blocks)} blocks of {passes_per_block(points) * len(points)} lookups, "
        f"{lookups} run_point lookups; unscaled "
        + (f"p50 {med(b[0] for b in blocks) * 1000:.4f} p99 {med(b[1] for b in blocks) * 1000:.4f} ms, "
           f"median speed scale {med(b[2] for b in blocks):.3f}" if blocks else "-")
    )
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "points_per_s": counted,
        "sim_kinsts_per_s": counted,
        "lookup_ms_p50": per_block,
        "lookup_ms_p99": per_block,
        "peak_rss_mb": f"benchmark process + largest child, {WORKERS} workers",
        "paper_gap_pp": f"Fig. 10 slice {', '.join(FIG10_APPS)} vs paper {FIG10_PAPER}"
                        + ("" if workload == "fig10-cold" else "; resolved after the timed rounds"),
    }
    return values, notes


# -- traced run ----------------------------------------------------------------


def install_spans(rec) -> None:
    import repro.experiments.engine as engine_mod
    import repro.trace.code_cache as code_cache
    import repro.workloads.registry as registry
    from repro.core.arbitration import ArbitrationUnit
    from repro.core.sm import StreamingMultiprocessor
    from repro.core.subcore import SubCore
    from repro.core.warp_scheduler import WarpScheduler
    from repro.experiments.engine import ExperimentEngine, SimPoint
    from repro.gpu.tb_scheduler import ThreadBlockScheduler
    from repro.memory.subsystem import MemorySubsystem
    from repro.metrics.stats import SimStats

    # Point scopes: the engine's per-point simulation entry (cold units)
    # and the public per-point lookup (lookup passes).
    rec.scope(engine_mod, "_simulate_point", "engine.point",
              lambda fields, **_: SimPoint(*fields).label())
    rec.scope(ExperimentEngine, "run_point", "engine.run_point",
              lambda _engine, point: point.label())
    rec.wrap(engine_mod, "point_key", "engine.point_key")
    rec.wrap(registry, "build_kernel", "workloads.build_kernel")
    rec.wrap(registry, "compile_kernel", "trace.compile_kernel")
    rec.wrap(code_cache, "load_compiled", "trace.code_cache.load_compiled")
    rec.wrap(code_cache, "store_compiled", "trace.code_cache.store_compiled")
    rec.wrap(engine_mod, "simulate", "gpu.simulate")
    rec.wrap(ThreadBlockScheduler, "fill", "gpu.tb_fill")
    rec.wrap(StreamingMultiprocessor, "next_event", "gpu.next_event", hot=True)
    rec.wrap(StreamingMultiprocessor, "account_skipped_steps", "gpu.skip", hot=True)
    rec.wrap(StreamingMultiprocessor, "step", "core.sm_step", hot=True)
    rec.wrap(SubCore, "dispatch_ready_cus", "core.dispatch", hot=True)
    rec.wrap(SubCore, "issue", "core.issue", hot=True)
    pending = [WarpScheduler]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "select" in cls.__dict__:
            rec.wrap(cls, "select", "core.select", hot=True)
    rec.wrap(ArbitrationUnit, "grant_cycle", "core.grant", hot=True)
    rec.wrap(MemorySubsystem, "access", "memory.access", hot=True)
    rec.wrap(SimStats, "to_payload", "metrics.to_payload")
    rec.wrap(SimStats, "from_payload", "metrics.from_payload")


def engine_ratios(rnd: Round, workers: int) -> Dict[str, float]:
    """Hit ratio over the round's engines; busy and skew over its unit."""
    hits = sum(p.hits for p in rnd.profiles)
    lookups = sum(p.lookups for p in rnd.profiles)
    prof = rnd.unit.engine.profile
    wall = rnd.unit.wall
    return {
        "engine.hit_ratio": hits / lookups if lookups else 0.0,
        "engine.worker_busy_ratio": prof.total_sim_seconds() / (workers * wall) if wall > 0 else 0.0,
        "engine.worker_skew": prof.worker_skew(),
    }


def run_traced(workload: str, rng: random.Random, ws: Workspace, oracle: Oracle, seed: int,
               declared: Sequence[str]):
    """The per-layer metrics; ``declared`` names the ``<span>.calls`` and
    ``<span>.self_s`` metrics to read from the recorded spans."""
    from spans import SpanRecorder

    points = workload_points(workload)
    rec = SpanRecorder()

    def side(group, workers: int, traced: bool) -> Round:
        if traced:
            install_spans(rec)
        try:
            rnd = Round(group, rng, workers, ws, TRACE_LOOKUP_PASSES, oracle, calibrate=False)
        finally:
            rec.uninstall()
        rnd.check_cold(oracle)
        return rnd

    ratios = engine_ratios(side(points, WORKERS, False), WORKERS)
    # The one-worker sides alternate app by app, so a slow spell of the
    # host lands on both sides of the overhead ratio alike.
    untraced_wall = traced_wall = 0.0
    results = {}
    for i, app in enumerate(sorted({p.app for p in points})):
        group = [p for p in points if p.app == app]
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            rnd = side(group, 1, traced)
            wall = rnd.unit.wall + rnd.lookup_wall
            if traced:
                traced_wall += wall
                results.update(rnd.unit.results)
            else:
                untraced_wall += wall

    values: Dict[str, float] = {}
    for metric in declared:
        span, _, kind = metric.rpartition(".")
        if span in rec.totals and kind == "calls":
            values[metric] = rec.calls(span)
        elif span in rec.totals and kind == "self_s":
            values[metric] = rec.self_seconds(span)
    values.update(ratios)
    sm_cycles = sum(s.cycles * len(s.sms) for s in results.values())
    insts = sum(s.instructions for s in results.values())
    values["gpu.stepped_ratio"] = rec.calls("core.sm_step") / sm_cycles if sm_cycles else 0.0
    issues = rec.calls("core.issue")
    values["core.issue_yield"] = insts / issues if issues else 0.0
    values.update(model_metrics(results))
    values["bench.traced_wall_s"] = traced_wall
    values["bench.untraced_wall_s"] = untraced_wall
    values["bench.trace_overhead"] = traced_wall / untraced_wall if untraced_wall > 0 else 0.0

    span_file = WORK / "spans" / f"{workload}-seed{seed}.jsonl"
    rec.write(span_file)
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    checks: List[str] = []
    if self_sum > traced_wall:
        checks.append(f"per-layer self time {self_sum:.3f}s exceeds traced wall {traced_wall:.3f}s")
    drift, repeat_note = repeat_check(workload, values)
    checks.extend(drift)
    notes = [
        f"traced {len(points)} cold points and {TRACE_LOOKUP_PASSES} lookup passes on 1 worker, "
        f"one app at a time; spans in {span_file.relative_to(ROOT)}",
        f"per-layer self time sums to {self_sum:.3f}s of {traced_wall:.3f}s traced wall",
        f"engine.* ratios from an untraced {WORKERS}-worker round",
        repeat_note,
    ]
    return values, notes, checks


def code_fingerprint() -> str:
    """Hash of the simulator sources and the benchmark, for repeat records."""
    h = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def repeat_check(workload: str, values: Dict[str, float]) -> Tuple[List[str], str]:
    """Counts and model values must repeat exactly across runs of one code.

    The first traced run of a workload in a checkout records them under
    the code's fingerprint and compares nothing; every later run of the
    same code compares and reports each drifted value as a failure.
    Returns the failures and a note saying which of the two happened.
    """
    exact = {k: v for k, v in values.items() if k.endswith(".calls") or k.startswith("model.")}
    path = WORK / "repeat" / f"{workload}.json"
    fingerprint = code_fingerprint()
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        previous = None
    if previous is None or previous.get("fingerprint") != fingerprint:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fingerprint": fingerprint, "values": exact}, sort_keys=True))
        return [], (f"exact repeat: no earlier traced run of this code here; "
                    f"recorded {len(exact)} values, compared none")
    drift = [
        f"exact-repeat drift: {k} was {previous['values'].get(k)}, now {v}"
        for k, v in exact.items()
        if previous["values"].get(k) != v
    ]
    return drift, f"exact repeat: compared {len(exact)} values with an earlier run, {len(drift)} drifted"


# -- reference -----------------------------------------------------------------


def update_reference(ws: Workspace) -> int:
    from repro.obs import stats_digest

    points = reference_points()
    oracle = Oracle(None)
    unit = ColdUnit(points, random.Random(0), WORKERS, ws)
    bad = []
    for p, s in unit.results.items():
        errors = s.conservation_errors()
        if errors or s.instructions != oracle.kernel_instructions(p.app):
            bad.append(point_id(p))
    if bad:
        print(f"refusing to record a reference: {len(bad)} points fail checks: {bad[:5]}",
              file=sys.stderr)
        return 1
    doc = {
        "versions": versions(),
        "digests": {
            point_id(p): stats_digest(unit.results[p].to_payload())
            for p in sorted(unit.results)
        },
    }
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    log(f"recorded {len(points)} reference digests in {unit.wall:.1f}s")
    return 0


# -- CLI -----------------------------------------------------------------------


def host_facts() -> str:
    return (
        f"python {platform.python_version()}, {platform.system()} {platform.release()} "
        f"{platform.machine()}, {os.cpu_count()} CPUs, {WORKERS} workers"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.update_reference and not args.setup_probe and not args.workload:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    units: Dict[str, str] = {}
    if args.workload:
        try:
            units = declared_metrics(bool(args.trace))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"perfbench: cannot read the metric list from {SPEC.name}: {exc!r}",
                  file=sys.stderr)
            return 2

    # On SIGTERM, unwind through the cleanup below: reap the pool workers
    # and remove the run's cache directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ws = Workspace()
    try:
        if args.update_reference:
            return update_reference(ws)
        try:
            reference = json.loads(REFERENCE.read_text())
        except (OSError, ValueError):
            reference = None
        oracle = Oracle(reference)
        rng = random.Random(args.seed)
        log(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
        log(f"# host: {host_facts()}")
        checks: List[str] = []
        if args.trace:
            values, notes, checks = run_traced(args.workload, rng, ws, oracle, args.seed, list(units))
            for line in notes:
                log(f"# {line}")
            for k, v in values.items():
                log(f"{k:40s} {v:.6g} {units.get(k, '?')}")
        else:
            values, notes = run_e2e(args.workload, rng, args.seconds, ws, oracle)
            for k, v in values.items():
                log(f"{k:18s} {v:12.6g} {units.get(k, '?'):8s} ({notes[k]})")
        missing = sorted(set(units) - set(values))
        undeclared = sorted(set(values) - set(units))
        if missing or undeclared:
            checks.append(f"metrics differ from {SPEC.name}: missing {missing}, "
                          f"undeclared {undeclared}")
        error_rate = oracle.failed / oracle.attempted if oracle.attempted else 1.0
        log(f"{'error_rate':18s} {error_rate:12.6g} ratio    "
            f"({oracle.failed} failed / {oracle.attempted} attempted)")
        for problem in oracle.problems + checks:
            log(f"# FAIL {problem}")
    finally:
        reap_children()
        ws.close()
    result = {
        "correct": oracle.failed == 0 and not checks and oracle.attempted > 0,
        "attempted": max(1, oracle.attempted),
        "failed": oracle.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def declared_metrics(traced: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for an
    untraced (``end_to_end``) or traced (``per_layer``) run."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
