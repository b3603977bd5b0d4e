"""Differential tests: the heap-retired ``Cache`` and the flat global-access
loop against a tiny reference spec.

``SpecCache`` retires fills the simple way — on every probe, scan every
in-flight fill and install the completed ones in allocation order — and
``spec_access`` sends a warp's lines through it one ``probe`` at a time.
Hypothesis drives both with random operation sequences, including probes
whose ``now`` moves backwards, and the resident sets, LRU order, in-flight
answers and statistics must agree step for step.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import volta_v100
from repro.isa import Instruction, MemRef, Opcode
from repro.memory import Cache, CacheStats, MemorySubsystem, build_dram

NUM_SETS, WAYS = 2, 2


class SpecCache:
    """Reference cache: scan-based MSHR drain, dict-ordered installs."""

    def __init__(self, num_sets: int, ways: int, hit_latency: int = 0) -> None:
        self.num_sets, self.ways, self.hit_latency = num_sets, ways, hit_latency
        self.sets = {}
        self.mshr = {}
        self.stats = CacheStats()

    def drain(self, now):
        for line in [line for line, t in self.mshr.items() if t <= now]:
            del self.mshr[line]
            self.install(line)

    def probe(self, line, now):
        self.drain(now)
        s = self.sets.get(line % self.num_sets)
        if s is not None and line in s:
            s.move_to_end(line)
            return True, None
        return False, self.mshr.get(line)

    def allocate_miss(self, line, fill_cycle):
        self.stats.misses += 1
        self.mshr[line] = fill_cycle

    def install(self, line):
        s = self.sets.setdefault(line % self.num_sets, OrderedDict())
        if line in s:
            s.move_to_end(line)
            return
        if len(s) >= self.ways:
            s.popitem(last=False)
            self.stats.evictions += 1
        s[line] = True

    def mshrs_free(self, now, capacity):
        self.drain(now)
        return capacity - len(self.mshr)


def make_pair():
    cache = Cache(
        size_bytes=NUM_SETS * WAYS * 128, line_bytes=128, ways=WAYS,
        hit_latency=0, mshrs=4,
    )
    return cache, SpecCache(NUM_SETS, WAYS)


def assert_same_state(cache, spec):
    resident = {i: list(s) for i, s in cache._sets.items() if s}
    assert resident == {i: list(s) for i, s in spec.sets.items() if s}
    assert cache._mshr == spec.mshr
    assert cache.stats == spec.stats


lines = st.integers(min_value=0, max_value=9)
cycles = st.integers(min_value=0, max_value=60)
cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("probe"), lines, cycles),
        st.tuples(st.just("allocate"), lines, cycles),
        st.tuples(st.just("install"), lines, st.just(0)),
        st.tuples(st.just("mshrs_free"), st.just(0), cycles),
    ),
    max_size=60,
)


@given(ops=cache_ops)
@settings(max_examples=300, deadline=None)
def test_cache_matches_scan_spec(ops):
    cache, spec = make_pair()
    for op, line, t in ops:
        if op == "probe":
            assert cache.probe(line, t) == spec.probe(line, t)
        elif op == "allocate":
            cache.allocate_miss(line, t)
            spec.allocate_miss(line, t)
        elif op == "install":
            cache.install(line)
            spec.install(line)
        else:
            assert cache.mshrs_free(t) == spec.mshrs_free(t, cache.max_mshrs)
        assert_same_state(cache, spec)


@given(ops=cache_ops, now=cycles)
@settings(max_examples=100, deadline=None)
def test_begin_run_forgets_in_flight_fills(ops, now):
    cache, _ = make_pair()
    for op, line, t in ops:
        if op == "allocate":
            cache.allocate_miss(line, t)
    cache.begin_run()
    assert cache.mshrs_free(now) == cache.max_mshrs
    assert all(cache.probe(line, now) == (False, None) for line in range(10))


# -- the flat global-access loop ------------------------------------------------


def spec_access(l1, l2, dram, state, base_line, num_lines, now):
    """The per-line subsystem loop over spec caches; returns completion."""
    completion = now
    for i in range(num_lines):
        line = base_line + i
        t_issue = max(now + i, state["port"])
        state["port"] = t_issue + 1
        hit, inflight = l1.probe(line, t_issue)
        if hit:
            l1.stats.hits += 1
            t_done = t_issue + l1.hit_latency
        elif inflight is not None:
            l1.stats.misses += 1
            l1.stats.mshr_merges += 1
            t_done = max(inflight, t_issue + l1.hit_latency)
        else:
            t_l2 = t_issue + l1.hit_latency
            hit2, inflight2 = l2.probe(line, t_l2)
            if hit2:
                l2.stats.hits += 1
                t_done = t_l2 + l2.hit_latency
            elif inflight2 is not None:
                l2.stats.misses += 1
                l2.stats.mshr_merges += 1
                t_done = max(inflight2, t_l2 + l2.hit_latency)
            else:
                t_done = dram.access(t_l2, line) + l2.hit_latency
                l2.allocate_miss(line, t_done)
            l1.allocate_miss(line, t_done)
        completion = max(completion, t_done)
    return completion


def small_config():
    import dataclasses

    cfg = volta_v100()
    return cfg.replace(
        memory=dataclasses.replace(
            cfg.memory, l1_size_bytes=4 * 4 * 128, l1_ways=4,
            l2_size_bytes=8 * 4 * 128, l2_ways=4, dram_latency=40,
        )
    )


#: ``(base line, lines, issue)``: issue is an absolute cycle (so time can
#: move backwards) or ``("after", k)``: ``k`` cycles from the previous
#: access's completion, which lands probes exactly on fill boundaries.
accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.one_of(
            st.integers(min_value=0, max_value=400),
            st.tuples(st.just("after"), st.integers(min_value=-2, max_value=2)),
        ),
    ),
    min_size=1,
    max_size=40,
)


def issue_cycle(issue, last_done):
    return issue if isinstance(issue, int) else max(0, last_done + issue[1])


@given(seq=accesses)
@settings(max_examples=150, deadline=None)
def test_access_global_matches_spec_loop(seq):
    cfg = small_config()
    mem = cfg.memory
    ms = MemorySubsystem(cfg)
    l1 = SpecCache(ms.l1.num_sets, ms.l1.ways, ms.l1.hit_latency)
    l2 = SpecCache(ms.l2.num_sets, ms.l2.ways, ms.l2.hit_latency)
    dram, state = build_dram(mem), {"port": 0}
    done = 0
    for base, n, issue in seq:
        now = issue_cycle(issue, done)
        got = ms.access_global(MemRef(base * mem.l1_line_bytes, num_lines=n), now)
        done = got.completion_cycle
        l1_before, l2_before = (l1.stats.hits, l1.stats.misses), (l2.stats.hits, l2.stats.misses)
        want = spec_access(l1, l2, dram, state, base, n, now)
        assert got.completion_cycle == want
        assert (got.l1_hits, got.l1_misses) == (
            l1.stats.hits - l1_before[0], l1.stats.misses - l1_before[1])
        assert (got.l2_hits, got.l2_misses) == (
            l2.stats.hits - l2_before[0], l2.stats.misses - l2_before[1])
        assert_same_state(ms.l1, l1)
        assert_same_state(ms.l2, l2)


@given(seq=accesses)
@settings(max_examples=100, deadline=None)
def test_access_and_access_global_agree(seq):
    cfg = small_config()
    by_inst, by_ref = MemorySubsystem(cfg), MemorySubsystem(cfg)
    done = 0
    for base, n, issue in seq:
        now = issue_cycle(issue, done)
        ref = MemRef(base * cfg.memory.l1_line_bytes, num_lines=n)
        done = by_inst.access(Instruction(Opcode.LDG, dst_reg=1, src_regs=(0,), mem=ref), now)
        assert done == by_ref.access_global(ref, now).completion_cycle
    for level in ("l1", "l2"):
        assert getattr(by_inst, level).stats == getattr(by_ref, level).stats
    assert by_inst.dram.stats == by_ref.dram.stats
