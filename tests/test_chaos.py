"""Tests for the deterministic fault-injection framework (``repro.chaos``).

The framework's contract is determinism: whether a rule fires depends
only on the plan seed, the rule, the site, the site key and per-process
counters — never on entropy or wall-clock time.  These tests pin the
plan grammar, the trip/arming mechanics (``times``/``after``/``match``),
process scoping, and each fault's effect.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chaos import (
    FAULTS,
    PARENT_ENV,
    PLAN_ENV,
    PLAN_SCHEMA_VERSION,
    SITES,
    ChaosFault,
    FaultPlan,
    FaultRule,
    active_plan,
    clear_plan,
    install_plan,
    plan_loads,
    reset,
    single_fault_plan,
    trip,
    validate_plan,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _no_plan():
    """Every test starts and ends with no active plan."""
    clear_plan()
    yield
    clear_plan()


class TestPlanGrammar:
    def test_dumps_loads_round_trip(self):
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule("crash", "sim", match="rod*", times=2),
                FaultRule("io_error", "result_store", times=0, after=3),
            ),
        )
        assert plan_loads(plan.dumps()) == plan

    def test_serialized_rules_omit_defaults(self):
        doc = FaultRule("crash", "sim").to_json()
        assert doc == {"fault": "crash", "site": "sim"}

    def test_validate_accepts_the_grammar_example(self):
        doc = {
            "schema": PLAN_SCHEMA_VERSION,
            "seed": 31337,
            "rules": [
                {"fault": "crash", "site": "sim", "match": "rod-nw*"},
                {"fault": "kill", "site": "result_write", "after": 5},
            ],
        }
        assert validate_plan(doc) == []

    @pytest.mark.parametrize(
        "doc, needle",
        [
            ({"schema": 99, "rules": []}, "schema"),
            ({"schema": 1, "rules": "nope"}, "rules"),
            (
                {"schema": 1, "rules": [{"fault": "meteor", "site": "sim"}]},
                "fault",
            ),
            (
                {"schema": 1, "rules": [{"fault": "crash", "site": "moon"}]},
                "site",
            ),
            (
                {
                    "schema": 1,
                    "rules": [
                        {"fault": "crash", "site": "sim", "scope": "galaxy"}
                    ],
                },
                "scope",
            ),
            (
                {
                    "schema": 1,
                    "rules": [{"fault": "crash", "site": "sim", "times": -1}],
                },
                "times",
            ),
            ("not a dict", "object"),
        ],
    )
    def test_validate_rejects(self, doc, needle):
        problems = validate_plan(doc)
        assert problems and any(needle in p for p in problems)

    def test_plan_loads_rejects_bad_json_and_bad_plans(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            plan_loads("{nope")
        with pytest.raises(ValueError, match="invalid fault plan"):
            plan_loads('{"schema": 99, "rules": []}')

    def test_decide_is_deterministic_and_key_dependent(self):
        plan = FaultPlan(seed=42)
        rule = FaultRule("crash", "sim", p=0.5)
        keys = [f"point-{i}" for i in range(64)]
        first = [plan.decide(rule, k) for k in keys]
        assert first == [plan.decide(rule, k) for k in keys]
        # A fair-ish p=0.5 draw over 64 keys produces both outcomes.
        assert True in first and False in first
        # A different seed redraws.
        assert first != [FaultPlan(seed=43).decide(rule, k) for k in keys]

    def test_decide_degenerate_probabilities(self):
        plan = FaultPlan()
        assert plan.decide(FaultRule("crash", "sim", p=1.0), "k")
        assert not plan.decide(FaultRule("crash", "sim", p=0.0), "k")


class TestTripMechanics:
    def test_no_plan_is_a_no_op(self):
        trip("sim", "anything")  # must not raise

    def test_crash_raises_chaos_fault(self):
        install_plan(single_fault_plan("crash", "sim"))
        with pytest.raises(ChaosFault, match="injected crash"):
            trip("sim", "point")

    def test_io_error_raises_oserror(self):
        install_plan(single_fault_plan("io_error", "result_store"))
        with pytest.raises(OSError, match="injected I/O failure"):
            trip("result_store", "key")

    def test_match_glob_selects_keys(self):
        install_plan(single_fault_plan("crash", "sim", match="rod*", times=0))
        trip("sim", "cg-lou x baseline")  # no match, no fire
        with pytest.raises(ChaosFault):
            trip("sim", "rod-nw x baseline")

    def test_site_mismatch_never_fires(self):
        install_plan(single_fault_plan("crash", "sim", times=0))
        trip("result_read", "rod-nw")  # different site

    def test_times_limits_firings_per_process(self):
        install_plan(single_fault_plan("crash", "sim", times=2))
        for _ in range(2):
            with pytest.raises(ChaosFault):
                trip("sim", "p")
        trip("sim", "p")  # third invocation: rule exhausted

    def test_after_skips_leading_invocations(self):
        install_plan(single_fault_plan("crash", "sim", after=2))
        trip("sim", "p")
        trip("sim", "p")
        with pytest.raises(ChaosFault):
            trip("sim", "p")

    def test_times_zero_is_unlimited(self):
        install_plan(single_fault_plan("crash", "sim", times=0))
        for _ in range(5):
            with pytest.raises(ChaosFault):
                trip("sim", "p")

    def test_slow_returns_after_sleeping(self):
        install_plan(single_fault_plan("slow", "sim", seconds=0.0))
        trip("sim", "p")  # returns, no exception

    def test_corrupt_garbles_the_target_file(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_text(json.dumps({"schema": 1, "payload": list(range(50))}))
        original = target.read_bytes()
        install_plan(single_fault_plan("corrupt", "result_read"))
        trip("result_read", "key", path=str(target))
        garbled = target.read_bytes()
        assert garbled != original
        with pytest.raises(ValueError):
            json.loads(garbled.decode("utf-8", errors="replace"))

    def test_corrupt_without_a_file_stays_armed(self, tmp_path):
        # A corrupt rule skips invocations with no file to damage and
        # does not burn its ``times`` budget on them.
        target = tmp_path / "entry.json"
        install_plan(single_fault_plan("corrupt", "result_read", times=1))
        trip("result_read", "key", path=str(target))  # nothing there yet
        target.write_text("payload")
        trip("result_read", "key", path=str(target))
        assert target.read_bytes() != b"payload"

    def test_reset_rearms_counters(self):
        install_plan(single_fault_plan("crash", "sim", times=1))
        with pytest.raises(ChaosFault):
            trip("sim", "p")
        trip("sim", "p")  # exhausted
        reset()
        with pytest.raises(ChaosFault):
            trip("sim", "p")


class TestScopes:
    def test_worker_scope_skips_the_installing_parent(self):
        install_plan(
            single_fault_plan("crash", "sim", scope="worker", times=0)
        )
        trip("sim", "p")  # this process IS the parent: no fire

    def test_parent_scope_fires_in_the_installing_parent(self):
        install_plan(
            single_fault_plan("crash", "sim", scope="parent", times=0)
        )
        with pytest.raises(ChaosFault):
            trip("sim", "p")

    def test_worker_scope_fires_in_another_process(self, monkeypatch):
        install_plan(
            single_fault_plan("crash", "sim", scope="worker", times=0)
        )
        # Simulate being a forked worker: the recorded parent pid differs.
        monkeypatch.setenv(PARENT_ENV, str(os.getpid() + 1))
        with pytest.raises(ChaosFault):
            trip("sim", "p")


class TestEnvActivation:
    def test_install_sets_env_and_clear_removes_it(self):
        install_plan(single_fault_plan("crash", "sim"))
        assert os.environ[PARENT_ENV] == str(os.getpid())
        assert active_plan() is not None
        clear_plan()
        assert PLAN_ENV not in os.environ
        assert active_plan() is None

    def test_install_into_a_child_env_dict(self):
        env = {}
        install_plan(single_fault_plan("crash", "sim"), env=env)
        assert set(env) == {PLAN_ENV, PARENT_ENV}
        assert plan_loads(env[PLAN_ENV]).rules[0].fault == "crash"

    def test_plan_from_env_json(self, monkeypatch):
        plan = single_fault_plan("io_error", "result_store", times=3)
        monkeypatch.setenv(PLAN_ENV, plan.dumps())
        reset()
        assert active_plan() == plan

    def test_plan_from_at_file(self, tmp_path, monkeypatch):
        plan = single_fault_plan("slow", "sim", seconds=0.25)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.dumps(), encoding="utf-8")
        monkeypatch.setenv(PLAN_ENV, f"@{plan_file}")
        reset()
        assert active_plan() == plan

    def test_kill_fault_sigkills_the_process(self):
        env = dict(os.environ)
        env[PLAN_ENV] = single_fault_plan("kill", "sim").dumps()
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.chaos import trip; trip('sim', 'p'); print('alive')",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        assert "alive" not in proc.stdout

    def test_children_inherit_the_plan_through_the_env(self):
        env = dict(os.environ)
        install_plan(single_fault_plan("crash", "sim", times=0), env=env)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.chaos import ChaosFault, trip\n"
                "try:\n"
                "    trip('sim', 'p')\n"
                "except ChaosFault:\n"
                "    print('fired')\n",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "fired" in proc.stdout


class TestVocabulary:
    def test_fault_and_site_names_are_stable(self):
        # Plans are written against these names; renames break saved
        # plans and the CI chaos-smoke job.
        assert FAULTS == ("crash", "hang", "slow", "corrupt", "io_error", "kill")
        assert "sim" in SITES and "result_write" in SITES
        assert len(SITES) == 7

    def test_list_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.chaos", "--list"],
            env={
                **os.environ,
                "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        for name in FAULTS + SITES:
            assert name in proc.stdout
