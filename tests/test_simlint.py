"""The determinism rules (RPR000..RPR006): the pass, CLI and output formats.

Every test copies its sources into a throwaway package tree and runs the
passes ``python -m repro.analysis --check-all`` runs.  The fixture file
(``tests/data/simlint_fixture.py``) carries the expected outcome inline:
every line tagged ``# expect: RPRxxx`` must produce exactly that finding,
and no other line may produce anything.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.passes import run_project_passes
from repro.analysis.rules import RULES

from .test_simcheck import make_tree

FIXTURE = Path(__file__).parent / "data" / "simlint_fixture.py"
_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<rule>RPR\d{3})")

#: The per-module determinism rules; RPR000 (no parse) cannot be in the
#: fixture, which must parse to exercise the others.
DETERMINISM_RULES = {r for r in RULES if r.startswith("RPR00") and r != "RPR000"}


def _expected_findings():
    """(line, rule) pairs declared inline in the fixture."""
    expected = []
    for lineno, text in enumerate(FIXTURE.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(text)
        if m:
            expected.append((lineno, m.group("rule")))
    return expected


def _findings(tmp_path, source, name="core/mod.py"):
    """Findings of every pass over a tree holding ``source`` as ``name``."""
    _, findings = run_project_passes(make_tree(tmp_path, {name: source}))
    return findings


def test_fixture_declares_every_rule():
    declared = {rule for _, rule in _expected_findings()}
    assert declared == DETERMINISM_RULES, (
        "fixture must exercise every rule ID exactly; missing "
        f"{DETERMINISM_RULES - declared}, unknown {declared - DETERMINISM_RULES}"
    )


def test_fixture_findings_match_inline_expectations(tmp_path):
    findings = _findings(tmp_path, FIXTURE.read_text())
    actual = sorted((f.line, f.rule_id) for f in findings)
    assert actual == sorted(_expected_findings())


def test_good_examples_are_silent(tmp_path):
    """Lines without an expect tag — the good examples — yield nothing."""
    tagged = {line for line, _ in _expected_findings()}
    findings = _findings(tmp_path, FIXTURE.read_text())
    untagged = [f for f in findings if f.line not in tagged]
    assert untagged == []


@pytest.mark.parametrize(
    "source, rule",
    [
        ("for x in {1, 2}:\n    pass\n", "RPR001"),
        ("xs = sorted({1, 2})\n", "RPR002"),
        ("import random\nx = random.random()\n", "RPR003"),
        ("import time\nt = time.time()\n", "RPR004"),
        ("key = id(object())\n", "RPR005"),
        ("def f(xs=[]):\n    return xs\n", "RPR006"),
    ],
)
def test_minimal_bad_source_fires(tmp_path, source, rule):
    assert [f.rule_id for f in _findings(tmp_path, source)] == [rule]


@pytest.mark.parametrize(
    "source",
    [
        "for x in [1, 2]:\n    pass\n",
        "xs = sorted({1, 2}, key=str)\n",
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "import time\nt = time.perf_counter()\n",
        "def f(xs=None):\n    return xs or []\n",
    ],
)
def test_minimal_good_source_is_silent(tmp_path, source):
    assert _findings(tmp_path, source) == []


def test_syntax_error_reports_rpr000(tmp_path):
    findings = _findings(tmp_path, "def broken(:\n", name="core/bad.py")
    assert [(f.rule_id, f.line, f.col) for f in findings] == [("RPR000", 1, 11)]
    assert findings[0].path.endswith("bad.py")
    assert "syntax error" in findings[0].message


def test_format_is_path_line_col_rule(tmp_path):
    (finding,) = _findings(tmp_path, "xs = sorted({1, 2})\n")
    text = finding.format()
    assert text.startswith(f"{finding.path}:1:6: RPR002 ")
    assert "(fix: " in text


def test_github_annotation_format(tmp_path):
    (finding,) = _findings(tmp_path, "xs = sorted({1, 2})\n")
    line = finding.format_github()
    assert line.startswith(f"::error file={finding.path},line=1,col=6,title=simcheck RPR002::")
    assert "\n" not in line


def test_rule_listing_covers_all_rules(capsys):
    assert main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in listing


# -- CLI ---------------------------------------------------------------------

def _run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_exits_nonzero_on_findings(tmp_path):
    root = make_tree(tmp_path, {"core/bad.py": "import time\nt = time.time()\n"})
    proc = _run_cli("--check-all", str(root))
    assert proc.returncode == 1
    assert "RPR004" in proc.stdout


def test_cli_exits_zero_on_clean_tree(tmp_path):
    root = make_tree(tmp_path, {"core/good.py": "x = sorted([2, 1])\n"})
    proc = _run_cli("--check-all", str(root))
    assert proc.returncode == 0
    assert "0 finding(s)" in proc.stdout


def test_cli_github_flag_emits_annotations(tmp_path):
    root = make_tree(tmp_path, {"core/bad.py": "k = id(object())\n"})
    proc = _run_cli("--check-all", "--github", str(root))
    assert proc.returncode == 1
    assert "::error file=" in proc.stdout


def test_cli_usage_error_exit_code():
    proc = _run_cli("--bogus-flag")
    assert proc.returncode == 2


def test_cli_reports_unparseable_module_beside_findings(tmp_path, capsys):
    """A module that does not parse is an RPR000 finding, not a silent
    gap: the rest of the tree is still checked."""
    root = make_tree(
        tmp_path,
        {
            "core/broken.py": "def broken(:\n    pass\n",
            "core/clock.py": "import time\nt = time.time()\n",
        },
    )
    assert main(["--check-all", str(root)]) == 1
    out = capsys.readouterr().out
    assert "broken.py:1:12: RPR000 syntax error" in out
    assert "clock.py:2:5: RPR004" in out
