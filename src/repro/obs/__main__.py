"""Command-line observability tooling.

Usage::

    python -m repro.obs --validate FILE [...]          # schema gates (CI)
    python -m repro.obs --summarize EVENTS.jsonl       # event-kind counts
    python -m repro.obs --dashboard [--out FILE] [INPUTS...]

``--validate`` dispatches on artifact shape: Chrome-trace JSON documents
check against :func:`repro.obs.events.validate_chrome_trace`, run
manifests (``*.jsonl``) against the versioned record schema
(:func:`repro.obs.manifest.validate_manifest_record` — unknown-version
records are rejected, unstamped pre-versioning records are flagged as
legacy), metrics exports against
:func:`repro.obs.metrics.validate_metrics_json`, status files against
:func:`repro.obs.heartbeat.validate_status`, and bench reports against
``repro.bench.schema``.  Exit status: 0 clean, 1 schema errors, 2 usage
error.

``--dashboard`` renders the unified static HTML report (default
``repro-dashboard.html``) from any mix of manifests, ``BENCH_*.json``
reports, metrics exports and status files; with no inputs it picks up
every ``BENCH_*.json`` in the current directory.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import List, Optional

from .events import validate_chrome_trace, validate_event


def _print_problems(path: str, problems: List[str]) -> None:
    for problem in problems[:20]:
        print(f"{path}: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"{path}: ... {len(problems) - 20} more", file=sys.stderr)


def _validate_one(path: str) -> bool:
    """Validate one artifact by shape; returns True when clean."""
    from .dashboard import classify_input
    from .heartbeat import validate_status
    from .manifest import validate_manifest
    from .metrics import validate_metrics_json

    kind, payload = classify_input(path)
    if kind == "error":
        print(payload, file=sys.stderr)
        return False
    if kind == "trace":
        errors = validate_chrome_trace(payload)
        if errors:
            _print_problems(path, errors)
            return False
        print(f"{path}: OK ({len(payload['traceEvents'])} events)")
        return True
    if kind == "manifest":
        counts, problems = validate_manifest(path)
        if problems:
            _print_problems(path, problems)
            return False
        legacy = f", {counts['legacy']} legacy" if counts["legacy"] else ""
        print(f"{path}: OK ({counts['ok']} records{legacy})")
        return True
    if kind == "events":
        bad = sum(1 for event in payload if validate_event(event))
        if bad:
            print(f"{path}: {bad} invalid event(s)", file=sys.stderr)
            return False
        print(f"{path}: OK ({len(payload)} events)")
        return True
    if kind == "metrics":
        problems = validate_metrics_json(payload)
        if problems:
            _print_problems(path, problems)
            return False
        print(f"{path}: OK ({len(payload['metrics'])} metric families)")
        return True
    if kind == "status":
        problems = validate_status(payload)
        if problems:
            _print_problems(path, problems)
            return False
        print(f"{path}: OK (state {payload['state']})")
        return True
    if kind == "bench":
        from ..bench.schema import validate_report

        problems = validate_report(payload)
        if problems:
            _print_problems(path, problems)
            return False
        print(f"{path}: OK ({len(payload['points'])} bench points)")
        return True
    print(f"{path}: unrecognized artifact", file=sys.stderr)
    return False


def _validate(paths: List[str]) -> int:
    failed = sum(0 if _validate_one(path) else 1 for path in paths)
    return 1 if failed else 0


def _summarize(paths: List[str]) -> int:
    status = 0
    for path in paths:
        counts: Counter = Counter()
        bad = 0
        last_cycle = 0
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if validate_event(event):
                    bad += 1
                    continue
                counts[event["e"]] += 1
                last_cycle = max(last_cycle, event["t"] + event.get("dur", 1) - 1)
        total = sum(counts.values())
        print(f"{path}: {total} events through cycle {last_cycle}")
        for kind in sorted(counts):
            print(f"  {kind:<14} {counts[kind]}")
        if bad:
            print(f"  INVALID        {bad}", file=sys.stderr)
            status = 1
    return status


def _dashboard(paths: List[str], out: str) -> int:
    from .dashboard import build_dashboard

    if not paths:
        from pathlib import Path

        paths = [str(p) for p in sorted(Path(".").glob("BENCH_*.json"))]
    model = build_dashboard(paths, out)
    rendered = (
        len(model["manifests"])
        + len(model["bench"])
        + len(model["metrics"])
        + len(model["status"])
    )
    print(f"dashboard written to {out} ({rendered} artifact(s) rendered)")
    for problem in model["problems"]:
        print(problem, file=sys.stderr)
    return 1 if model["problems"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or "-h" in args or "--help" in args:
        print(__doc__)
        return 0
    mode: Optional[str] = None
    out = "repro-dashboard.html"
    paths: List[str] = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--validate":
            mode = "validate"
        elif arg == "--summarize":
            mode = "summarize"
        elif arg == "--dashboard":
            mode = "dashboard"
        elif arg == "--out" or arg.startswith("--out="):
            flag, sep, value = arg.partition("=")
            if not sep:
                i += 1
                if i >= len(args):
                    print("--out requires a value", file=sys.stderr)
                    return 2
                value = args[i]
            out = value
        elif arg.startswith("-"):
            print(f"unknown option: {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
        i += 1
    if mode is None:
        print(
            "usage: python -m repro.obs --validate|--summarize|--dashboard "
            "[--out FILE] FILE [...]",
            file=sys.stderr,
        )
        return 2
    if mode == "dashboard":
        return _dashboard(paths, out)
    if not paths:
        print("no input files given", file=sys.stderr)
        return 2
    return _validate(paths) if mode == "validate" else _summarize(paths)


if __name__ == "__main__":
    raise SystemExit(main())
