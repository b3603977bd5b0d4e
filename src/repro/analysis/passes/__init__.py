"""simcheck analysis passes: determinism, reset-completeness, hot-path, drift.

Every rule they report is catalogued in :data:`repro.analysis.rules.RULES`;
:func:`run_project_passes` is the ``--check-all`` entry point.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

from ..callgraph import CallGraph
from ..project import ProjectModel, build_project
from ..rules import Finding, check_tree
from .base import AnalysisContext, AnalysisPass
from .drift import DriftPass
from .hotpath import HotPathPass
from .reset import ResetCompletenessPass


class DeterminismPass(AnalysisPass):
    """RPR000 for files that do not parse, RPR001..RPR006 per module."""

    name = "determinism"

    def run(self, ctx: AnalysisContext) -> None:
        for path, exc in ctx.project.parse_errors.items():
            ctx.add(
                "RPR000",
                path,
                exc.lineno or 1,
                f"syntax error: {exc.msg}",
                col=(exc.offset or 1) - 1,
            )
        for module in ctx.project.modules.values():
            for raw in check_tree(module.tree):
                ctx.add(raw.rule_id, module.path, raw.line, raw.message, col=raw.col)


ALL_PASSES: Tuple[AnalysisPass, ...] = (
    DeterminismPass(),
    ResetCompletenessPass(),
    HotPathPass(),
    DriftPass(),
)


def run_project_passes(root: Path) -> Tuple[ProjectModel, List[Finding]]:
    """Build the project model once and run every pass over it."""
    project = build_project(root)
    graph = CallGraph(project)
    ctx = AnalysisContext(project=project, graph=graph)
    for analysis_pass in ALL_PASSES:
        analysis_pass.run(ctx)
    ctx.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return project, ctx.findings


__all__ = [
    "ALL_PASSES",
    "AnalysisContext",
    "AnalysisPass",
    "DeterminismPass",
    "DriftPass",
    "HotPathPass",
    "ResetCompletenessPass",
    "run_project_passes",
]
