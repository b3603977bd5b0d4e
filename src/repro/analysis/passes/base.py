"""Shared plumbing for simcheck v2 analysis passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from ..callgraph import CallGraph
from ..project import ProjectModel
from ..rules import Finding


@dataclass
class AnalysisContext:
    """One ``--check-all`` run's shared state.

    Passes append :class:`Finding`\\ s through :meth:`add` (which de-dupes
    identical findings re-derived through different subclasses) and record
    each ``# simcheck:`` annotation they honour through :meth:`use` so the
    hygiene check can flag stale annotations afterwards.
    """

    project: ProjectModel
    graph: CallGraph
    findings: List[Finding] = field(default_factory=list)
    used_annotations: Set[Tuple[str, int]] = field(default_factory=set)
    _seen: Set[Tuple[str, str, int, int, str]] = field(default_factory=set)

    def add(self, rule_id: str, path: str, line: int, message: str, col: int = 0) -> None:
        key = (rule_id, path, line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(rule_id, path, line, col, message))

    def use(self, module: str, line: int) -> None:
        self.used_annotations.add((module, line))

    def used(self, module: str, line: int) -> bool:
        return (module, line) in self.used_annotations


class AnalysisPass:
    """Base class: a named whole-program check."""

    name: str = "pass"

    def run(self, ctx: AnalysisContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError
