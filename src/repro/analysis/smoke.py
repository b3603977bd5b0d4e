"""The sanitizer smoke grid: representative workloads × designs.

CI's dynamic correctness gate.  Every point in the grid is simulated
twice — once with the invariant sanitizer installed, once without — and
the gate requires both that no :class:`~repro.analysis.InvariantViolation`
fires and that the two runs' serialized stats are byte-identical (the
sanitizer's read-only contract).

The default grid crosses three workloads that exercise different model
paths (a barrier-free graph kernel, a shared-memory GEMM, a TPC-H
compressed-stream query) with the three assignment/scheduling designs the
paper's figures lean on ({RR baseline, SRR, RBA}).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

#: Workloads chosen to cover distinct model paths: cg-lou (register-bank
#: pressure, no barriers), pb-sgemm (shared memory + barriers), tpcU-q8
#: (the paper's imbalanced TPC-H shape).
DEFAULT_APPS: Tuple[str, ...] = ("cg-lou", "pb-sgemm", "tpcU-q8")
#: RR baseline, skewed round-robin assignment, register-bank-aware issue.
DEFAULT_DESIGNS: Tuple[str, ...] = ("baseline", "srr", "rba")


@dataclass
class SmokePoint:
    app: str
    design: str
    cycles: int
    instructions: int
    checks_run: int
    bytes_identical: bool


@dataclass
class SmokeReport:
    points: List[SmokePoint] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.bytes_identical for p in self.points)

    def summary(self) -> str:
        lines = [
            f"{'app':<10} {'design':<10} {'cycles':>9} {'instructions':>13} "
            f"{'checks':>8}  stats"
        ]
        for p in self.points:
            verdict = "byte-identical" if p.bytes_identical else "DIVERGED"
            lines.append(
                f"{p.app:<10} {p.design:<10} {p.cycles:>9} "
                f"{p.instructions:>13} {p.checks_run:>8}  {verdict}"
            )
        status = "OK" if self.ok else "FAILED"
        lines.append(
            f"sanitize-smoke: {len(self.points)} point(s), "
            f"0 invariant violations, {status}"
        )
        return "\n".join(lines)


def run_smoke_grid(
    apps: Sequence[str] = DEFAULT_APPS,
    designs: Sequence[str] = DEFAULT_DESIGNS,
    num_sms: int = 1,
) -> SmokeReport:
    """Run the grid; raises InvariantViolation on the first failed check.

    Imports the simulator lazily so :mod:`repro.analysis` stays importable
    from :mod:`repro.core` without a cycle.
    """
    from ..experiments.designs import get_design
    from ..gpu import GPU, simulate
    from ..workloads import get_kernel

    report = SmokeReport()
    for app in apps:
        kernel = get_kernel(app)
        for design in designs:
            cfg = get_design(design)
            gpu = GPU(config=cfg.replace(sanitize=True), num_sms=num_sms)
            sanitized = gpu.run(kernel)
            checks = sum(
                sm.sanitizer.checks_run for sm in gpu.sms if sm.sanitizer is not None
            )
            plain = simulate(kernel, cfg, num_sms=num_sms)
            blob_sanitized = json.dumps(sanitized.to_payload(), sort_keys=True)
            blob_plain = json.dumps(plain.to_payload(), sort_keys=True)
            report.points.append(
                SmokePoint(
                    app=app,
                    design=design,
                    cycles=sanitized.cycles,
                    instructions=sanitized.instructions,
                    checks_run=checks,
                    bytes_identical=blob_sanitized == blob_plain,
                )
            )
    return report
