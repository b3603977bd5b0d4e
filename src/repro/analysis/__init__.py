"""Static and dynamic correctness checking for the simulator ("simcheck").

Two layers, one contract (see ``docs/determinism.md`` and
``docs/static_analysis.md``):

* :mod:`repro.analysis.passes` — **whole-program analysis passes** over a
  shared project model (:mod:`~repro.analysis.project`) and call graph
  (:mod:`~repro.analysis.callgraph`): RPR0xx determinism (hash-ordered
  iteration, unkeyed sorts of sets, unseeded RNG, wall-clock reads,
  ``id()``/``hash()`` values, mutable default arguments — the hazard
  classes known to corrupt cycle-level results), RPR1xx hot-path
  discipline, RPR2xx reset-completeness and RPR3xx version/schema drift.
  One rule catalog (:mod:`~repro.analysis.rules`); findings export as
  text, GitHub annotations and SARIF (:mod:`~repro.analysis.sarif`).
* :mod:`repro.analysis.invariants` — an opt-in **runtime invariant
  sanitizer** (``GPUConfig.sanitize=True``) installing per-cycle
  conservation checks across the core model; violations raise a
  structured :class:`InvariantViolation` naming the cycle, SM, sub-core
  and counter.

Run them from the command line::

    python -m repro.analysis --check-all src/repro  # static gate (CI)
    python -m repro.analysis --sanitize-smoke       # dynamic gate (CI)

Only the sanitizer is imported here, because :mod:`repro.core` installs
it; the static passes and the smoke grid are imported by module.
"""

from .invariants import InvariantViolation, Sanitizer

__all__ = ["InvariantViolation", "Sanitizer"]
