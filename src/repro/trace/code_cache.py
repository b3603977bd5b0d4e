"""Content-addressed disk cache for compiled kernel traces.

Synthesizing a kernel trace from its :class:`~repro.workloads.AppProfile`
and lowering it to :class:`~repro.trace.compiled.CompiledWarp` form is pure
per-app work, yet an experiment grid repeats it for every (app, design)
point: 13 designs sharing ``cg-lou`` synthesize the identical trace 13
times.  This module stores the finished artifact — the ``KernelTrace``
with its compiled code and prewarmed bank tables attached — as a pickle
keyed by everything that determines its content:

* :data:`CODE_VERSION` (the compiled representation's own schema),
* ``PROFILE_VERSION`` (the profile → trace synthesis pipeline version),
* the full profile payload,
* the bank-mapping name and bank count (they shape the pre-resolved
  bank tables).

Changing any of these changes the key, so stale entries are simply never
addressed again — invalidation by construction, same discipline as the
experiment engine's result cache.

Location: ``$REPRO_TRACE_CACHE_DIR`` when set, else
``~/.cache/repro-sim/trace-code``.  Each directory is one
:class:`~repro.store.ContentStore`, which frames every pickle with a
checksum, writes atomically, quarantines damaged entries and degrades to
memory-only compilation after repeated store errors — per directory, so
a broken directory never stops stores to a healthy one.  Engine workers
drain the stores' notes (:func:`drain_notes`) and ship them to the
parent, which deduplicates them into structured manifest warnings.

This module deliberately knows nothing about :mod:`repro.workloads` (which
imports :mod:`repro.trace`); callers pass the key material and a builder.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..store import ContentStore

#: Schema version of the compiled-trace artifact.  Bump whenever
#: :class:`~repro.trace.compiled.CompiledWarp`'s layout or the pickled
#: artifact changes; old entries then miss instead of unpickling garbage.
#: 2: entries are framed by :mod:`repro.store` (no pickled envelope).
CODE_VERSION = 2

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_TRACE_CACHE_DIR"

#: One store per cache directory used by this process.
_STORES: Dict[Path, ContentStore] = {}


def _store(cache_dir: Path) -> ContentStore:
    store = _STORES.get(cache_dir)
    if store is None:
        store = ContentStore(cache_dir, ".code.pkl", "code")
        _STORES[cache_dir] = store
    return store


def drain_notes() -> List[Tuple[str, str]]:
    """Take (and clear) this process's pending degradation notes."""
    return [note for store in _STORES.values() for note in store.drain_notes()]


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-sim" / "trace-code"


def code_key(
    profile_version: int,
    profile_payload: Mapping[str, Any],
    mapping_name: str,
    num_banks: int,
) -> str:
    """Content hash addressing one compiled kernel on disk."""
    material = json.dumps(
        {
            "code_version": CODE_VERSION,
            "profile_version": profile_version,
            "profile": dict(profile_payload),
            "bank_mapping": mapping_name,
            "num_banks": num_banks,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(material.encode()).hexdigest()


def load_compiled(cache_dir: Path, key: str) -> Optional[Any]:
    """The cached artifact for ``key``, or None on a miss.

    Damaged entries are quarantined by the store and the artifact
    recompiles.
    """
    return _store(Path(cache_dir)).get(key, pickle.loads)


def store_compiled(cache_dir: Path, key: str, artifact: Any) -> None:
    """Persist ``artifact`` under ``key`` (best-effort, never raises OSError)."""
    _store(Path(cache_dir)).put(key, pickle.dumps(artifact, protocol=4))


def get_or_build(
    cache_dir: Optional[Path],
    key: str,
    builder: Callable[[], Any],
) -> Tuple[Any, str]:
    """Load ``key`` from ``cache_dir`` or build and store it.

    Returns ``(artifact, source)`` with source ``"disk"`` on a cache hit
    and ``"compile"`` on a build.  ``cache_dir=None`` disables the disk
    layer entirely (always compiles, stores nothing).
    """
    if cache_dir is not None:
        artifact = load_compiled(cache_dir, key)
        if artifact is not None:
            return artifact, "disk"
    artifact = builder()
    if cache_dir is not None:
        store_compiled(cache_dir, key, artifact)
    return artifact, "compile"
