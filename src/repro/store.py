"""One checksummed, content-addressed store: a directory of cache entries.

Both disk caches — the experiment engine's result cache and the
compiled-trace code cache — are a :class:`ContentStore`: one instance per
directory, owning everything that makes a shared cache directory safe.

* **Framing.**  Every entry is one header line (:data:`FORMAT_TAG` plus
  the sha256 of the body) followed by the unchanged body.  :meth:`get`
  verifies the checksum *before* the caller's decoder runs, so an entry
  that was torn, truncated, bit-flipped or edited — even one that still
  parses — is never served.  Entries written before framing existed fail
  the header check and are quarantined once, then rebuilt.
* **Atomic store.**  Writers stage through ``mkstemp`` and ``os.replace``,
  so concurrent processes never observe a half-written entry and a
  failed write leaves no temp file behind.
* **Quarantine.**  A bad entry is moved into ``quarantine/`` (kept for
  post-mortems) under an inode guard: only while the path still names
  the file that was read, so a valid entry a parallel writer just
  ``os.replace``d over it survives.
* **Degrade.**  :data:`STORE_ERROR_THRESHOLD` consecutive store
  ``OSError``s switch this directory to memory-only (no more writes), with
  one note instead of one error per entry.  The state is per instance, so
  a broken directory never stops writes to a healthy one.

Degradation events queue as ``(kind, detail)`` notes in the manifest
warning vocabulary (``cache_quarantine``, ``cache_degraded``); callers
drain them with :meth:`ContentStore.drain_notes` and forward them.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from .chaos import trip as chaos_trip

#: First token of every entry's header line.  Bump the trailing number
#: when the framing changes; older entries then fail the header check.
FORMAT_TAG = b"repro-store/1"

#: Consecutive store ``OSError``s before a directory goes memory-only.
STORE_ERROR_THRESHOLD = 3


class CorruptEntry(ValueError):
    """An entry whose header or checksum does not verify."""


def frame(body: bytes) -> bytes:
    """``body`` prefixed with its header line (format tag + sha256)."""
    digest = hashlib.sha256(body).hexdigest().encode()
    return FORMAT_TAG + b" " + digest + b"\n" + body


def unframe(data: bytes) -> bytes:
    """The verified body of a framed entry; raises :class:`CorruptEntry`."""
    header, _, body = data.partition(b"\n")
    tag, _, digest = header.partition(b" ")
    if tag != FORMAT_TAG:
        raise CorruptEntry("unknown entry format")
    if digest != hashlib.sha256(body).hexdigest().encode():
        raise CorruptEntry("checksum mismatch")
    return body


class ContentStore:
    """Checksummed entries ``<root>/<key><suffix>`` with quarantine and degrade.

    ``site`` names the cache in notes and prefixes its chaos injection
    sites (``<site>_read``, ``<site>_store``, ``<site>_write``).
    """

    def __init__(self, root: Union[str, os.PathLike], suffix: str, site: str):
        self.root = Path(root)
        self.suffix = suffix
        self.what = f"{site}-cache"
        self._sites = (f"{site}_read", f"{site}_store", f"{site}_write")
        #: Unreadable or corrupted entries and failed stores, in total.
        self.errors = 0
        self.quarantines = 0
        self.degraded = False
        self._failures = 0
        self._notes: List[Tuple[str, str]] = []

    def path(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    def drain_notes(self) -> List[Tuple[str, str]]:
        """Take (and clear) the pending ``(kind, detail)`` notes."""
        notes, self._notes = self._notes, []
        return notes

    def get(self, key: str, decode: Callable[[bytes], Any]) -> Optional[Any]:
        """``decode(body)`` of the entry under ``key``; None on miss or damage.

        A missing entry is a plain miss.  One that fails the header check,
        the checksum or ``decode`` is quarantined and reported as a miss,
        so the caller rebuilds it.
        """
        path = self.path(key)
        chaos_trip(self._sites[0], key, path=str(path))
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return None
        except OSError:
            self.errors += 1
            return None
        with fh:
            try:
                return decode(unframe(fh.read()))
            except Exception as exc:
                why = str(exc) if isinstance(exc, CorruptEntry) else "undecodable body"
                self.errors += 1
                if self.quarantine(path, fh):
                    self.quarantines += 1
                    self._notes.append((
                        "cache_quarantine",
                        f"corrupted {self.what} entry {path.name} moved to "
                        f"quarantine/ ({why}); it will be rebuilt",
                    ))
                return None

    def put(self, key: str, body: bytes) -> bool:
        """Atomically store ``body`` under ``key``; False if not stored.

        Never raises ``OSError``: a read-only or full directory must not
        fail the run that produced the entry.
        """
        if self.degraded:
            return False
        path = self.path(key)
        try:
            chaos_trip(self._sites[1], key)
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=f".{key[:16]}.", suffix=".tmp"
            )
        except OSError:
            self._store_failed()
            return False
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(frame(body))
            os.replace(tmp, path)
        except OSError:
            # mkstemp names are unique per call, so a temp file left by a
            # failed write or rename would pile up forever: remove it.
            self._store_failed()
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._failures = 0
        chaos_trip(self._sites[2], key, path=str(path))
        return True

    def _store_failed(self) -> None:
        self.errors += 1
        self._failures += 1
        if self._failures >= STORE_ERROR_THRESHOLD and not self.degraded:
            self.degraded = True
            self._notes.append((
                "cache_degraded",
                f"{self._failures} consecutive {self.what} store errors "
                f"({self.root}); its entries are now memory-only",
            ))

    @staticmethod
    def quarantine(path: Path, fh) -> bool:
        """Move ``path`` into ``quarantine/`` only while it is the file open as ``fh``.

        Falls back to a guarded unlink when the quarantine directory
        cannot be used.  Returns True when the bad file no longer occupies
        ``path``.
        """
        try:
            opened = os.fstat(fh.fileno())
            current = os.stat(path)
            if (opened.st_dev, opened.st_ino) != (current.st_dev, current.st_ino):
                return False
            quarantine_dir = path.parent / "quarantine"
            try:
                quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(path, quarantine_dir / path.name)
            except OSError:
                os.unlink(path)
            return True
        except OSError:
            return False
