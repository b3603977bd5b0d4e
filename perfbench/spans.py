"""Span recording around the simulator's public functions, from outside.

The benchmark never edits ``src/``: :class:`SpanRecorder` replaces a
function or method on its owning module or class with a timing wrapper
and puts the original back on :meth:`SpanRecorder.uninstall`.  Only the
call sites that look the name up at call time see the wrapper, which is
every call site the benchmark wraps (module globals and class methods).

Two kinds of wrapper exist because the per-cycle functions run millions
of times per workload:

* *full* spans (engine, workloads, trace, ``gpu.simulate``/``tb_fill``,
  metrics) are each kept in memory as ``(id, name, start, end, parent,
  point)``;
* *hot* spans (``core.*``, ``gpu.next_event``, ``gpu.skip``,
  ``memory.access``) only add to per-name call and self-time totals; they
  are written out as one aggregate record per point and name, whose
  parent is that point's scope span.

A span's self time is its duration minus the time covered by its child
spans, so self times never double count and their sum stays within the
traced wall time.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter


class SpanRecorder:
    """Wraps functions with span timing; keeps spans and totals in memory."""

    def __init__(self) -> None:
        #: Full spans: (id, name, start, end, parent id, point id).
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[str]]] = []
        #: Hot-span aggregates written per point: (point scope id, point,
        #: name, calls, self seconds).
        self.hot_records: List[Tuple[Optional[int], Optional[str], str, int, float]] = []
        #: name -> [calls, self seconds], over every span of that name.
        self.totals: Dict[str, List[float]] = {}
        # Open spans, innermost last: [id, start, child seconds].
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._hot_names: List[str] = []
        self._point: Optional[str] = None
        self._point_span: Optional[int] = None
        self._next_id = 0

    # -- installation --------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str, hot: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Class attributes keep their descriptor kind: a ``classmethod`` is
        re-wrapped as one, so ``SimStats.from_payload`` still receives the
        class.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        self.totals.setdefault(name, [0, 0.0])
        if hot:
            if name not in self._hot_names:
                self._hot_names.append(name)
            wrapper = self._hot_wrapper(fn, name)
        else:
            wrapper = self._full_wrapper(fn, name)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, original))

    def scope(self, owner: Any, attr: str, name: str, point_of: Callable[..., str]) -> None:
        """Wrap a per-point entry: a full span that also sets the point id.

        Every span opened while the scope runs carries ``point_of(*args)``
        as its point id, and hot totals accrued inside it are written as
        that point's aggregate records when it ends.
        """
        original = getattr(owner, attr)
        self.totals.setdefault(name, [0, 0.0])
        inner = self._full_wrapper(original, name)

        def scoped(*args, **kwargs):
            outer = (self._point, self._point_span)
            self._point = point_of(*args, **kwargs)
            self._point_span = self._next_id
            before = {n: tuple(self.totals[n]) for n in self._hot_names}
            try:
                return inner(*args, **kwargs)
            finally:
                for n in self._hot_names:
                    calls, secs = self.totals[n]
                    c0, s0 = before[n]
                    if calls != c0:
                        self.hot_records.append(
                            (self._point_span, self._point, n, int(calls - c0), secs - s0)
                        )
                self._point, self._point_span = outer

        setattr(owner, attr, scoped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _full_wrapper(self, fn: Callable, name: str) -> Callable:
        stack = self._stack
        spans = self.spans
        total = self.totals[name]

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, _now(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - frame[1]
                total[0] += 1
                total[1] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                spans.append((span_id, name, frame[1], end, parent, self._point))

        return wrapper

    def _hot_wrapper(self, fn: Callable, name: str) -> Callable:
        stack = self._stack
        total = self.totals[name]

        def wrapper(*args, **kwargs):
            frame = [None, _now(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _now() - frame[1]
                stack.pop()
                total[0] += 1
                total[1] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return wrapper

    # -- output --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals[name][0])

    def self_seconds(self, name: str) -> float:
        return float(self.totals[name][1])

    def write(self, path: Path) -> None:
        """Write every kept span and hot aggregate as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, point in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "point": point,
                }) + "\n")
            for parent, point, name, calls, secs in self.hot_records:
                fh.write(json.dumps({
                    "name": name, "aggregate": True, "calls": calls,
                    "self_s": secs, "parent": parent, "point": point,
                }) + "\n")
