"""Observability for the simulator (``repro.obs``).

Three layers, one contract (everything here is deterministic and
zero-overhead when off):

* **event tracing** — :class:`Tracer` collects cycle-attributed model
  events (warp issue/stall/barrier/exit, CTA launch/retire, collector-
  unit occupancy, bank conflicts, memory accesses) through hooks in the
  core model; :mod:`repro.obs.chrome_trace` exports them as Perfetto-
  loadable Chrome-trace JSON plus a compact JSONL stream;
* **stall attribution** — the top-down issue-slot taxonomy of
  :mod:`repro.obs.stall`, accumulated per sub-core into
  :class:`~repro.metrics.SMStats` when ``GPUConfig.stall_attribution``
  is set, conservation-checked by the runtime sanitizer;
* **run telemetry** — :class:`RunManifest`, the experiment engine's
  per-run JSONL audit log (cache hit/miss, wall time, worker id, stats
  digest, structured warnings), schema-versioned, validated and
  crash-safe (see ``docs/robustness.md``);
* **run metrics** — :class:`MetricsRegistry` (counters, gauges,
  histograms with label sets) exported as Prometheus text exposition and
  canonical JSON, plus the :class:`Heartbeat` status.json writer for
  live run health;
* **dashboard** — ``python -m repro.obs --dashboard`` renders one
  static HTML report merging manifests, stall attribution, metrics,
  status and the committed ``BENCH_*.json`` trajectory.

CLI::

    python -m repro <figure> --trace [--trace-dir DIR] [--trace-cycles N]
    python -m repro --trace --profile-report APP[:DESIGN]
    python -m repro.obs --validate TRACE.json MANIFEST.jsonl ...  # CI gate
    python -m repro.obs --dashboard --out report.html [INPUTS...]

See ``docs/observability.md`` for the event schema, the taxonomy
definitions, the exposition grammar, and how to open traces in Perfetto.
"""

from .chrome_trace import (
    chrome_trace,
    dumps_chrome_trace,
    iter_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from .events import EVENT_FIELDS, EVENT_KINDS, validate_chrome_trace, validate_event
from .heartbeat import STATUS_SCHEMA_VERSION, Heartbeat, read_status, validate_status
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    read_manifest,
    stats_digest,
    validate_manifest,
    validate_manifest_record,
)
from .metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
    record_stats_metrics,
    validate_metrics_json,
    validate_prometheus_text,
)
from .stall import STALL_BUCKETS, empty_buckets, merge_buckets
from .tracer import Tracer

__all__ = [
    "Counter",
    "EVENT_FIELDS",
    "EVENT_KINDS",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "MANIFEST_SCHEMA_VERSION",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "RunManifest",
    "STALL_BUCKETS",
    "STATUS_SCHEMA_VERSION",
    "Tracer",
    "chrome_trace",
    "dumps_chrome_trace",
    "empty_buckets",
    "iter_jsonl",
    "merge_buckets",
    "parse_prometheus_text",
    "read_manifest",
    "read_status",
    "record_stats_metrics",
    "stats_digest",
    "validate_chrome_trace",
    "validate_event",
    "validate_manifest",
    "validate_manifest_record",
    "validate_metrics_json",
    "validate_prometheus_text",
    "write_chrome_trace",
    "write_events_jsonl",
]
