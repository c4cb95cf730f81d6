"""``repro.obs`` — zero-dependency telemetry for the simulator.

Three complementary lenses on a run, all disabled (and near-free) by
default:

- **Metrics** (:mod:`repro.obs.metrics`): counters behind a global
  registry whose default is a shared no-op.
- **Span tracing** (:mod:`repro.obs.tracer`): nested, timed phases
  (graph build → trace generation → replay → per-edgeMap sweeps)
  exported as Chrome trace-event JSON for Perfetto/``chrome://tracing``.
- **Windowed timelines** (:mod:`repro.obs.timeline`): every N replay
  events, a snapshot of hit rates, traffic, DRAM bandwidth, and
  offload counts — a phase-resolved time series attached (as
  percentiles) to the run manifest.

Plus the regression gate built on top of the manifests
(:mod:`repro.obs.manifest_diff`, surfaced as ``repro report``) and the
package's logging setup (:mod:`repro.obs.logsetup`).
"""

from repro.obs.attribution import (
    ATTRIBUTED_FIELDS,
    ATTRIBUTION_SCHEMA,
    CLASS_NAMES,
    AttributionAccumulator,
    AttributionSpec,
    explain_lines,
)
from repro.obs.ledger import (
    ENV_LEDGER,
    LEDGER_SCHEMA,
    append_entry,
    filter_entries,
    format_history,
    make_entry,
    read_entries,
)
from repro.obs.logsetup import LOG_LEVELS, configure_logging
from repro.obs.manifest_diff import (
    TRACKED_METRICS,
    DiffResult,
    MetricDelta,
    diff_manifests,
    format_report,
    load_manifest,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    percentile,
    set_registry,
    summarize,
    use_registry,
)
from repro.obs.timeline import ReplaySampler, Timeline, TIMELINE_SCHEMA
from repro.obs.tracer import (
    NULL_TRACER,
    CounterRecord,
    NullTracer,
    SpanRecord,
    SpanTracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "ATTRIBUTED_FIELDS",
    "ATTRIBUTION_SCHEMA",
    "CLASS_NAMES",
    "AttributionAccumulator",
    "AttributionSpec",
    "explain_lines",
    "ENV_LEDGER",
    "LEDGER_SCHEMA",
    "append_entry",
    "filter_entries",
    "format_history",
    "make_entry",
    "read_entries",
    "LOG_LEVELS",
    "configure_logging",
    "TRACKED_METRICS",
    "DiffResult",
    "MetricDelta",
    "diff_manifests",
    "format_report",
    "load_manifest",
    "NULL_REGISTRY",
    "Counter",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "percentile",
    "set_registry",
    "summarize",
    "use_registry",
    "ReplaySampler",
    "Timeline",
    "TIMELINE_SCHEMA",
    "NULL_TRACER",
    "CounterRecord",
    "NullTracer",
    "SpanRecord",
    "SpanTracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
