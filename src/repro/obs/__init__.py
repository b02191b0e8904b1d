"""Observability subsystem: metrics, tracing, and decision audit.

Zero-dependency instrumentation for the Sinan reproduction, in three
pillars plus a dispatch handle:

* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms with O(1) record, exported as Prometheus text or JSON;
* :mod:`repro.obs.tracing` — spans on explicit simulation-time clocks,
  exported as JSONL or Chrome ``trace_event`` JSON (Perfetto-loadable);
* :mod:`repro.obs.audit` — one structured record per scheduler
  decision in a bounded ring buffer, inspectable via ``repro audit``;
* :mod:`repro.obs.recorder` — the :class:`Recorder` handle every
  instrumented component reports through.  The default is a shared
  no-op (:data:`NULL_RECORDER`): with observability off, instrumented
  code paths produce bitwise-identical outputs and their overhead is a
  single attribute check per report site.

Attach an :class:`ActiveRecorder` with :func:`attach_recorder` (or the
``recorder`` keyword of the episode runners / ``repro run --trace``)
to collect everything for one episode.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "ArbitrationRecord": "repro.obs.audit",
    "AuditLog": "repro.obs.audit",
    "AuditRecord": "repro.obs.audit",
    "DivergenceRecord": "repro.obs.audit",
    "ModelEventRecord": "repro.obs.audit",
    "explain": "repro.obs.audit",
    "format_audit_table": "repro.obs.audit",
    "record_from_json": "repro.obs.audit",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "DEFAULT_BUCKETS": "repro.obs.metrics",
    "Recorder": "repro.obs.recorder",
    "ActiveRecorder": "repro.obs.recorder",
    "TenantRecorder": "repro.obs.recorder",
    "NULL_RECORDER": "repro.obs.recorder",
    "attach_recorder": "repro.obs.recorder",
    "Span": "repro.obs.tracing",
    "Tracer": "repro.obs.tracing",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
