"""Unified observability: run traces, metrics, spans, profiling, reports.

This package is the shared core the rest of the system instruments
against (the tentpole of the observability PRs):

* :mod:`repro.obs.core` — the :class:`MetricsRegistry`
  (counters/gauges/histograms) and the :class:`TraceDocument` base both
  trace formats serialize through;
* :mod:`repro.obs.context` — W3C-style :class:`TraceContext` (trace /
  span / parent ids on per-worker lanes) that crosses process pools;
  worker spans come home inside the pickled task outcome;
* :mod:`repro.obs.runtrace` — the ``repro-run-trace/v1`` document emitted
  by an instrumented :class:`repro.rtos.runtime.RtosRuntime`;
* :mod:`repro.obs.chrometrace` — export of run *and* build traces to
  Chrome trace-event JSON (opens in Perfetto / ``chrome://tracing``),
  with per-worker lanes on build traces;
* :mod:`repro.obs.profile` — the :class:`SiftProfile` collector for the
  BDD reordering loop, including engine-counter timelines;
* :mod:`repro.obs.schema` — the document formats: one spec table per
  format (trace documents, benchmark reports, the bench-history trend,
  fuzz and verify reports) and the rule engine that validates them;
* :mod:`repro.obs.history` — the ``repro-bench-history/v1`` merger and
  regression gate behind ``repro bench-history``;
* :mod:`repro.obs.report` — the shared reporter behind ``repro report``.

Spans themselves are recorded by :class:`repro.pipeline.trace.BuildTrace`.
Nothing here imports the rest of ``repro``, so any layer can depend on it.
"""

from .chrometrace import (
    build_chrome_trace_events,
    chrome_trace_events,
    to_build_chrome_trace,
    to_chrome_trace,
    write_build_chrome_trace,
    write_chrome_trace,
)
from .context import TraceContext, make_span_id, new_trace_id, span_id_lane
from .core import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceDocument,
    read_trace_file,
)
from .history import (
    build_history,
    check_history,
    flatten_metrics,
    load_reference,
    render_history,
)
from .profile import SiftProfile, SiftSample
from .report import (
    render_bdd_bench,
    render_build_report,
    render_difftest_report,
    render_difftest_repro,
    render_report,
    render_run_report,
    render_serve_bench,
    render_sim_bench,
    render_verify_report,
    report_file,
)
from .runtrace import RUN_EVENT_KINDS, RUN_TRACE_FORMAT, RunEvent, RunTrace
from .schema import (
    BDD_BENCH_FORMAT,
    BENCH_HISTORY_FORMAT,
    BUILD_TRACE_FORMAT,
    DIFFTEST_REPORT_FORMAT,
    DIFFTEST_REPRO_FORMAT,
    SERVE_BENCH_FORMAT,
    SIM_BENCH_FORMAT,
    VERIFY_REPORT_FORMAT,
    assert_valid_trace,
    validate_bdd_bench,
    validate_bench_history,
    validate_build_trace,
    validate_difftest_report,
    validate_difftest_repro,
    validate_run_trace,
    validate_serve_bench,
    validate_sim_bench,
    validate_trace,
    validate_verify_report,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceDocument",
    "read_trace_file",
    "TraceContext",
    "new_trace_id",
    "make_span_id",
    "span_id_lane",
    "RunTrace",
    "RunEvent",
    "RUN_TRACE_FORMAT",
    "RUN_EVENT_KINDS",
    "BUILD_TRACE_FORMAT",
    "BDD_BENCH_FORMAT",
    "SIM_BENCH_FORMAT",
    "SERVE_BENCH_FORMAT",
    "BENCH_HISTORY_FORMAT",
    "DIFFTEST_REPORT_FORMAT",
    "DIFFTEST_REPRO_FORMAT",
    "VERIFY_REPORT_FORMAT",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "build_chrome_trace_events",
    "to_build_chrome_trace",
    "write_build_chrome_trace",
    "SiftProfile",
    "SiftSample",
    "build_history",
    "check_history",
    "flatten_metrics",
    "load_reference",
    "render_history",
    "validate_build_trace",
    "validate_run_trace",
    "validate_bdd_bench",
    "validate_sim_bench",
    "validate_serve_bench",
    "validate_bench_history",
    "validate_difftest_report",
    "validate_difftest_repro",
    "validate_verify_report",
    "validate_trace",
    "assert_valid_trace",
    "render_build_report",
    "render_run_report",
    "render_difftest_report",
    "render_difftest_repro",
    "render_verify_report",
    "render_bdd_bench",
    "render_sim_bench",
    "render_serve_bench",
    "render_report",
    "report_file",
]
