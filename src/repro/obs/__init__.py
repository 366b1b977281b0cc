"""``repro.obs`` — opt-in observability: engine tracing + run telemetry.

Three layers, lowest first:

* :mod:`repro.obs.events` — :class:`TraceEvents`, the raw per-iteration
  arrays the engine's event loop records when ``SimConfig.trace=True``
  (queue-enter times, dispatch-time queue depths, per-chunk wire
  occupancies). Zero overhead when off: the flag gates every write and
  tracing consumes no RNG, so traced and untraced runs are bit-identical.
* :mod:`repro.obs.trace` — :class:`Trace`, the joined view over one
  traced iteration (events + core topology + schedule ranks) with the
  reductions the paper's analysis needs: per-link utilization timelines,
  queue-depth histograms, comm/comp overlap fraction, critical-path
  attribution, and scheduler diagnostics (priority inversions, per-job
  starvation under job mixes).
* :mod:`repro.obs.export` — exporters: Chrome trace-event JSON (loads in
  Perfetto / ``chrome://tracing``) and a tidy per-op CSV/row table, plus
  a schema validator CI runs against every emitted file.

:mod:`repro.obs.telemetry` is the sibling subsystem for *run*-level
observability: structured counters (cells executed, cache hits, graph,
wizard and variant memo hits, wall time) the sweep runner emits and
``ResultSet.telemetry`` surfaces. :mod:`repro.obs.capture` holds the
``tictac-repro trace`` entry point that runs one scenario cell traced
and writes the exporter outputs.

This package is intentionally *above* the simulation layers: nothing in
``repro.sim``/``repro.sweep`` imports it except the tiny
:class:`TraceEvents` container, and it is not part of the sweep cache's
code fingerprint — editing an exporter never invalidates cached results.
"""

from __future__ import annotations

from .events import TraceEvents

__all__ = [
    "TraceEvents",
    "Trace",
    "Telemetry",
    "EXPORTERS",
    "UnknownExporterError",
    "capture_trace",
    "chrome_trace",
    "trace_rows",
    "validate_chrome_trace",
]


def __getattr__(name: str):
    # Lazy re-exports: keep `repro.sim.engine`'s import of TraceEvents
    # from dragging the reduction/export/capture layers (and their
    # transitive repro.api imports) into every engine import.
    if name == "Trace":
        from .trace import Trace

        return Trace
    if name == "Telemetry":
        from .telemetry import Telemetry

        return Telemetry
    if name in ("EXPORTERS", "UnknownExporterError", "chrome_trace",
                "trace_rows", "validate_chrome_trace"):
        from . import export

        return getattr(export, name)
    if name == "capture_trace":
        from .capture import capture_trace

        return capture_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
