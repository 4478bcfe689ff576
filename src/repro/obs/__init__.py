"""Observability: tracing spans, a metrics registry, exportable timelines.

Zero-dependency instrumentation for the campaign pipeline, driven by the
*simulated* clock so every artifact is deterministic for a fixed seed:

* :mod:`repro.obs.tracing` — nested spans (campaign → participant →
  integrated page → exchange) with seeded-run-safe ids; participants
  build detached subtrees that are adopted in roster order, so the tree is
  bit-identical at any parallelism level.
* :mod:`repro.obs.metrics` — counters, gauges, histograms and
  exception-safe wall timers.
* :mod:`repro.obs.timeline` — a :class:`~repro.obs.timeline.RunTimeline`
  exporter emitting Chrome trace-event JSON plus a human-readable text
  report, and the schema validator CI runs over the artifact.

:class:`Observability` is the bundle a campaign threads through its
components. Either way it carries a campaign-private
:class:`~repro.obs.metrics.MetricsRegistry`, so one campaign's counts never
leak into another's; an enabled bundle adds a live :class:`~repro.obs.
tracing.Tracer`, a disabled one the shared :data:`~repro.obs.tracing.
NULL_TRACER`, making the tracing-off path byte-identical to the
pre-observability pipeline.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    TraceClock,
    Tracer,
)


class Observability:
    """The tracer + metrics pair one campaign threads through its parts."""

    def __init__(self, tracer, metrics: MetricsRegistry):
        self.tracer = tracer
        self.metrics = metrics

    @property
    def enabled(self) -> bool:
        return bool(getattr(self.tracer, "enabled", False))

    @classmethod
    def enabled_for(cls, clock: Callable[[], float]) -> "Observability":
        """A live bundle: real tracer on ``clock``, private registry."""
        return cls(Tracer(clock), MetricsRegistry())

    @classmethod
    def disabled(cls) -> "Observability":
        """The untraced bundle: null tracer, private registry."""
        return cls(NULL_TRACER, MetricsRegistry())

    def trace_root(self) -> Optional[Span]:
        """The run's single root span.

        A campaign usually records several top-level spans (``prepare``,
        then the ``campaign`` run itself); they are stitched under one
        synthetic ``run`` span so an exported timeline is always one tree.
        """
        roots = list(getattr(self.tracer, "roots", None) or [])
        if not roots:
            return None
        if len(roots) == 1:
            return roots[0]
        run = Span("run", start=roots[0].start, category="campaign")
        end = roots[0].start
        for root in roots:
            run.adopt(root)
            end = max(end, root.end if root.end is not None else root.start)
        run.finish(end)
        return run

    def timeline(self, meta: Optional[dict] = None):
        """Export the recorded run (raises if nothing was traced)."""
        from repro.obs.timeline import RunTimeline

        return RunTimeline(self.trace_root(), self.metrics, meta=meta)


def __getattr__(name):
    # RunTimeline/validate_trace_events load lazily so that
    # ``python -m repro.obs.timeline`` (the CI schema check) does not import
    # the timeline module twice under different names.
    if name in ("RunTimeline", "validate_trace_events"):
        from repro.obs import timeline as _timeline

        return getattr(_timeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GLOBAL_METRICS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "RunTimeline",
    "Span",
    "SpanEvent",
    "TraceClock",
    "Tracer",
    "validate_trace_events",
]
