"""Flow-wide observability: structured tracing, phase metrics, run reports.

Library code instruments itself through the module-level helpers here --
:func:`span`, :func:`add`, :func:`gauge`, :func:`watch`, :func:`checkpoint`
-- which are no-ops unless a :class:`Tracer` is installed for the current
context via :func:`tracing`:

    from repro import observe
    from repro.observe import Budget, Tracer, build_report

    tracer = Tracer(budgets={"synthesize": Budget(seconds=300)})
    with observe.tracing(tracer):
        with observe.span("synthesize"):
            result = synthesize(net, config)
    report = build_report(tracer, meta={"circuit": net.name})

The installed tracer is held in a :class:`contextvars.ContextVar`, so
nested or concurrent flows cannot observe each other.  Disabled calls cost
one context-variable read; enabling tracing never changes any algorithmic
decision (see ``tests/observe/test_tracer.py`` for the determinism check).

See ``docs/OBSERVABILITY.md`` for the span model, the report schema, and
budget semantics.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.errors import BudgetExceeded
from repro.observe.report import (
    ReportSchemaError,
    SCHEMA_ID,
    build_report,
    flatten_phases,
    format_tree,
    validate_report,
)
from repro.observe.stats import BddStats
from repro.observe.tracer import Budget, Span, Tracer

__all__ = [
    "BddStats",
    "Budget",
    "BudgetExceeded",
    "ReportSchemaError",
    "SCHEMA_ID",
    "Span",
    "Tracer",
    "add",
    "build_report",
    "checkpoint",
    "current",
    "enabled",
    "failure",
    "flatten_phases",
    "format_tree",
    "gauge",
    "span",
    "tracing",
    "validate_report",
    "watch",
]

_TRACER: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)


class _NullSpan:
    """Reusable no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def current() -> Tracer | None:
    """The tracer installed for this context, or None."""
    return _TRACER.get()


def enabled() -> bool:
    """True when a tracer is installed (guard for costly-to-compute metrics)."""
    return _TRACER.get() is not None


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the current tracer for the duration."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


def span(name: str):
    """Open the named span on the current tracer (no-op when disabled)."""
    tracer = _TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name)


def add(name: str, value: int | float = 1) -> None:
    """Accumulate a counter on the innermost open span (no-op when disabled)."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.add(name, value)


def gauge(name: str, value: int | float) -> None:
    """Record a high-water mark on the innermost open span."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.gauge(name, value)


def failure(**fields: int | float | str) -> None:
    """Record a structured task-failure event (no-op when disabled)."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.failure(**fields)


def watch(bdd) -> None:
    """Register a BDD manager for node/cache delta accounting."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.watch(bdd)


def checkpoint() -> None:
    """Enforce the budgets of every open span (no-op when disabled)."""
    tracer = _TRACER.get()
    if tracer is not None:
        tracer.checkpoint()
