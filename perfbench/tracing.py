"""Spans around the flow's layers, recorded from outside the program.

:func:`instrument` replaces the coarse entry point of each layer, in the
module where its caller looks the name up, with a wrapper that opens a
span; leaving the context restores the originals.  Per-call kernels
(``algebraic_divide``, ``score_combo``, BDD apply) are never wrapped: they
run millions of times and would swamp the trace.

A span is ``[id, parent, name, start, end]`` on one :class:`Tracer`, which
keeps them in memory; ``run.py`` writes them out when the run ends.  The
self time of a span is its duration minus the durations of its children.

In the process executor the groups are mapped in worker processes, whose
spans never reach the parent: only parent-side spans are reported there.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

#: (module, attribute, span name): functions wrapped where callers find them.
FUNCTION_SPANS = (
    ("repro.algebraic.rugged", "eliminate", "algebraic.eliminate"),
    ("repro.algebraic.rugged", "extract_cubes", "algebraic.extract_cubes"),
    ("repro.algebraic.rugged", "extract_kernels", "algebraic.extract_kernels"),
    ("repro.algebraic.rugged", "simplify_nodes", "algebraic.simplify_nodes"),
    ("repro.algebraic.rugged", "sweep", "network.sweep"),
    ("repro.mapping.flow", "collapse", "collapse.collapse"),
    ("repro.mapping.flow", "prepare_synthesis", "engine.prepare"),
    ("repro.mapping.flow", "partition_outputs", "partitioning.partition_outputs"),
    ("repro.mapping.structural", "partial_collapse", "collapse.partial_collapse"),
    ("repro.mapping.structural", "partition_outputs", "partitioning.partition_outputs"),
    ("repro.partitioning.outputs", "trial_gain", "partitioning.trial_gain"),
    ("repro.partitioning.outputs", "choose_bound_set", "partitioning.choose_bound_set"),
    ("repro.partitioning.outputs", "decompose_multi", "imodec.decompose_multi_trial"),
    ("repro.engine.policies", "choose_bound_set", "partitioning.choose_bound_set"),
    ("repro.engine.policies", "decompose_multi", "imodec.decompose_multi_emit"),
    ("repro.imodec.decomposer", "chi_for_output", "imodec.chi"),
    ("repro.imodec.decomposer", "lmax", "imodec.lmax"),
)

#: (module, class, method, span name): methods wrapped on their class.
METHOD_SPANS = (
    ("repro.engine.executors", "Engine", "run_groups", "engine.run_groups"),
    ("repro.engine.executors", "ProcessExecutor", "submit_groups", "engine.submit"),
    ("repro.engine.executors", "ProcessExecutor", "collect_groups", "engine.collect_wait"),
)


class Tracer:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._bound_set_keys: set[tuple] = set()
        # Managers stay referenced until the pass ends, so an id() in a
        # repeat key can never be reused by a later manager.
        self._managers: dict[int, object] = {}

    def open(self, name: str) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def close(self, record: list) -> None:
        record[4] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def note_bound_set(self, bdd, key: tuple) -> None:
        """Count a ``choose_bound_set`` call and whether it repeats one."""
        self._managers.setdefault(id(bdd), bdd)
        full_key = (id(bdd), *key)
        self.counts["choose_bound_set_calls"] += 1
        if full_key in self._bound_set_keys:
            self.counts["choose_bound_set_repeats"] += 1
        else:
            self._bound_set_keys.add(full_key)

    def release(self) -> None:
        """Drop the references held for repeat detection."""
        self._managers.clear()
        self._bound_set_keys.clear()


class NullTracer:
    """The untraced stand-in: stage spans cost one ``nullcontext``."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _wrap(tracer: Tracer, name: str, fn, note=None):
    """``fn`` inside a span; ``note(args, kwargs)`` runs first when given."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if note is not None:
            note(args, kwargs)
        record = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(record)

    return wrapper


def _bound_set_note(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    def note(args, kwargs) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.note_bound_set(a["bdd"], (
            tuple(a["f_nodes"]), tuple(a["input_levels"]), a["bound_size"],
            a["strategy"], a["scorer"],
        ))

    return note


def _groups_note(tracer: Tracer, groups_at: int):
    def note(args, kwargs) -> None:
        tracer.counts["engine_groups"] += len(args[groups_at])

    return note


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point for the duration of the context."""
    saved: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            note = _bound_set_note(tracer, original) if attr == "choose_bound_set" else None
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, note))
        for module_name, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            # Engine.run_groups(self, groups); submit_groups(self, engine, groups)
            note = {
                "run_groups": _groups_note(tracer, 1),
                "submit_groups": _groups_note(tracer, 2),
            }.get(attr)
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        tracer.release()


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span: duration minus its children's durations."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def layer_totals(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Per span name: (inclusive seconds, calls), outermost occurrences only.

    A span nested inside another of the same name is counted as a call
    but its time is already inside the outer one.
    """
    names = {s[0]: s[2] for s in spans}
    parent = {s[0]: s[1] for s in spans}
    totals: dict[str, list] = {}
    for s in spans:
        entry = totals.setdefault(s[2], [0.0, 0])
        entry[1] += 1
        ancestor = parent[s[0]]
        while ancestor is not None and names[ancestor] != s[2]:
            ancestor = parent[ancestor]
        if ancestor is None:
            entry[0] += s[4] - s[3]
    return {name: (t, n) for name, (t, n) in totals.items()}
