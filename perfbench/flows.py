"""One pass of a workload: every circuit from text to a packed netlist.

A pass calls only public ``repro`` functions, in the order a user's
``repro synth`` run does:

- ``collapsed-imodec``: parse, ``synthesize``, ``verify_flow``,
  ``pack_xc3000``, circuit by circuit, serial executor;
- ``rugged-structural``: parse, ``rugged``, ``synthesize_structural``,
  ``verify_flow_sim``, ``pack_xc3000``, circuit by circuit;
- ``batch-process``: parse all, ``synthesize_batch`` with the process
  executor and two jobs, then ``verify_flow`` and ``pack_xc3000`` each.

Stage spans (``io.parse``, ``algebraic.rugged``, ``map``, ``verify.*``,
``pack.xc3000``) open under one ``pass`` span; with a
:class:`~perfbench.tracing.NullTracer` they cost nothing worth measuring.

Each circuit of a serial workload, and the whole batch of ``batch-process``,
runs inside one ``memory.unit()`` of a :class:`~perfbench.memory.UnitPeaks`
when one is given, which records that unit's peak resident memory.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from perfbench.circuits import Circuit

#: Engine width of the ``batch-process`` workload (the host has two CPUs).
BATCH_JOBS = 2


@dataclass
class Outcome:
    """What one circuit produced in one pass."""

    name: str
    result: object = None  # repro FlowResult, None when the circuit raised
    clbs: int = 0
    own_verified: bool = False
    error: str | None = None
    restructured: object = None  # the network after rugged, when run


@dataclass
class PassResult:
    wall_s: float
    outcomes: list[Outcome] = field(default_factory=list)


def config_for(workload: str):
    from repro.mapping.flow import FlowConfig

    if workload == "batch-process":
        return FlowConfig(executor="process", jobs=BATCH_JOBS)
    return FlowConfig()


def run_pass(workload: str, circuits: list[Circuit], tracer, memory=None) -> PassResult:
    """Run every circuit of ``workload`` once; time the whole pass.

    ``memory``, a :class:`~perfbench.memory.UnitPeaks`, records the peak
    resident memory of each unit of work when given.
    """
    runner = {
        "collapsed-imodec": _collapsed,
        "rugged-structural": _rugged,
        "batch-process": _batch,
    }[workload]
    config = config_for(workload)
    unit = memory.unit if memory is not None else contextlib.nullcontext
    start = time.perf_counter()
    with tracer.span("pass"):
        outcomes = runner(circuits, config, tracer, unit)
    return PassResult(time.perf_counter() - start, outcomes)


def _parse(circuit: Circuit, tracer):
    from repro.io import parse_network

    with tracer.span("io.parse"):
        return parse_network(circuit.text, name=circuit.name, fmt="blif")


def _pack(outcome: Outcome, tracer) -> None:
    from repro.mapping.xc3000 import pack_xc3000

    with tracer.span("pack.xc3000"):
        outcome.clbs = pack_xc3000(outcome.result.network).num_clbs


def _collapsed(circuits, config, tracer, unit) -> list[Outcome]:
    from repro.mapping.flow import synthesize, verify_flow

    outcomes = []
    for circuit in circuits:
        outcome = Outcome(circuit.name)
        with unit():
            try:
                net = _parse(circuit, tracer)
                with tracer.span("map"):
                    outcome.result = synthesize(net, config)
                with tracer.span("verify.exact"):
                    outcome.own_verified = verify_flow(net, outcome.result)
                _pack(outcome, tracer)
            except Exception as exc:  # a failing circuit is counted, not fatal
                outcome.error = f"{type(exc).__name__}: {exc}"
        outcomes.append(outcome)
    return outcomes


def _rugged(circuits, config, tracer, unit) -> list[Outcome]:
    from repro.algebraic.rugged import rugged
    from repro.mapping.flow import verify_flow_sim
    from repro.mapping.structural import synthesize_structural

    outcomes = []
    for circuit in circuits:
        outcome = Outcome(circuit.name)
        with unit():
            try:
                net = _parse(circuit, tracer)
                reference = net.copy()
                with tracer.span("algebraic.rugged"):
                    rugged(net)
                outcome.restructured = net
                with tracer.span("map"):
                    outcome.result = synthesize_structural(net, config)
                with tracer.span("verify.sim"):
                    outcome.own_verified = verify_flow_sim(reference, outcome.result)
                _pack(outcome, tracer)
            except Exception as exc:  # a failing circuit is counted, not fatal
                outcome.error = f"{type(exc).__name__}: {exc}"
        outcomes.append(outcome)
    return outcomes


def _batch(circuits, config, tracer, unit) -> list[Outcome]:
    with unit():
        return _batch_unit(circuits, config, tracer)


def _batch_unit(circuits, config, tracer) -> list[Outcome]:
    from repro.engine import synthesize_batch
    from repro.errors import ReproError
    from repro.mapping.flow import verify_flow

    outcomes = [Outcome(c.name) for c in circuits]
    nets = [_parse(c, tracer) for c in circuits]
    with tracer.span("map"):
        results = synthesize_batch(nets, config, fail_fast=False)
    for outcome, net, result in zip(outcomes, nets, results):
        if isinstance(result, ReproError):
            outcome.error = f"{type(result).__name__}: {result}"
            continue
        outcome.result = result
        try:
            with tracer.span("verify.exact"):
                outcome.own_verified = verify_flow(net, result)
            _pack(outcome, tracer)
        except Exception as exc:  # a failing circuit is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
    return outcomes
