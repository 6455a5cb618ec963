#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload collapsed-imodec --seed 1 --seconds 30 --trace 0

The run:

1. times the set-up (a fresh interpreter importing ``repro`` and generating
   the workload's circuits) several times and keeps the median, ``setup_s``;
2. with ``--trace 0``, runs each unit of work once in a forked child and
   records its peak resident memory (``memory.py``), before any pass;
3. runs passes over every circuit of the workload for about ``--seconds``
   (``--trace 1`` alternates untraced and traced passes);
4. checks every output: the program's own verification must pass, an
   independent evaluator (``checker.py``) must find each mapped netlist
   equivalent to its input, and every later pass must reproduce the first
   pass's BLIF bytes and CLB counts;
5. runs one circuit through ``python -m repro.cli synth`` and requires the
   same BLIF bytes as the in-process path (the CLI parity probe);
6. writes the run record (host facts, per-circuit digests, spans) under
   ``.bench_build/perfbench/`` and prints one JSON line last.

The last line is ``{"correct", "attempted", "failed", "metrics"}``; the
metrics are the end-to-end ones with ``--trace 0`` and the per-layer ones
with ``--trace 1``.  Outside a checkout with ``src/repro`` the run exits
with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checker, circuits as circuit_gen, flows  # noqa: E402
from perfbench.memory import unit_peaks_kb  # noqa: E402
from perfbench.env import (  # noqa: E402
    OUT_DIR,
    ROOT,
    CheckoutError,
    child_env,
    use_checkout_sources,
)
from perfbench.tracing import NullTracer, Tracer, instrument, layer_totals  # noqa: E402

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "clbs": "count",
    "luts": "count",
    "peak_rss_mb": "MB",
    "ok_share": "fraction",
}

#: Per-layer times: metric -> span name (inclusive seconds per pass).
LAYER_TIMES = {
    "io.parse_s": "io.parse",
    "algebraic.rugged_s": "algebraic.rugged",
    "algebraic.eliminate_s": "algebraic.eliminate",
    "algebraic.extract_cubes_s": "algebraic.extract_cubes",
    "algebraic.extract_kernels_s": "algebraic.extract_kernels",
    "algebraic.simplify_nodes_s": "algebraic.simplify_nodes",
    "network.sweep_s": "network.sweep",
    "collapse.collapse_s": "collapse.collapse",
    "collapse.partial_collapse_s": "collapse.partial_collapse",
    "partitioning.partition_outputs_s": "partitioning.partition_outputs",
    "partitioning.trial_gain_s": "partitioning.trial_gain",
    "partitioning.choose_bound_set_s": "partitioning.choose_bound_set",
    "imodec.decompose_multi_trial_s": "imodec.decompose_multi_trial",
    "imodec.decompose_multi_emit_s": "imodec.decompose_multi_emit",
    "imodec.chi_s": "imodec.chi",
    "imodec.lmax_s": "imodec.lmax",
    "engine.prepare_s": "engine.prepare",
    "engine.run_groups_s": "engine.run_groups",
    "engine.submit_s": "engine.submit",
    "engine.collect_wait_s": "engine.collect_wait",
    "verify.exact_s": "verify.exact",
    "verify.sim_s": "verify.sim",
    "pack.xc3000_s": "pack.xc3000",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "algebraic.nodes_after": "count",
    "algebraic.literals_after": "count",
    "bdd.nodes": "count",
    "bdd.cache_hit_rate": "fraction",
    "partitioning.trial_gain_calls": "count",
    "partitioning.choose_bound_set_calls": "count",
    "partitioning.choose_bound_set_repeat_share": "fraction",
    "imodec.decompose_multi_calls": "count",
    "engine.groups": "count",
    "engine.tasks_total": "count",
    "engine.tasks_retried": "count",
    "engine.groups_degraded": "count",
    "trace_overhead": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=circuit_gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the timed set-up child, and the self-tests' shrunken inputs
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------


def host_facts() -> dict:
    """Facts that make results from different hosts incomparable."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def import_flow_modules() -> None:
    import repro.algebraic.rugged  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.mapping.flow  # noqa: F401
    import repro.mapping.structural  # noqa: F401
    import repro.mapping.xc3000  # noqa: F401


def setup_only(args: argparse.Namespace) -> None:
    """What a user's run does before its first timed call."""
    import_flow_modules()
    circuit_gen.generate(args.workload, args.seed, args.scale)


def measure_setup(args: argparse.Namespace) -> float:
    """Median wall time of fresh interpreters running :func:`setup_only`."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--scale", str(args.scale),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
    return statistics.median(times)


# ----------------------------------------------------------------------
# passes and checks
# ----------------------------------------------------------------------


def blif_digest(result) -> str:
    from repro.io import write_blif

    return hashlib.sha256(write_blif(result.network).encode()).hexdigest()


def record_rows(circuits, outcomes, seed: int) -> list[dict]:
    """The output record of the first pass, checked independently."""
    from repro.io import write_blif

    rows = []
    for circuit, outcome in zip(circuits, outcomes):
        row = {
            "name": circuit.name,
            "shape": circuit.shape,
            "generator_seed": circuit.generator_seed,
            "error": outcome.error,
        }
        if outcome.error is None:
            mapped = write_blif(outcome.result.network)
            try:
                check = checker.check_mapping(
                    circuit.text, mapped, outcome.result.output_signals, seed=seed
                )
            except ValueError as exc:  # a malformed netlist is a failed check
                check = checker.CheckResult(False, f"unreadable: {exc}", 0)
            row.update(
                luts=outcome.result.num_luts,
                clbs=outcome.clbs,
                sha256=hashlib.sha256(mapped.encode()).hexdigest(),
                own_verified=bool(outcome.own_verified),
                check_method=check.method,
                check_vectors=check.vectors,
                check_equivalent=check.equivalent,
            )
        row["ok"] = (
            outcome.error is None and row["own_verified"] and row["check_equivalent"]
        )
        rows.append(row)
    return rows


def repeat_ok(row: dict, outcome) -> bool:
    """A later pass must reproduce the first pass's bytes and CLB count."""
    return (
        row["ok"]
        and outcome.error is None
        and bool(outcome.own_verified)
        and outcome.clbs == row["clbs"]
        and blif_digest(outcome.result) == row["sha256"]
    )


def run_passes(args: argparse.Namespace, circuits) -> dict:
    """Passes for about ``args.seconds``; returns walls, checks and spans."""
    from repro.engine.executors import shutdown_pool

    kinds = ["untraced", "traced"] if args.trace else ["untraced"]
    walls: dict[str, list[float]] = {kind: [] for kind in kinds}
    traced_passes: list[tuple[Tracer, flows.PassResult]] = []
    rows: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while True:
        kind = kinds[index % len(kinds)]
        if kind == "traced":
            tracer = Tracer(f"{args.workload}/seed{args.seed}/pass{index}")
            with instrument(tracer):
                result = flows.run_pass(args.workload, circuits, tracer)
            traced_passes.append((tracer, result))
        else:
            result = flows.run_pass(args.workload, circuits, NullTracer())
        shutdown_pool()  # each pass pays its own pool start, as a CLI run does
        walls[kind].append(result.wall_s)
        if index == 0:
            rows = record_rows(circuits, result.outcomes, args.seed)
            bad = sum(not row["ok"] for row in rows)
        else:
            bad = sum(not repeat_ok(row, o) for row, o in zip(rows, result.outcomes))
        attempted += len(result.outcomes)
        failed += bad
        index += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for ws in walls.values() for w in ws)
        if all(walls.values()) and elapsed + 0.5 * typical >= args.seconds:
            break
    return {
        "walls": walls,
        "rows": rows,
        "attempted": attempted,
        "failed": failed,
        "traced": traced_passes,
        "last_outcomes": result.outcomes,
    }


def end_to_end_metrics(run: dict, setup_s: float, peaks_kb: list[int]) -> dict[str, float]:
    rows = run["rows"]
    return {
        "wall_s": statistics.median(run["walls"]["untraced"]),
        "setup_s": setup_s,
        "clbs": sum(row.get("clbs", 0) for row in rows),
        "luts": sum(row.get("luts", 0) for row in rows),
        "peak_rss_mb": statistics.median(peaks_kb) / 1024.0,
        "ok_share": 1.0 - run["failed"] / run["attempted"],
    }


def pass_layer_metrics(tracer: Tracer, outcomes) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from repro.network.stats import network_stats

    totals = layer_totals(tracer.spans)
    metrics = {
        name: totals.get(span, (0.0, 0))[0] for name, span in LAYER_TIMES.items()
    }
    calls = tracer.counts["choose_bound_set_calls"]
    metrics.update({
        "partitioning.trial_gain_calls": totals.get("partitioning.trial_gain", (0, 0))[1],
        "partitioning.choose_bound_set_calls": calls,
        "partitioning.choose_bound_set_repeat_share": (
            tracer.counts["choose_bound_set_repeats"] / calls if calls else 0.0
        ),
        "imodec.decompose_multi_calls": sum(
            totals.get(span, (0, 0))[1]
            for span in ("imodec.decompose_multi_trial", "imodec.decompose_multi_emit")
        ),
        "engine.groups": tracer.counts["engine_groups"],
    })
    mapped = [o for o in outcomes if o.result is not None]
    restructured = [network_stats(o.restructured) for o in outcomes if o.restructured]
    hits = sum(o.result.bdd_stats.hits for o in mapped)
    lookups = hits + sum(o.result.bdd_stats.misses for o in mapped)
    metrics.update({
        "algebraic.nodes_after": sum(s.num_nodes for s in restructured),
        "algebraic.literals_after": sum(s.num_literals for s in restructured),
        "bdd.nodes": sum(o.result.bdd_stats.nodes for o in mapped),
        "bdd.cache_hit_rate": hits / lookups if lookups else 0.0,
        "engine.tasks_total": sum(o.result.engine_stats.tasks_total for o in mapped),
        "engine.tasks_retried": sum(o.result.engine_stats.tasks_retried for o in mapped),
        "engine.groups_degraded": sum(
            o.result.engine_stats.groups_degraded for o in mapped
        ),
    })
    return metrics


def per_layer_metrics(run: dict) -> dict[str, float]:
    """Medians over the traced passes, plus the tracing overhead."""
    per_pass = [pass_layer_metrics(t, r.outcomes) for t, r in run["traced"]]
    metrics = {
        name: statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    metrics["trace_overhead"] = (
        statistics.median(run["walls"]["traced"])
        / statistics.median(run["walls"]["untraced"])
    )
    return metrics


# ----------------------------------------------------------------------
# CLI parity probe
# ----------------------------------------------------------------------

CLI_FLAGS = {
    "collapsed-imodec": [],
    "rugged-structural": ["--rugged", "--structural"],
    "batch-process": ["--executor", "process", "--jobs", str(flows.BATCH_JOBS)],
}


def cli_parity(args: argparse.Namespace, circuits, rows) -> dict:
    """Map one circuit with ``python -m repro.cli synth``; compare BLIF bytes."""
    index = next(
        (i for i, c in enumerate(circuits) if c.generator_seed is not None), 0
    )
    circuit, row = circuits[index], rows[index]
    work = OUT_DIR / "probe" / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    source = work / f"{circuit.name}.blif"
    target = work / f"{circuit.name}.mapped.blif"
    source.write_text(circuit.text)
    target.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "repro.cli", "synth", str(source),
           *CLI_FLAGS[args.workload], "-o", str(target)]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    digest = (
        hashlib.sha256(target.read_bytes()).hexdigest() if target.exists() else None
    )
    return {
        "circuit": circuit.name,
        "flags": CLI_FLAGS[args.workload],
        "exit_code": done.returncode,
        "sha256": digest,
        "ok": done.returncode == 0 and digest is not None and digest == row.get("sha256"),
    }


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_sources()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(args)
        return 0

    from repro.engine.executors import shutdown_pool

    setup_s = measure_setup(args)
    import_flow_modules()
    circuits = circuit_gen.generate(args.workload, args.seed, args.scale)
    # memory first, so that every unit forks from the state before any pass
    peaks_kb = [] if args.trace else unit_peaks_kb(args.workload, circuits)
    try:
        run = run_passes(args, circuits)
    finally:
        shutdown_pool()
    probe = cli_parity(args, circuits, run["rows"])
    metrics = (
        per_layer_metrics(run) if args.trace
        else end_to_end_metrics(run, setup_s, peaks_kb)
    )
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = run["failed"] == 0 and probe["ok"]

    host = host_facts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup_s": setup_s,
        "pass_walls": run["walls"],
        "unit_peaks_kb": peaks_kb,
        "circuits": run["rows"],
        "cli_parity": probe,
        "metrics": metrics,
        "spans": [
            {"run_id": tracer.run_id, "spans": tracer.spans}
            for tracer, _ in run["traced"]
        ],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"host: {json.dumps(host, sort_keys=True)}")
    for row in run["rows"]:
        if row["error"] is not None:
            print(f"  {row['name']:<14} FAILED: {row['error']}")
            continue
        print(f"  {row['name']:<14} luts={row['luts']:<4} clbs={row['clbs']:<4} "
              f"{row['check_method']}/{row['check_vectors']} "
              f"{'ok' if row['ok'] else 'MISMATCH'} {row['sha256'][:12]}")
    for kind, walls in run["walls"].items():
        print(f"passes ({kind}): " + " ".join(f"{w:.3f}" for w in walls))
    print(f"cli parity ({probe['circuit']}): {'ok' if probe['ok'] else 'FAILED'}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    with contextlib.suppress(BrokenPipeError):
        sys.exit(main())
