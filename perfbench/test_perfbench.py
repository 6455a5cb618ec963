"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``).

Every workload runs here at a tiny size (``--scale``), so the whole file
takes about 20 s on 2 CPUs.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
from argparse import Namespace

import pytest

from perfbench import checker, circuits, flows
from perfbench.env import OUT_DIR, ROOT, use_checkout_sources
from perfbench.tracing import self_times

use_checkout_sources()

from perfbench import run  # noqa: E402  (needs the repro sources on sys.path)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = 0.4


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--scale", str(TINY)]
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs() -> dict:
    return {
        (workload, trace): _run(workload, trace)
        for workload in circuits.WORKLOADS
        for trace in (0, 1)
    }


def test_benchmark_json_names_are_legal():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(circuits.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric


@pytest.mark.parametrize("workload", circuits.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_tiny(tiny_runs, workload, trace):
    result = tiny_runs[(workload, trace)]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_layer_metrics_move_only_where_expected(tiny_runs):
    for workload in circuits.WORKLOADS:
        metrics = {k: v["value"] for k, v in tiny_runs[(workload, 1)]["metrics"].items()}
        rugged_only = metrics["algebraic.rugged_s"] > 0
        assert rugged_only == (workload == "rugged-structural")
        process_only = metrics["engine.submit_s"] > 0 and metrics["engine.collect_wait_s"] > 0
        assert process_only == (workload == "batch-process")
        assert metrics["trace_overhead"] > 0


def _flipped_variants(mapped_text: str, signals: set[str]) -> list[str]:
    """The netlist with one literal of one output LUT's cube flipped."""
    lines = mapped_text.splitlines()
    variants = []
    for i, line in enumerate(lines):
        if not line.startswith(".names") or line.split()[-1] not in signals:
            continue
        row = i + 1
        while row < len(lines) and not lines[row].startswith("."):
            pattern, out = lines[row].split()
            for j, char in enumerate(pattern):
                if char in "01":
                    flipped = pattern[:j] + ("1" if char == "0" else "0") + pattern[j + 1:]
                    variants.append("\n".join(
                        lines[:row] + [f"{flipped} {out}"] + lines[row + 1:]) + "\n")
            row += 1
    return variants


def _same_outputs(original, mapped, output_signals) -> bool:
    """Exhaustive comparison through the program's own evaluator."""
    from repro.network.simulate import input_vectors

    for vector in input_vectors(original.inputs, 0, 0):
        want = original.evaluate_outputs(vector)
        got = mapped.evaluate(vector)
        if any(want[o] != got[output_signals[o]] for o in original.outputs):
            return False
    return True


def test_checker_flags_a_flipped_lut_cube():
    from repro.io import parse_network, write_blif
    from repro.mapping.flow import FlowConfig, synthesize

    source = circuits.generate("collapsed-imodec", 3, scale=TINY)[0]
    net = parse_network(source.text, fmt="blif")
    result = synthesize(net, FlowConfig())
    mapped = write_blif(result.network)
    good = checker.check_mapping(source.text, mapped, result.output_signals)
    assert good.equivalent and good.method == "exhaustive"
    assert good.vectors == 1 << len(net.inputs)

    flagged = 0
    for variant in _flipped_variants(mapped, set(result.output_signals.values())):
        broken = parse_network(variant, fmt="blif")
        if _same_outputs(net, broken, result.output_signals):
            continue  # the flip is masked: the function did not change
        check = checker.check_mapping(source.text, variant, result.output_signals)
        assert not check.equivalent and check.mismatched_outputs
        flagged += 1
    assert flagged > 0


def test_random_vectors_are_reported_above_the_exhaustive_limit():
    inputs = [f"x{i}" for i in range(checker.EXHAUSTIVE_INPUTS + 1)]
    text = (".model wide\n.inputs " + " ".join(inputs) + "\n.outputs y\n"
            ".names x0 x16 y\n11 1\n.end\n")
    mapped = ".model m\n.inputs x0 x16\n.outputs y\n.names x0 x16 y\n11 1\n.end\n"
    result = checker.check_mapping(text, mapped, {"y": "y"}, seed=5)
    assert result.equivalent and result.method == "random"
    assert result.vectors == checker.RANDOM_VECTORS


def test_traced_self_times_sum_to_wall():
    args = Namespace(workload="collapsed-imodec", seed=2, seconds=0.5, trace=1, scale=TINY)
    record = run.run_passes(args, circuits.generate(args.workload, args.seed, TINY))
    assert record["failed"] == 0
    for tracer, result in record["traced"]:
        roots = [s for s in tracer.spans if s[1] is None]
        assert [s[2] for s in roots] == ["pass"]
        total_self = sum(self_times(tracer.spans).values())
        assert total_self == pytest.approx(roots[0][4] - roots[0][3], rel=1e-9)
        assert total_self <= result.wall_s
    overhead = run.per_layer_metrics(record)["trace_overhead"]
    traced = statistics.median(record["walls"]["traced"])
    untraced = statistics.median(record["walls"]["untraced"])
    assert traced == pytest.approx(untraced * overhead)


def test_memory_is_measured_per_unit_of_work(tiny_runs):
    for workload in circuits.WORKLOADS:
        record = json.loads((OUT_DIR / f"{workload}-seed1-trace0.json").read_text())
        units = 1 if workload == "batch-process" else len(record["circuits"])
        peaks = record["unit_peaks_kb"]
        assert len(peaks) == units and all(peak > 0 for peak in peaks)
        metric = tiny_runs[(workload, 0)]["metrics"]["peak_rss_mb"]["value"]
        assert metric == statistics.median(peaks) / 1024


def test_seed_reaches_generators_and_outputs_repeat():
    workload = "batch-process"
    first = circuits.generate(workload, 7, TINY)
    assert first == circuits.generate(workload, 7, TINY)
    other = circuits.generate(workload, 8, TINY)
    assert all(a.text != b.text for a, b in zip(first, other))

    def record(circuit_list):
        from repro.engine.executors import shutdown_pool

        try:
            result = flows.run_pass(workload, circuit_list, run.NullTracer())
        finally:
            shutdown_pool()
        return [(o.clbs, run.blif_digest(o.result)) for o in result.outcomes]

    assert record(first) == record(first)
    full = circuits.generate(workload, 7)
    fixed = [c for c in full if c.generator_seed is None]
    assert fixed and fixed == [c for c in circuits.generate(workload, 8) if c.generator_seed is None]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collapsed-imodec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
