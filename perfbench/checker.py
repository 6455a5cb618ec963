"""An equivalence checker that shares no code with the program it checks.

It reads the input circuit and the mapped netlist as BLIF *text* with its
own small parser, and simulates both covers bit-parallel: every signal is a
Python integer whose bit ``v`` is the signal's value under input vector
``v``.  Nothing from ``repro.verify``, ``repro.network.simulate`` or the
BDD package is used, so a fault there cannot hide a fault in the mapping.

Up to :data:`EXHAUSTIVE_INPUTS` primary inputs the check is exhaustive
(a proof); above that it uses :data:`RANDOM_VECTORS` seeded random vectors
(a sample), and says which in :attr:`CheckResult.method`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EXHAUSTIVE_INPUTS = 16
RANDOM_VECTORS = 8192


@dataclass
class Blif:
    """A combinational BLIF model: on-set cubes as (fanins, patterns) per signal."""

    inputs: list[str]
    outputs: list[str]
    covers: dict[str, tuple[list[str], list[str]]]  # in file order


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one equivalence check."""

    equivalent: bool
    method: str  # "exhaustive" or "random"
    vectors: int
    mismatched_outputs: tuple[str, ...] = ()


def parse_blif_text(text: str) -> Blif:
    """Parse the ``.model/.inputs/.outputs/.names/.end`` subset.

    Covers must list on-set rows (output ``1``), which is all that
    ``repro.io.write_blif`` emits; anything else raises ``ValueError``.
    """
    lines: list[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            lines.append(line)
    inputs: list[str] = []
    outputs: list[str] = []
    covers: dict[str, tuple[list[str], list[str]]] = {}
    current: list[str] | None = None
    for line in lines:
        tokens = line.split()
        keyword = tokens[0]
        if keyword == ".inputs":
            inputs.extend(tokens[1:])
            current = None
        elif keyword == ".outputs":
            outputs.extend(tokens[1:])
            current = None
        elif keyword == ".names":
            current = []
            covers[tokens[-1]] = (tokens[1:-1], current)
        elif keyword in (".model", ".end"):
            current = None
        elif keyword.startswith("."):
            raise ValueError(f"unsupported BLIF construct {keyword}")
        elif current is None:
            raise ValueError(f"cover row outside .names: {line!r}")
        elif tokens[-1] != "1" or len(tokens) > 2:
            raise ValueError(f"not an on-set cover row: {line!r}")
        else:
            current.append(tokens[0] if len(tokens) == 2 else "")
    return Blif(inputs, outputs, covers)


def simulate(model: Blif, stimulus: dict[str, int], mask: int) -> dict[str, int]:
    """Bit-parallel value of every signal of ``model``.

    ``stimulus`` gives each primary input as an integer over the vectors;
    ``mask`` has one bit set per vector.
    """
    values = dict(stimulus)
    order = _topological(model)
    for signal in order:
        fanins, patterns = model.covers[signal]
        acc = 0
        for pattern in patterns:
            term = mask
            for name, char in zip(fanins, pattern):
                if char == "1":
                    term &= values[name]
                elif char == "0":
                    term &= ~values[name]
                if not term:
                    break
            acc |= term
        values[signal] = acc
    return values


def _topological(model: Blif) -> list[str]:
    done = set(model.inputs)
    order: list[str] = []
    for root in model.covers:
        stack = [(root, False)]
        while stack:
            signal, expanded = stack.pop()
            if signal in done:
                continue
            if expanded:
                done.add(signal)
                order.append(signal)
                continue
            if signal not in model.covers:
                raise ValueError(f"undefined signal {signal!r}")
            stack.append((signal, True))
            stack.extend((f, False) for f in model.covers[signal][0] if f not in done)
    return order


def stimulus_for(inputs: list[str], seed: int) -> tuple[dict[str, int], int, str]:
    """Input vectors as bit-parallel integers: ``(stimulus, mask, method)``."""
    n = len(inputs)
    if n <= EXHAUSTIVE_INPUTS:
        count = 1 << n
        mask = (1 << count) - 1
        stimulus = {}
        for j, name in enumerate(inputs):
            # bit v of input j is bit j of v: 2**j zeros, 2**j ones, repeated
            pattern = ((1 << (1 << j)) - 1) << (1 << j)
            length = 1 << (j + 1)
            while length < count:
                pattern |= pattern << length
                length *= 2
            stimulus[name] = pattern & mask
        return stimulus, mask, "exhaustive"
    rng = random.Random(seed)
    mask = (1 << RANDOM_VECTORS) - 1
    return {name: rng.getrandbits(RANDOM_VECTORS) for name in inputs}, mask, "random"


def check_mapping(
    input_text: str,
    mapped_text: str,
    output_signals: dict[str, str],
    seed: int = 0,
) -> CheckResult:
    """Compare every output of the input circuit with its mapped signal."""
    original = parse_blif_text(input_text)
    mapped = parse_blif_text(mapped_text)
    missing = set(mapped.inputs) - set(original.inputs)
    if missing:
        raise ValueError(f"mapped netlist reads unknown inputs {sorted(missing)}")
    stimulus, mask, method = stimulus_for(original.inputs, seed)
    vectors = mask.bit_length()
    want = simulate(original, stimulus, mask)
    got = simulate(mapped, {name: stimulus[name] for name in mapped.inputs}, mask)
    bad = tuple(
        out for out in original.outputs
        if out not in output_signals or got.get(output_signals[out]) != want[out]
    )
    return CheckResult(not bad, method, vectors, bad)
