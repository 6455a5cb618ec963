"""The circuits of each workload, generated as BLIF text from the seed.

Every workload mixes two kinds of circuit:

- *seeded* circuits from the repo's generators
  (:func:`repro.benchcircuits.synthetic.structured_pla` for control PLAs,
  :func:`repro.benchcircuits.synthetic.layered_circuit` for multi-level
  netlists), shaped after named Table 2 circuits.  Each generator seed is
  derived from the benchmark's ``--seed``, the workload, the shape and the
  instance index, so one ``--seed`` always yields the same circuits and
  another ``--seed`` yields different ones;
- *fixed* circuits from the registry's non-seeded generators
  (``alu2``, ``5xp1``, ``f51m``, ``rd84``, ``9sym``, ``count``, ``e64``,
  ``C880``, ``C499``), identical for every seed.  They hold part of every
  run constant, which keeps the spread of the metrics across seeds inside
  their bounds.

The shapes are scaled down from the named circuits (README.md, "Shapes"):
at full size one duke2-shaped PLA takes 9-115 s depending on its seed and
one C5315-shaped netlist about 25 s, which no repeated run can hold.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

WORKLOADS = ("collapsed-imodec", "rugged-structural", "batch-process")


@dataclass(frozen=True)
class Shape:
    """One generator call pattern, instantiated ``count`` times per run."""

    label: str  # the named Table 2 circuit this shape stands for
    family: str  # "pla", "layered" or "fixed"
    count: int = 1
    params: tuple = ()  # keyword arguments of the generator, as pairs


def _pla(label: str, count: int, **params) -> Shape:
    return Shape(label, "pla", count, tuple(sorted(params.items())))


def _layered(label: str, count: int, **params) -> Shape:
    return Shape(label, "layered", count, tuple(sorted(params.items())))


def _fixed(label: str) -> Shape:
    return Shape(label, "fixed")


SHAPES: dict[str, tuple[Shape, ...]] = {
    "collapsed-imodec": (
        _pla("duke2", 10, num_inputs=12, num_outputs=10, pool_size=20,
             cubes_per_output=(2, 5), window=9),
        _pla("misex2", 6, num_inputs=12, num_outputs=8, pool_size=16,
             cubes_per_output=(2, 5), window=9),
        _pla("term1", 3, num_inputs=14, num_outputs=6, pool_size=14,
             cubes_per_output=(2, 5), window=10),
        _pla("vg2", 2, num_inputs=12, num_outputs=6, pool_size=10,
             cubes_per_output=(2, 5), window=10),
        _fixed("alu2"),
        _fixed("5xp1"),
        _fixed("f51m"),
        _fixed("rd84"),
    ),
    "rugged-structural": (
        _layered("C5315", 1, num_inputs=44, num_outputs=33, depth=5),
        _layered("rot", 1, num_inputs=24, num_outputs=18, depth=5),
        _fixed("C880"),
        _fixed("C499"),
        _fixed("alu2"),
        _fixed("count"),
        _fixed("rd84"),
        _fixed("9sym"),
    ),
    "batch-process": (
        _pla("misex2", 8, num_inputs=12, num_outputs=8, pool_size=16,
             cubes_per_output=(2, 5), window=9),
        _pla("vg2", 3, num_inputs=12, num_outputs=6, pool_size=10,
             cubes_per_output=(2, 5), window=10),
        _layered("apex7", 2, num_inputs=12, num_outputs=9, depth=3),
        _fixed("e64"),
        _fixed("alu2"),
    ),
}


@dataclass(frozen=True)
class Circuit:
    """One generated input of a run: its name, origin and BLIF text."""

    name: str
    shape: str  # label of the Shape it came from
    generator_seed: int | None  # None for fixed circuits
    text: str


def generator_seed(workload: str, label: str, index: int, seed: int) -> int:
    """The generator seed of instance ``index`` of a shape, from ``--seed``."""
    digest = hashlib.sha256(f"{workload}/{label}/{index}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def generate(workload: str, seed: int, scale: float = 1.0) -> list[Circuit]:
    """BLIF text of every circuit of ``workload`` for ``seed``.

    ``scale`` < 1 shrinks the seeded shapes and drops the fixed circuits;
    the self-tests use it to run every workload in a few seconds.
    """
    from repro.benchcircuits.registry import get_circuit
    from repro.benchcircuits.synthetic import layered_circuit, structured_pla
    from repro.io import write_blif

    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})")
    circuits: list[Circuit] = []
    for shape in SHAPES[workload]:
        if shape.family == "fixed":
            if scale < 1.0:
                continue
            net = get_circuit(shape.label).build()
            circuits.append(Circuit(net.name, shape.label, None, write_blif(net)))
            continue
        params = dict(shape.params)
        if scale < 1.0:
            for key in ("num_inputs", "num_outputs", "pool_size"):
                if key in params:
                    params[key] = max(4, round(params[key] * scale))
            if "depth" in params:
                params["depth"] = max(2, round(params["depth"] * scale))
        generator = structured_pla if shape.family == "pla" else layered_circuit
        for index in range(shape.count):
            gseed = generator_seed(workload, shape.label, index, seed)
            name = f"{shape.label}_s{index}"
            net = generator(name, seed=gseed, **params)
            circuits.append(Circuit(name, shape.label, gseed, write_blif(net)))
    return circuits
