"""Locate the checkout the benchmark measures and put its sources first.

The benchmark always measures the ``repro`` package under ``src/`` of the
checkout it sits in, never an installed copy: :func:`use_checkout_sources`
refuses to continue when that tree is missing, and checks that the import
really resolves there.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for run records, traces and the CLI parity probe.
OUT_DIR = ROOT / ".bench_build" / "perfbench"


class CheckoutError(RuntimeError):
    """The directory around the benchmark holds no ``repro`` sources."""


def use_checkout_sources() -> None:
    """Import ``repro`` from ``ROOT/src``; raise :class:`CheckoutError` if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise CheckoutError(f"repro imported from {where}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for a subprocess that must import the same sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env
