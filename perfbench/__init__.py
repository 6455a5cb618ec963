"""Whole-run benchmark of the IMODEC synthesis flow.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from generated circuit text to verified, packed LUT
netlists and prints its metrics as the last line of standard output.  See
``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
