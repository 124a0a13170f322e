"""The repository's benchmark: host cost and simulated fidelity of RBFT runs.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) in fresh child
processes, checks the outputs and prints one JSON result line.  See
``perfbench/README.md`` for the metrics and what each one should move.
"""
