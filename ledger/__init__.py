"""The layer ledger: one command for the simulated and host-time metrics.

``python -m ledger run`` measures each workload of
:mod:`ledger.workloads` in fresh interpreters and prints the metrics
``BENCHMARK.json`` declares; ``python -m ledger compare`` gives each
metric a verdict between two sets of runs.  See ``ledger/README.md``.
"""
