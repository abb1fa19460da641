"""``bench_e2e``: the repo's benchmark.

Wall-clock LTS cycle time, layer attribution and service latency on five
named workloads, measured from outside ``src/`` by timing calls into
public functions.  ``README.md`` in this directory is the manual;
``BENCHMARK.json`` at the repo root declares the command, workloads and
metrics, and ``metrics.py`` is the same declaration for the code.
"""
