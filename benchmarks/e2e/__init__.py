"""bench_e2e: the repo's one wall-clock end-to-end benchmark.

Four Figure-1 pipelines driven through the layers' public APIs, each
verified against an independent reference computation, with a separate
traced run whose per-layer self times sum to the end-to-end wall time.
See README.md in this directory and BENCHMARK.json at the repo root.
"""
