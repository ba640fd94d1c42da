"""The repo benchmark: six workloads through ``repro``'s public API.

``python -m bench --seed N`` runs every workload (end-to-end metrics,
self-consistency checks, non-zero exit on a failed check);
``python -m bench --trace`` adds the per-layer numbers from spans and
microbenches recorded from these files around calls into each layer;
``python -m bench --compare A.json B.json`` judges two payloads.
``BENCHMARK.json`` at the repo root is the machine-readable contract and
``bench/README.md`` the rationale, the load model and the first findings.

The suite lives outside ``src/`` on purpose: it measures ``repro`` from
the outside and must keep running while ``src/`` is refactored.
"""
