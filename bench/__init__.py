"""The repository benchmark: read-to-fix latency, capacity and accuracy.

``python -m bench run`` measures the four workloads of ``workloads.py``
and ``python -m bench compare`` gates one set of records against
another; see ``bench/README.md``.  ``BENCHMARK.json`` at the repository
root lists the metrics, their units and regression bounds.
"""
