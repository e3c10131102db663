"""The repository benchmark: ``python3 perfbench/run.py``.

Three workloads (``compile``, ``traverse``, ``forest``) time the
compiler, the generated traversal code and the batched service from
outside, through public calls only. See ``perfbench/METRICS.md`` for
what each workload and metric means and which per-layer number should
move which end-to-end number.
"""
