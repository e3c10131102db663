"""Runtime: tree nodes, heap layout, execution metrics.

The reproduction's analogue of the paper's compiled binaries + hardware
counters. Both the original (unfused) program and the synthesized fused
traversals run on the same evaluator (:mod:`repro.interp.machine`) with
the same instruction cost model and the same simulated memory system,
so the fused/unfused ratios reported by the benchmark harness are
apples-to-apples. :class:`Interpreter` is that metered evaluator.
"""

from repro.runtime.values import ObjectValue, default_value
from repro.runtime.heap import Heap, TypeLayout
from repro.runtime.node import Node
from repro.runtime.stats import (
    CostModel,
    ExecStats,
    LatencyHistogram,
    LatencySeries,
)

__all__ = [
    "ObjectValue",
    "default_value",
    "Heap",
    "TypeLayout",
    "Node",
    "CostModel",
    "ExecStats",
    "LatencyHistogram",
    "LatencySeries",
    "Interpreter",
]


def __getattr__(name):
    # the metered evaluator lives in repro.interp, which builds on this
    # package, so it is imported on first use
    if name == "Interpreter":
        from repro.interp.machine import Interpreter

        return Interpreter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
