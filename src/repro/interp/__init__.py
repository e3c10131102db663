"""The IR evaluator: the executable specification, and the cost model.

Nothing in this package compiles anything. A :class:`RefInterpreter`
walks :mod:`repro.ir` programs directly — dynamic dispatch, truncation,
topology mutation, globals, parameters, pure calls, entry schedules, and
fused programs under the paper's active-flag semantics — against either
tree layout (object graph or ``ForestPool`` columns, via
:mod:`repro.interp.views`), producing the same snapshots, global
states, and write-sets the compiled backends produce. The compiled
fused/unfused modules are *measured against it* (:mod:`repro.fuzz`),
and the service uses it as the zero-compile-latency fallback tier
(``ExecRequest.mode == "interpret"``). Run over a
:class:`~repro.interp.meter.CostMeter` it is the paper's cost model
(:class:`repro.runtime.Interpreter`).
"""

from repro.interp.diff import (
    Divergence,
    ExecutionRecord,
    diff_report,
    first_divergence,
    first_snapshot_divergence,
    make_record,
    write_set,
)
from repro.interp.machine import RefInterpreter
from repro.interp.meter import CostMeter
from repro.interp.module import (
    InterpretedModule,
    interpret_workload,
    interpreted_module,
    resolve_program,
)
from repro.interp.views import (
    ObjectTreeView,
    PooledTreeView,
    view_for,
)

__all__ = [
    "CostMeter",
    "Divergence",
    "ExecutionRecord",
    "InterpretedModule",
    "ObjectTreeView",
    "PooledTreeView",
    "RefInterpreter",
    "diff_report",
    "first_divergence",
    "first_snapshot_divergence",
    "interpret_workload",
    "interpreted_module",
    "make_record",
    "resolve_program",
    "view_for",
    "write_set",
]
