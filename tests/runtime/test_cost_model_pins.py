"""Exact cost-model counters for the four paper workloads.

The paper-artifact benchmarks check exact costs only at paper scale,
which the fast gate skips. These pins catch any metering drift — an
instruction charged twice, a field read lost, a cache access reordered —
at sizes small enough for every run: unfused ``run_entry`` and fused
``run_fused``, with the cache simulator on.
"""

import pytest

from repro.cachesim import paper_hierarchy
from repro.fusion import fuse_program
from repro.interp import resolve_program
from repro.runtime import ExecStats, Heap, Interpreter
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

WORKLOADS = {
    "render": (render_workload, {"pages": 2}),
    "astlang": (astlang_workload, {"functions": 6}),
    "kdtree": (kdtree_workload, {"depth": 4}),
    "fmm": (fmm_workload, {"particles": 48}),
}

# (node_visits, instructions, field_reads, field_writes, truncations,
#  (L1, L2, L3) misses)
PINS = {
    ("render", "unfused"): (390, 5341, 1149, 301, 0, (493, 313, 83)),
    ("render", "fused"): (132, 4682, 895, 301, 0, (187, 84, 83)),
    ("astlang", "unfused"): (1258, 18246, 3335, 438, 24, (1099, 807, 227)),
    ("astlang", "fused"): (704, 18854, 2785, 438, 24, (472, 230, 229)),
    ("kdtree", "unfused"): (320, 6825, 1172, 480, 0, (390, 40, 40)),
    ("kdtree", "fused"): (63, 5873, 924, 480, 0, (85, 40, 40)),
    ("fmm", "unfused"): (93, 1548, 492, 93, 0, (125, 36, 36)),
    ("fmm", "fused"): (61, 1627, 462, 93, 0, (88, 36, 36)),
}


@pytest.mark.parametrize(
    "name,mode", sorted(PINS), ids=[f"{n}-{m}" for n, m in sorted(PINS)]
)
def test_counters_pinned(name, mode):
    factory, spec_kwargs = WORKLOADS[name]
    workload = factory()
    program = resolve_program(
        workload.source,
        name=workload.name,
        pure_impls=dict(workload.pure_impls or {}) or None,
    )
    heap = Heap(program)
    root = workload.build_tree(
        program, heap, workload.make_spec(**spec_kwargs)
    )
    stats = ExecStats(cache=paper_hierarchy(scale=64))
    interp = Interpreter(program, heap, stats)
    interp.globals.update(workload.globals_map or {})
    if mode == "fused":
        interp.run_fused(fuse_program(program), root)
    else:
        interp.run_entry(root)
    visits, instructions, reads, writes, truncations, misses = PINS[
        (name, mode)
    ]
    assert stats.node_visits == visits
    assert stats.instructions == instructions
    assert stats.field_reads == reads
    assert stats.field_writes == writes
    assert stats.truncations == truncations
    assert stats.miss_counts() == dict(zip(("L1", "L2", "L3"), misses))
