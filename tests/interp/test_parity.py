"""Interpreter parity: the reference interpreter must produce the same
snapshot, final globals, and write-set as BOTH compiled forms (fused and
unfused) under BOTH tree layouts (object graph and forest pool), on all
four paper workloads. The same evaluator interpreting the fused
program, and running metered as the paper's cost model, must match it
too.

This is the acceptance gate for the interpreter being "the executable
specification": if it ever disagrees with compiled output, either a
backend is unsound or the spec itself regressed — both are release
blockers, and :func:`repro.interp.diff_report` names the first
diverging path so the failure reads like a bug report.
"""

import pytest

from repro.cachesim import paper_hierarchy
from repro.interp import (
    InterpretedModule,
    diff_report,
    interpret_workload,
    make_record,
    resolve_program,
)
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.runtime import ExecStats, Heap, Interpreter
from repro.workloads.astlang import astlang_workload
from repro.workloads.fmm import fmm_workload
from repro.workloads.kdtree import kdtree_workload
from repro.workloads.render import render_workload

CASES = [
    ("render", render_workload, {"pages": 2}),
    ("astlang", astlang_workload, {"functions": 6}),
    ("kdtree", kdtree_workload, {"depth": 4}),
    ("fmm", fmm_workload, {"particles": 48}),
]


def _record(workload, spec_kwargs, label, run):
    """Build the workload's tree over a freshly resolved program, run
    ``run(program, heap, root, globals_map)`` (which returns the final
    globals) and record the outcome."""
    program = resolve_program(
        workload.source,
        name=workload.name,
        pure_impls=dict(workload.pure_impls or {}) or None,
    )
    heap = Heap(program)
    root = workload.build_tree(
        program, heap, workload.make_spec(**spec_kwargs)
    )
    before = root.snapshot(program)
    globals_map = dict(workload.globals_map or {})
    final_globals = run(program, heap, root, globals_map)
    return make_record(
        label, before, root.snapshot(program), globals_map, final_globals
    )


def _interp_record(workload, spec_kwargs, layout, fused=False):
    def run(program, heap, root, globals_map):
        module = InterpretedModule(program, layout=layout)
        runner = module.run_fused if fused else module.run_entry
        return runner(heap, root, globals_map).globals

    mode = "interp-fused" if fused else "interp"
    return _record(workload, spec_kwargs, f"{mode}/{layout}", run)


def _metered_record(workload, spec_kwargs):
    """The paper's cost model: the same evaluator, with a CostMeter
    charging instructions and driving the cache simulator."""

    def run(program, heap, root, globals_map):
        stats = ExecStats(cache=paper_hierarchy(scale=64))
        interp = Interpreter(program, heap, stats)
        interp.globals.update(globals_map)
        interp.run_entry(root)
        assert stats.instructions and stats.miss_counts()
        return interp.globals

    return _record(workload, spec_kwargs, "metered/object", run)


def _compiled_record(workload, spec_kwargs, layout, fused):
    result = pipeline_compile(
        workload, options=CompileOptions(layout=layout)
    )
    program = result.program
    heap = Heap(program)
    root = workload.build_tree(
        program, heap, workload.make_spec(**spec_kwargs)
    )
    before = root.snapshot(program)
    globals_map = dict(workload.globals_map or {})
    module = result.compiled_fused if fused else result.compiled_unfused
    runner = module.run_fused if fused else module.run_entry
    context = runner(heap, root, globals_map)
    label = f"{'fused' if fused else 'unfused'}/{layout}"
    return make_record(
        label,
        before,
        root.snapshot(program),
        globals_map,
        context.globals,
    )


@pytest.mark.parametrize(
    "name,factory,spec_kwargs",
    CASES,
    ids=[case[0] for case in CASES],
)
@pytest.mark.parametrize("layout", ["object", "pooled"])
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
class TestInterpreterMatchesCompiled:
    def test_snapshot_globals_writes_identical(
        self, name, factory, spec_kwargs, layout, fused
    ):
        workload = factory()
        interp = _interp_record(workload, spec_kwargs, layout)
        compiled = _compiled_record(workload, spec_kwargs, layout, fused)
        report = diff_report(interp, compiled)
        assert report is None, report
        # the run actually did something, or parity is vacuous
        assert interp.write_set or interp.globals


@pytest.mark.parametrize(
    "name,factory,spec_kwargs",
    CASES,
    ids=[case[0] for case in CASES],
)
class TestOneEvaluator:
    """The same evaluator runs the fused program and the metered cost
    model; both must be observationally equal to the unfused spec."""

    def test_interp_fused_matches_unfused(self, name, factory, spec_kwargs):
        workload = factory()
        unfused = _interp_record(workload, spec_kwargs, "object")
        fused = _interp_record(workload, spec_kwargs, "object", fused=True)
        report = diff_report(unfused, fused)
        assert report is None, report

    def test_meter_only_observes(self, name, factory, spec_kwargs):
        workload = factory()
        unmetered = _interp_record(workload, spec_kwargs, "object")
        metered = _metered_record(workload, spec_kwargs)
        report = diff_report(unmetered, metered)
        assert report is None, report


class TestInterpretWorkloadHelper:
    def test_returns_compiled_style_handles(self):
        program, heap, root, context = interpret_workload(
            render_workload(), pages=2
        )
        assert root.snapshot(program)  # live tree, snapshotable
        assert context.globals  # final globals observable

    def test_pooled_layout_writes_back(self):
        obj = interpret_workload(render_workload(), pages=2)
        pooled = interpret_workload(
            render_workload(), layout="pooled", pages=2
        )
        assert obj[2].snapshot(obj[0]) == pooled[2].snapshot(pooled[0])
        assert obj[3].globals == pooled[3].globals

    def test_unknown_layout_rejected_at_construction(self):
        from repro.errors import RuntimeFailure

        program = resolve_program(render_workload().source)
        with pytest.raises(RuntimeFailure, match="layout"):
            InterpretedModule(program, layout="columnar")

    def test_run_stats_recorded(self):
        workload = render_workload()
        program = resolve_program(
            workload.source, pure_impls=dict(workload.pure_impls or {})
        )
        heap = Heap(program)
        root = workload.build_tree(
            program, heap, workload.make_spec(pages=2)
        )
        module = InterpretedModule(program)
        module.run_entry(heap, root, dict(workload.globals_map or {}))
        stats = module.last_stats
        assert stats["node_visits"] > 0
        assert stats["writes"] > 0
        assert stats["seconds"] >= 0
