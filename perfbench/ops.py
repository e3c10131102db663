"""One function per layer call, each wrapped in its span.

Every workload and the traced run's replay go through these, so a
layer is always entered through the same public function and recorded
under the same span name (the list is in ``METRICS.md``). Spans carry
the program, layout and variant as attributes; ``layers.py`` keys the
per-layer metrics on them.
"""

from __future__ import annotations

import gc
import time

from repro.codegen.python_backend import RuntimeContext
from repro.interp import InterpretedModule
from repro.layout import ForestPool
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.runtime import Heap
from repro.service.batching import default_collect

from perfbench.common import globals_for


def compile_program(rec, workload, program, *, layout="object",
                    cache=None, cache_dir=None, source=None):
    """``pipeline.compile`` of one workload (or of edited ``source``
    text) into the given memory tier and optional disk store."""
    options = CompileOptions(layout=layout, cache_dir=cache_dir)
    with rec.span("pipeline.compile", program=program, layout=layout):
        return pipeline_compile(
            workload if source is None else source,
            options=options,
            cache=cache,
        )


def build(rec, workload, program_ir, spec, program):
    with rec.span("exec.build", program=program):
        heap = Heap(program_ir)
        return heap, workload.build_tree(program_ir, heap, spec)


def ingest(rec, program_ir, root, program):
    with rec.span("exec.ingest", program=program):
        return ForestPool.from_tree(program_ir, root)


def clone(rec, pool, program):
    with rec.span("exec.clone", program=program):
        return pool.clone()


def bind(rec, module, program_ir, pool, workload, program):
    """Bind a pooled module to a pool; returns ``(context, entries)``."""
    with rec.span("exec.bind", program=program):
        context = RuntimeContext(
            program_ir, Heap(program_ir), globals_for(workload)
        )
        return context, module.bind(context, pool)


def _timed_span(rec, name, call, *args, **attrs):
    """Time ``call(*args)`` with the collector off; the span (when
    recording) sits inside the timed interval, so a traced run pays
    its cost in the very numbers it is compared on."""
    gc.disable()
    try:
        start = time.perf_counter()
        with rec.span(name, **attrs):
            result = call(*args)
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    return seconds, result


def traverse_object(rec, module, fused, heap, root, workload, program):
    """One object-layout entry call; returns ``(seconds, context)``."""
    run = module.run_fused if fused else module.run_entry
    return _timed_span(
        rec, "exec.traverse", run, heap, root, globals_for(workload),
        program=program, layout="object",
        variant="fused" if fused else "unfused",
    )


def traverse_pooled(rec, entries, fused, pool, program):
    """One pooled entry call on a bound pool; returns seconds."""
    run = entries["run_fused" if fused else "run_entry"]
    seconds, _ = _timed_span(
        rec, "exec.traverse", run, pool.roots[0],
        program=program, layout="pooled",
        variant="fused" if fused else "unfused",
    )
    return seconds


def write_back(rec, pool, heap, program):
    with rec.span("exec.write_back", program=program):
        return pool.write_back(heap)


def collect(rec, program_ir, heap, root, program):
    with rec.span("exec.collect", program=program):
        return default_collect(program_ir, heap, root)


def interp_run(rec, program_ir, heap, root, workload, program):
    """One reference-interpreter entry run; ``(seconds, context)``."""
    module = InterpretedModule(program_ir)
    return _timed_span(
        rec, "interp.run", module.run_entry, heap, root,
        globals_for(workload), program=program,
    )
