"""Per-layer metrics of the traced run.

Every traced run reports every per-layer metric. A workload's own
spans and samples provide the layers it exercises (see the prediction
map in ``METRICS.md``); for the rest, :func:`census` drives each layer
directly through the same public calls at a fixed small scale, in a
recorder of its own, so no number is ever borrowed or invented.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.api import Session
from repro.bench.metrics import measure_run
from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.storage import MemoryTier

from perfbench import ops
from perfbench.compile_wl import UNIT_PASSES, edited_source, unit_hits
from perfbench.common import (
    LAYOUTS,
    OUT_DIR,
    PROGRAMS,
    TINY_SIZES,
    VARIANTS,
    geomean,
    globals_for,
    make_spec,
    median,
    seeded,
    workload_for,
)
from perfbench.spans import Recorder

PASSES = (
    "parse",
    "validate",
    "access-analysis",
    "dependence",
    "fusion",
    "schedule",
    "emit",
)
# per-program layer spans: span name -> metric stem
PROGRAM_SPANS = {
    "exec.ingest": "exec.ingest_ms",
    "exec.clone": "exec.clone_ms",
    "exec.bind": "exec.bind_ms",
    "exec.write_back": "exec.write_back_ms",
    "exec.build": "exec.build_ms",
    "exec.collect": "exec.collect_ms",
    "interp.run": "interp.run_ms",
}
CENSUS_SIZES = {"render": 4, "astlang": 8, "kdtree": 5, "fmm": 128}
CENSUS_REPS = 5
SERVICE_TREES = 4


def catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    out = []
    for p in PROGRAMS:
        out += [(f"pass.{name}_ms.{p}", "ms", "lower") for name in PASSES]
    out += [
        (f"pipeline.recompile_unit_hits.{name}", "ratio", "higher")
        for name in UNIT_PASSES
    ]
    for p in PROGRAMS:
        out += [
            (f"fusion.units.{p}", "count", "lower"),
            (f"fusion.groups.{p}", "count", "lower"),
            (f"fusion.node_visits_ratio.{p}", "ratio", "lower"),
            (f"fusion.instructions_ratio.{p}", "ratio", "lower"),
            (f"codegen.fused_bytes.{p}", "bytes", "lower"),
            (f"codegen.unfused_bytes.{p}", "bytes", "lower"),
        ]
    out.append(("codegen.module_exec_ms", "ms", "lower"))
    out += [
        (f"codegen.fused_over_unfused.{l}", "ratio", "lower") for l in LAYOUTS
    ]
    for p in PROGRAMS:
        out += [
            (f"exec.traverse_ms.{p}.{l}.{v}", "ms", "lower")
            for l in LAYOUTS
            for v in VARIANTS
        ]
    for p in PROGRAMS:
        out += [
            (f"{stem}.{p}", "ms", "lower") for stem in PROGRAM_SPANS.values()
        ]
    out += [
        ("storage.memory_hit_ms", "ms", "lower"),
        ("storage.disk_hit_ms", "ms", "lower"),
        ("storage.disk_bytes", "bytes", "lower"),
        ("exec.request_ms", "ms", "lower"),
        ("service.requests_per_wave", "count", "higher"),
        ("service.overhead_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("bench.calibration_ms", "ms", "lower"),
    ]
    return out


def from_spans(spans) -> dict:
    """Median self time (ms) per per-layer key the spans cover."""
    grouped: dict[str, list] = {}
    for span in spans:
        program = span.attrs.get("program")
        if span.name == "exec.traverse":
            key = (
                f"exec.traverse_ms.{program}."
                f"{span.attrs['layout']}.{span.attrs['variant']}"
            )
        elif span.name in PROGRAM_SPANS:
            key = f"{PROGRAM_SPANS[span.name]}.{program}"
        elif span.name == "exec.request":
            key = "exec.request_ms"
        else:
            continue
        grouped.setdefault(key, []).append(span.self_seconds * 1e3)
    return {key: median(values) for key, values in grouped.items()}


def from_compiles(cold_results: dict) -> dict:
    """Pass times, fusion counts and code sizes of the cold compiles."""
    out = {}
    for program, results in cold_results.items():
        for name in PASSES:
            out[f"pass.{name}_ms.{program}"] = median(
                next(t for t in r.timings if t.name == name).seconds * 1e3
                for r in results
            )
        last = results[-1]
        fusion = next(t for t in last.timings if t.name == "fusion")
        out[f"fusion.units.{program}"] = fusion.detail["units"]
        out[f"fusion.groups.{program}"] = fusion.detail["groups"]
        out[f"codegen.fused_bytes.{program}"] = len(last.fused_source.encode())
        out[f"codegen.unfused_bytes.{program}"] = len(
            last.unfused_source.encode()
        )
    return out


def ratio_by_layout(values: dict) -> dict:
    """``codegen.fused_over_unfused.<l>``: geo-mean over programs of
    median fused / median unfused traversal time."""
    out = {}
    for layout in LAYOUTS:
        keys = [
            (
                f"exec.traverse_ms.{p}.{layout}.fused",
                f"exec.traverse_ms.{p}.{layout}.unfused",
            )
            for p in PROGRAMS
        ]
        if all(f in values and u in values for f, u in keys):
            out[f"codegen.fused_over_unfused.{layout}"] = geomean(
                values[f] / values[u] for f, u in keys
            )
    return out


class Census:
    """Direct, small-scale drives of the layers a workload leaves
    untouched. One cold compile per program (object and pooled, into
    a census disk store) feeds every census family."""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.sizes = TINY_SIZES if tiny else CENSUS_SIZES
        self.rec = Recorder(enabled=True)
        self.values: dict = {}
        self.store = OUT_DIR / f"census-{os.getpid()}-{seed}"
        shutil.rmtree(self.store, ignore_errors=True)
        self.tier = MemoryTier()
        self.workloads = {p: workload_for(p) for p in PROGRAMS}
        self.results = {
            (p, layout): ops.compile_program(
                self.rec, self.workloads[p], p, layout=layout,
                cache=self.tier, cache_dir=str(self.store),
            )
            for p in PROGRAMS
            for layout in LAYOUTS
        }
        self.specs = {
            p: make_spec(
                self.workloads[p], p, self.sizes[p],
                seeded(seed, "census", p).randrange(10**6),
            )
            for p in PROGRAMS
        }

    def close(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)

    def traversal(self) -> None:
        rec = self.rec
        first = len(rec.spans)
        for _ in range(CENSUS_REPS):
            for p in PROGRAMS:
                workload, spec = self.workloads[p], self.specs[p]
                for layout in LAYOUTS:
                    result = self.results[(p, layout)]
                    ir = result.program
                    for variant in VARIANTS:
                        module = (
                            result.compiled_fused
                            if variant == "fused"
                            else result.compiled_unfused
                        )
                        fused = variant == "fused"
                        heap, root = ops.build(rec, workload, ir, spec, p)
                        if layout == "object":
                            ops.traverse_object(
                                rec, module, fused, heap, root, workload, p
                            )
                        else:
                            pool = ops.ingest(rec, ir, root, p)
                            twin = ops.clone(rec, pool, p)
                            _, entries = ops.bind(
                                rec, module, ir, twin, workload, p
                            )
                            ops.traverse_pooled(rec, entries, fused, twin, p)
                            # a clone has no backing nodes: run the
                            # ingested pool too, so write_back has a tree
                            _, entries = ops.bind(
                                rec, module, ir, pool, workload, p
                            )
                            entries["run_fused" if fused else "run_entry"](
                                pool.roots[0]
                            )
                            ops.write_back(rec, pool, heap, p)
                        ops.collect(rec, ir, heap, root, p)
                ir = self.results[(p, "object")].program
                heap, root = ops.build(rec, workload, ir, spec, p)
                ops.interp_run(rec, ir, heap, root, workload, p)
        self.values.update(from_spans(rec.spans[first:]))
        self.values.update(ratio_by_layout(self.values))

    def metered(self) -> None:
        """Node-visit and instruction ratios (fused/unfused) from one
        metered run per program."""
        for p in PROGRAMS:
            workload, spec = self.workloads[p], self.specs[p]
            result = self.results[(p, "object")]
            ir = result.program

            def build(program, heap):
                return workload.build_tree(program, heap, spec)

            unfused = measure_run(ir, build, globals_for(workload))
            fused = measure_run(
                ir, build, globals_for(workload), fused=result.fused
            )
            self.values[f"fusion.node_visits_ratio.{p}"] = (
                fused.node_visits / unfused.node_visits
            )
            self.values[f"fusion.instructions_ratio.{p}"] = (
                fused.instructions / unfused.instructions
            )

    def module_exec(self) -> None:
        """Exec of every program's fused and unfused object module
        source (what a disk-served compile pays on first touch)."""
        totals = []
        for _ in range(3):
            total = 0.0
            for p in PROGRAMS:
                result = self.results[(p, "object")]
                fused, unfused = result.compiled_fused, result.compiled_unfused
                for fresh in (
                    type(fused).from_source(fused.fused, fused.source),
                    type(unfused).from_source(unfused.program, unfused.source),
                ):
                    start = time.perf_counter()
                    fresh.namespace
                    total += time.perf_counter() - start
            totals.append(total * 1e3)
        self.values["codegen.module_exec_ms"] = median(totals)

    def storage(self) -> None:
        memory, disk = [], []
        options = CompileOptions(cache_dir=str(self.store))
        for p in PROGRAMS:
            workload = self.workloads[p]
            start = time.perf_counter()
            pipeline_compile(workload, options=options, cache=MemoryTier())
            disk.append((time.perf_counter() - start) * 1e3)
            start = time.perf_counter()
            pipeline_compile(workload, options=options, cache=self.tier)
            memory.append((time.perf_counter() - start) * 1e3)
        self.values["storage.disk_hit_ms"] = geomean(disk)
        self.values["storage.memory_hit_ms"] = geomean(memory)
        self.values["storage.disk_bytes"] = sum(
            f.stat().st_size for f in self.store.rglob("*") if f.is_file()
        )

    def recompile(self) -> None:
        text = edited_source(seeded(self.seed, "census-edit").randint(2, 10**6))
        edited = pipeline_compile(text, cache=self.tier)
        for name, ratio in unit_hits(edited).items():
            self.values[f"pipeline.recompile_unit_hits.{name}"] = ratio

    def service(self) -> None:
        """A few sequential requests per program through a default
        ``Session`` served from the census disk store, each replayed
        step by step to split its latency into layer time and
        service overhead."""
        rec = self.rec
        latencies, overheads = [], []
        with Session(cache_dir=str(self.store)) as session:
            for _ in range(2):
                for p in PROGRAMS:
                    workload = self.workloads[p]
                    specs = [self.specs[p]] * SERVICE_TREES
                    start = time.perf_counter()
                    result = session.submit(workload, specs).result(timeout=120)
                    latency = time.perf_counter() - start
                    if not result.ok:
                        raise RuntimeError(
                            f"census request failed: {result.error}"
                        )
                    latencies.append(latency * 1e3)
                    compiled = self.results[(p, "object")]
                    ir = compiled.program
                    with rec.span("replay") as span:
                        with rec.span("pipeline.compile", program=p):
                            pipeline_compile(workload, cache=self.tier)
                        for spec in specs:
                            heap, root = ops.build(rec, workload, ir, spec, p)
                            ops.traverse_object(
                                rec, compiled.compiled_fused, True, heap,
                                root, workload, p,
                            )
                            ops.collect(rec, ir, heap, root, p)
                    overheads.append((latency - span.child_seconds) * 1e3)
            stats = session.executor.stats()
        self.values["exec.request_ms"] = median(latencies)
        self.values["service.overhead_ms"] = median(overheads)
        self.values["service.requests_per_wave"] = (
            stats["completed_requests"] / stats["waves"]
        )


def _census_family(name: str) -> str:
    """The :class:`Census` method that measures per-layer metric *name*."""
    if name == "exec.request_ms" or name.startswith("service."):
        return "service"
    if name.startswith(("exec.", "interp.", "codegen.fused_over")):
        return "traversal"
    if name.startswith(("fusion.node_visits", "fusion.instructions")):
        return "metered"
    if name == "codegen.module_exec_ms":
        return "module_exec"
    if name.startswith("storage."):
        return "storage"
    if name.startswith("pipeline.recompile"):
        return "recompile"
    raise KeyError(f"no census measures {name!r}")


def collect_layers(rec, outcome, seed, tiny) -> tuple[dict, list]:
    """All per-layer metrics of a traced run: the workload's own first,
    then the census for whatever is still missing. Returns the values
    and the census spans (for the span file)."""
    values = {}
    values.update(from_compiles(outcome.cold_results))
    values.update(from_spans(rec.spans))
    values.update(ratio_by_layout(values))
    for name, samples in outcome.layer_samples.items():
        values[name] = median(samples)
    values["bench.calibration_ms"] = outcome.calibrator.seconds * 1e3
    names = [name for name, _, _ in catalog()]
    missing = [name for name in names if name not in values]
    census_spans = []
    if missing:
        census = Census(seed, tiny)
        try:
            for family in dict.fromkeys(map(_census_family, missing)):
                getattr(census, family)()
        finally:
            census.close()
        for name in missing:
            if name in census.values:
                values[name] = census.values[name]
        census_spans = census.rec.spans
    absent = [name for name in names if name not in values]
    if absent:
        raise RuntimeError(f"per-layer metrics not measured: {absent}")
    return {name: values[name] for name in names}, census_spans
