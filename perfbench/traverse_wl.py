"""The ``traverse`` workload: generated-code entry calls at paper scale.

A closed loop with one client. Every round runs all 16 compiled cases
(4 programs x object/pooled x fused/unfused) and the reference
interpreter on each program, in a seeded shuffled order. Only the
entry call is timed: object trees are built and pooled samples cloned
and bound before the timer starts, and the collector is off inside
the timed call. After the loop, one fresh output per compiled case is
checked against the reference interpreter.
"""

from __future__ import annotations

import gc
import time

from repro.interp import diff_report, make_record
from repro.storage import MemoryTier

from perfbench import ops
from perfbench.common import (
    INTERP_SIZES,
    LAYOUTS,
    PROGRAMS,
    TINY_SIZES,
    TRAVERSE_SIZES,
    VARIANTS,
    geomean,
    globals_for,
    make_spec,
    median,
    normalized,
    seeded,
    workload_for,
)

CASES = [(p, l, v) for p in PROGRAMS for l in LAYOUTS for v in VARIANTS]
INTERP_CASES = [(p, "interp", "interp") for p in PROGRAMS]

# the end-to-end names for each (layout, variant) column
RUN_METRICS = {
    ("object", "fused"): "run_fused_ms",
    ("object", "unfused"): "run_unfused_ms",
    ("pooled", "fused"): "run_fused_pooled_ms",
    ("pooled", "unfused"): "run_unfused_pooled_ms",
    ("interp", "interp"): "run_interp_ms",
}


class Program:
    """Everything one program needs inside the timed loop."""

    def __init__(self, rec, name, seed, tier, tiny):
        self.name = name
        self.workload = workload_for(name)
        size = TINY_SIZES[name] if tiny else TRAVERSE_SIZES[name]
        interp_size = TINY_SIZES[name] if tiny else INTERP_SIZES[name]
        self.spec = make_spec(self.workload, name, size, seed)
        self.interp_spec = make_spec(self.workload, name, interp_size, seed)
        self.results = {
            layout: ops.compile_program(
                rec, self.workload, name, layout=layout, cache=tier
            )
            for layout in LAYOUTS
        }
        self.ir = {l: r.program for l, r in self.results.items()}
        # one ingested master pool; every pooled sample clones it
        heap, root = ops.build(
            rec, self.workload, self.ir["pooled"], self.spec, name
        )
        self.master = ops.ingest(rec, self.ir["pooled"], root, name)
        self.reference = self._reference(rec)

    def module(self, layout, variant):
        result = self.results[layout]
        return (
            result.compiled_fused
            if variant == "fused"
            else result.compiled_unfused
        )

    def _reference(self, rec):
        """The interpreter's snapshot and globals for the full-size
        tree: what every compiled case must reproduce."""
        ir = self.ir["object"]
        heap, root = ops.build(rec, self.workload, ir, self.spec, self.name)
        before = root.snapshot(ir)
        _, context = ops.interp_run(
            rec, ir, heap, root, self.workload, self.name
        )
        return make_record(
            "interp",
            before,
            root.snapshot(ir),
            globals_for(self.workload),
            context.globals,
        )

    def sample(self, rec, layout, variant, calibrator=None):
        """One timed entry call, inputs prepared outside the timer;
        returns ``(seconds, calibration seconds or None)``, the
        calibration measured between the preparation and the call."""
        name = self.name
        if layout == "interp":
            ir = self.ir["object"]
            heap, root = ops.build(
                rec, self.workload, ir, self.interp_spec, name
            )
            cal = calibrator.measure() if calibrator else None
            seconds, _ = ops.interp_run(
                rec, ir, heap, root, self.workload, name
            )
            return seconds, cal
        ir = self.ir[layout]
        module = self.module(layout, variant)
        if layout == "object":
            heap, root = ops.build(rec, self.workload, ir, self.spec, name)
            cal = calibrator.measure() if calibrator else None
            seconds, _ = ops.traverse_object(
                rec, module, variant == "fused", heap, root,
                self.workload, name,
            )
            return seconds, cal
        pool = ops.clone(rec, self.master, name)
        _, entries = ops.bind(rec, module, ir, pool, self.workload, name)
        cal = calibrator.measure() if calibrator else None
        seconds = ops.traverse_pooled(
            rec, entries, variant == "fused", pool, name
        )
        return seconds, cal

    def check(self, rec, layout, variant, perturb=False):
        """Run one fresh full-size tree through the case and diff it
        against the interpreter; returns a report or ``None``."""
        name = self.name
        ir = self.ir[layout]
        module = self.module(layout, variant)
        heap, root = ops.build(rec, self.workload, ir, self.spec, name)
        before = root.snapshot(ir)
        if layout == "object":
            _, context = ops.traverse_object(
                rec, module, variant == "fused", heap, root,
                self.workload, name,
            )
        else:
            pool = ops.ingest(rec, ir, root, name)
            context, entries = ops.bind(
                rec, module, ir, pool, self.workload, name
            )
            ops.traverse_pooled(rec, entries, variant == "fused", pool, name)
            ops.write_back(rec, pool, heap, name)
        ops.collect(rec, ir, heap, root, name)
        after = root.snapshot(ir)
        if perturb:
            after = dict(after, __perturbed__=True)
        record = make_record(
            f"{variant}/{layout}",
            before,
            after,
            globals_for(self.workload),
            context.globals,
        )
        return diff_report(self.reference, record)


def setup(rec, seed, tiny):
    """Compile cold (fresh memory tier), build, ingest, compute the
    reference outputs and warm every case once."""
    tier = MemoryTier()
    programs = {
        name: Program(rec, name, seed, tier, tiny) for name in PROGRAMS
    }
    for name, layout, variant in CASES + INTERP_CASES:
        programs[name].sample(rec, layout, variant)
    return programs


def run(state, rec, outcome, seed, seconds, traced=False, perturb=False):
    programs = state
    rng = seeded(seed, "traverse-order")
    # case -> [(seconds, calibration seconds)]
    samples = {case: [] for case in CASES + INTERP_CASES}
    # the traced run alternates recording rounds with plain ones, so
    # the trace's own cost is measured in the same process
    plain = {case: [] for case in CASES}
    recording = rec.enabled
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        order = list(samples)
        rng.shuffle(order)
        gc.collect()
        rec.enabled = recording and (not traced or rounds % 2 == 0)
        for case in order:
            name, layout, variant = case
            pair = programs[name].sample(
                rec, layout, variant, outcome.calibrator
            )
            outcome.attempted += 1
            if traced and not rec.enabled and case in plain:
                plain[case].append(pair)
            else:
                samples[case].append(pair)
        rounds += 1
    rec.enabled = recording

    for index, (name, layout, variant) in enumerate(CASES):
        outcome.attempted += 1
        report = programs[name].check(
            rec, layout, variant, perturb=perturb and index == 0
        )
        if report is not None:
            outcome.fail(f"traverse {name}/{layout}/{variant}: {report}")

    def raw_ms(case):
        return median(raw for raw, _ in samples[case]) * 1e3

    def norm_ms(pairs):
        return median(normalized(pairs)) * 1e3

    for (layout, variant), metric in RUN_METRICS.items():
        per_program = {
            name: raw_ms((name, layout, variant)) for name in PROGRAMS
        }
        count = len(samples[(PROGRAMS[0], layout, variant)])
        outcome.row(
            metric,
            geomean(per_program.values()),
            "ms",
            f"geo-mean of per-program medians, n={count} per program",
        )
        for name, value in per_program.items():
            outcome.row(f"{metric}.{name}", value, "ms", f"median, n={count}")
    for name in PROGRAMS:
        for layout in LAYOUTS:
            outcome.row(
                f"fused_over_unfused.{name}.{layout}",
                raw_ms((name, layout, "fused"))
                / raw_ms((name, layout, "unfused")),
                "ratio",
                "median fused / median unfused",
            )
    headline = [(name, "object", "fused") for name in PROGRAMS]
    all_pairs = [pair for pairs in samples.values() for pair in pairs]
    outcome.metrics["p50_ms"] = (
        geomean(norm_ms(samples[case]) for case in headline),
        "ms",
        geomean(raw_ms(case) for case in headline),
    )
    outcome.metrics["ops_per_s"] = (
        len(all_pairs) / sum(normalized(all_pairs)),
        "1/s",
        len(all_pairs) / sum(raw for raw, _ in all_pairs),
    )
    if traced:
        outcome.cold_results = {
            name: [program.results["object"]]
            for name, program in programs.items()
        }
        traced_ms = geomean(norm_ms(samples[case]) for case in headline)
        plain_ms = geomean(norm_ms(plain[case]) for case in headline)
        outcome.sample("trace.overhead_pct", 100.0 * (traced_ms / plain_ms - 1))
        for layout in LAYOUTS:
            outcome.sample(
                f"codegen.fused_over_unfused.{layout}",
                geomean(
                    raw_ms((n, layout, "fused")) / raw_ms((n, layout, "unfused"))
                    for n in PROGRAMS
                ),
            )
    return outcome
