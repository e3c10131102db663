"""The ``compile`` workload: the staged pipeline and its storage tiers.

A closed loop with one client. Each round

1. cold-compiles all four programs through ``pipeline.compile`` with a
   fresh ``MemoryTier`` and an empty disk store (a new directory),
2. compiles them again from that disk store with another fresh memory
   tier, as a second process would, touching the lazily exec'd modules,
3. recompiles the render string source after editing one traversal
   (a fresh constant each round) over the round's warm unit layer.

Generated source must be byte-identical across the two cold compiles
(setup's and the round's), the disk compile, and — for the edit — a
cache-free compile of the same edited text. No tree is built.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

from repro.pipeline import CompileOptions
from repro.pipeline import compile as pipeline_compile
from repro.storage import MemoryTier
from repro.workloads.render.schema import RENDER_SOURCE

from perfbench import ops
from perfbench.common import (
    OUT_DIR,
    PROGRAMS,
    Prober,
    geomean,
    median,
    normalized,
    seeded,
    workload_for,
)

# the edited statement lives in Button::setFontStyle
EDIT_ANCHOR = "this->FontSize = size - 1;"
UNIT_PASSES = ("access-analysis", "dependence", "fusion", "emit")


def edited_source(constant: int) -> str:
    if EDIT_ANCHOR not in RENDER_SOURCE:
        raise RuntimeError("render source no longer holds the edit anchor")
    return RENDER_SOURCE.replace(
        EDIT_ANCHOR, f"this->FontSize = size - {constant};"
    )


def sources(result) -> tuple:
    return (result.fused_source, result.unfused_source)


def touch(result) -> None:
    """Force the deferred exec of both generated modules."""
    result.compiled_fused.namespace
    result.compiled_unfused.namespace


class Store:
    """A fresh, empty disk store directory for one round.

    Stores are removed only when the run closes: on the machine the
    benchmark was tuned on (a 2-CPU VM, ext4 mounted with ``discard``),
    deleting a store made the file creations of the next compiles
    1.5-2x slower, by an amount no speed probe follows."""

    def __init__(self, seed, index):
        self.path = OUT_DIR / f"store-{os.getpid()}-{seed}-{index}"
        shutil.rmtree(self.path, ignore_errors=True)

    def bytes(self) -> int:
        return sum(
            f.stat().st_size for f in self.path.rglob("*") if f.is_file()
        )

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def setup(rec, seed, tiny):
    """Reference cold compiles of every program (no disk store)."""
    tier = MemoryTier()
    workloads = {name: workload_for(name) for name in PROGRAMS}
    reference = {}
    for name in PROGRAMS:
        result = ops.compile_program(rec, workloads[name], name, cache=tier)
        touch(result)
        reference[name] = result
    return {
        "workloads": workloads,
        "reference": reference,
        "rounds": 0,
        "stores": [],
    }


def _timed_compile(rec, outcome, *args, **kwargs):
    """One timed compile; returns ``((start, end), result)``, the span
    the run pairs with the machine-speed probes afterwards."""
    gc.disable()
    try:
        start = time.perf_counter()
        result = ops.compile_program(rec, *args, **kwargs)
        end = time.perf_counter()
    finally:
        gc.enable()
    outcome.attempted += 1
    return (start, end), result


def run_round(state, rec, outcome, seed, perturb=False):
    """One cold → disk → edit round; returns the per-kind timings."""
    index = state["rounds"]
    state["rounds"] += 1
    store = Store(seed, index)
    state["stores"].append(store)
    cold_tier = MemoryTier()
    disk_tier = MemoryTier()
    cold, disk, disk_lookup, exec_s, results = {}, {}, {}, {}, {}
    gc.collect()
    for name in PROGRAMS:
        workload = state["workloads"][name]
        cold[name], result = _timed_compile(
            rec, outcome, workload, name,
            cache=cold_tier, cache_dir=str(store.path),
        )
        results[name] = result
        got = sources(result)
        if perturb and name == PROGRAMS[0]:
            got = (got[0] + "#", got[1])
        if got != sources(state["reference"][name]):
            outcome.fail(
                f"compile {name}: two cold compiles emitted different code"
            )
    disk_bytes = store.bytes()
    for name in PROGRAMS:
        workload = state["workloads"][name]
        gc.disable()
        try:
            start = time.perf_counter()
            result = ops.compile_program(
                rec, workload, name,
                cache=disk_tier, cache_dir=str(store.path),
            )
            looked_up = time.perf_counter()
            touch(result)
            end = time.perf_counter()
        finally:
            gc.enable()
        outcome.attempted += 1
        disk[name] = (start, end)
        disk_lookup[name] = looked_up - start
        exec_s[name] = end - looked_up
        if not result.cache_hit:
            outcome.fail(
                f"compile {name}: the disk store did not serve it"
            )
        if sources(result) != sources(state["reference"][name]):
            outcome.fail(
                f"compile {name}: disk output differs from the cold one"
            )
    constant = seeded(seed, "edit", index).randint(2, 10**6)
    text = edited_source(constant)
    edit_s, edited = _timed_compile(
        rec, outcome, state["workloads"]["render"], "render",
        cache=cold_tier, source=text,
    )
    if edited.cache_hit:
        outcome.fail("compile render: the edit was served whole from cache")
    fresh = pipeline_compile(text, options=CompileOptions(use_cache=False))
    if sources(edited) != sources(fresh):
        outcome.fail(
            "compile render: edit recompile differs from a cold compile"
        )
    return {
        "cold": cold,
        "disk": disk,
        "disk_lookup": disk_lookup,
        "exec": exec_s,
        "edit": edit_s,
        "unit_hits": unit_hits(edited),
        "results": results,
        "disk_bytes": disk_bytes,
    }


def unit_hits(result) -> dict:
    """Unit hits / units of each unit-caching pass of one compile."""
    out = {}
    for pass_name in UNIT_PASSES:
        timing = next(t for t in result.timings if t.name == pass_name)
        hits = timing.detail.get("unit_hits", 0)
        out[pass_name] = hits / (hits + timing.detail.get("unit_misses", 0))
    return out


def run(state, rec, outcome, seed, seconds, traced=False, perturb=False):
    recording = rec.enabled
    rounds, plain = [], []
    deadline = time.perf_counter() + seconds
    with Prober(outcome.calibrator) as prober:
        while len(rounds) < 2 or time.perf_counter() < deadline:
            count = len(rounds) + len(plain)
            rec.enabled = recording and (not traced or count % 2 == 0)
            timings = run_round(
                state, rec, outcome, seed, perturb=perturb and not rounds
            )
            # only the traced run reads the results; holding them in an
            # untraced run would grow its memory with every round
            for name, result in timings.pop("results").items():
                if traced:
                    outcome.cold_results.setdefault(name, []).append(result)
            (rounds if rec.enabled or not traced else plain).append(timings)
    rec.enabled = recording
    # each compile becomes (seconds without probing, its calibration)
    for r in rounds + plain:
        for kind in ("cold", "disk"):
            r[kind] = {p: prober.pair(*span) for p, span in r[kind].items()}
        r["edit"] = prober.pair(*r["edit"])
    # in a traced run the plain rounds only serve the overhead figure
    n = len(rounds)

    def raw_ms(kind, program):
        return median(r[kind][program][0] for r in rounds) * 1e3

    def norm_ms(kind, program, of=rounds):
        return median(normalized(r[kind][program] for r in of)) * 1e3

    cold = {p: raw_ms("cold", p) for p in PROGRAMS}
    disk = {p: raw_ms("disk", p) for p in PROGRAMS}
    edit = median(r["edit"][0] for r in rounds) * 1e3
    outcome.row("compile_cold_ms", geomean(cold.values()), "ms",
                f"geo-mean of per-program medians, n={n} per program")
    for name, value in cold.items():
        outcome.row(f"compile_cold_ms.{name}", value, "ms", f"median, n={n}")
    outcome.row("compile_disk_ms", geomean(disk.values()), "ms",
                f"geo-mean of per-program medians, n={n} per program")
    for name, value in disk.items():
        outcome.row(f"compile_disk_ms.{name}", value, "ms", f"median, n={n}")
    outcome.row("recompile_edit_ms", edit, "ms", f"median, n={n}")
    pairs = [
        pair
        for r in rounds
        for pair in [*r["cold"].values(), *r["disk"].values(), r["edit"]]
    ]
    headline = geomean(norm_ms("cold", p) for p in PROGRAMS)
    outcome.metrics["p50_ms"] = (headline, "ms", geomean(cold.values()))
    outcome.metrics["ops_per_s"] = (
        len(pairs) / sum(normalized(pairs)),
        "1/s",
        len(pairs) / sum(raw for raw, _ in pairs),
    )
    if traced:
        untraced = geomean(norm_ms("cold", p, plain) for p in PROGRAMS)
        outcome.sample("trace.overhead_pct", 100.0 * (headline / untraced - 1))
        for pass_name, ratio in rounds[-1]["unit_hits"].items():
            outcome.sample(f"pipeline.recompile_unit_hits.{pass_name}", ratio)
        for r in rounds:
            outcome.sample(
                "storage.disk_hit_ms", geomean(r["disk_lookup"].values()) * 1e3
            )
            outcome.sample("storage.disk_bytes", r["disk_bytes"])
            outcome.sample(
                "codegen.module_exec_ms", sum(r["exec"].values()) * 1e3
            )
    return outcome


def close(state) -> None:
    for store in state["stores"]:
        store.remove()
    state["stores"].clear()
