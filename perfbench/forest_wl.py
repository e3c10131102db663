"""The ``forest`` workload: batched requests through ``Session.submit``.

A closed loop with two client threads. Each client deals seeded
shuffles of a deck of request shapes — one of the four programs at a
small-to-medium size, a forest of 1-16 trees, object layout for 7 in 10
shapes and pooled for the rest, always fused — submits each request,
and waits for the result before sending the next. Compiles are warm;
the ``Session`` runs on its shipped defaults (two thread workers).
Every tree's ``snapshot_sha`` is checked against a reference computed
in setup by the interpreter.

The layer calls of a request happen inside executor workers, out of
the benchmark's reach, so the traced run replays a sample of the
requests afterwards, step by step, through the same public calls.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, replace

from repro.api import Session
from repro.pipeline.cache import GLOBAL_CACHE

from perfbench import ops
from perfbench.common import (
    FOREST_SIZES,
    LAYOUTS,
    PROGRAMS,
    TINY_SIZES,
    Prober,
    make_spec,
    median,
    normalized,
    peak_rss_mb,
    seeded,
    tail,
    workload_for,
)

CLIENTS = 2
FOREST_TREES = (1, 3, 6, 11, 16)  # trees per request
POOLED_OF_10 = (0, 3, 6)  # deck positions, mod 10, sent in pooled layout
SPEC_SEEDS = 2  # distinct trees per (program, size)
REPLAY_SAMPLE = 48
# peak_rss_mb is read once this many trees are served (see Progress)
RSS_TREES = 2500
TINY_RSS_TREES = 20
OVERRUN_S = 60  # the longest the clients go on past the deadline


@dataclass
class Request:
    program: str
    layout: str
    keys: list  # catalog keys (program, size, seed index), one per tree
    rid: int = 0
    latency: float = 0.0
    end: float = 0.0  # perf_counter when the result arrived
    cal: float = 0.0  # the machine-speed probes while it was in flight
    traced: bool = False


class Progress:
    """Trees served so far, and the peak memory when they reach ``mark``.

    The process's memory grows with the trees it serves (about 25 KB a
    tree on the host the benchmark was tuned on), and how many trees a
    fixed-length run serves follows the host's speed, so the peak at the
    end of a run would follow it too. Read at a fixed number of trees,
    the peak measures the same work on every run; the clients keep
    going past the deadline until the mark is reached."""

    def __init__(self, mark: int):
        self.mark = mark
        self.trees = 0
        self.rss_mb: float | None = None
        self._lock = threading.Lock()

    def add(self, trees: int) -> None:
        with self._lock:
            self.trees += trees
            if self.rss_mb is None and self.trees >= self.mark:
                self.rss_mb = peak_rss_mb()

    def reached(self) -> bool:
        return self.rss_mb is not None


class Catalog:
    """Every tree spec the mix can draw, with its reference hash."""

    def __init__(self, rec, seed, tiny, workloads, results):
        self.sizes = {
            p: (TINY_SIZES[p],) if tiny else FOREST_SIZES[p] for p in PROGRAMS
        }
        self.specs, self.reference = {}, {}
        for program in PROGRAMS:
            workload = workloads[program]
            ir = results[program].program
            for size in self.sizes[program]:
                for index in range(SPEC_SEEDS):
                    key = (program, size, index)
                    spec = make_spec(
                        workload, program, size,
                        seeded(seed, "forest-spec", *key).randrange(10**6),
                    )
                    self.specs[key] = spec
                    heap, root = ops.build(rec, workload, ir, spec, program)
                    ops.interp_run(rec, ir, heap, root, workload, program)
                    summary = ops.collect(rec, ir, heap, root, program)
                    self.reference[key] = summary["snapshot_sha"]

    def deck(self, rng) -> list:
        """One shuffled deck of request shapes: every (program, size,
        forest size) once, pooled for 3 in 10 of them. Clients deal
        whole decks, so every run sends the same mix in a seeded order
        and the median does not depend on which shapes a seed drew."""
        shapes = [
            (program, size, trees)
            for program in PROGRAMS
            for size in self.sizes[program]
            for trees in FOREST_TREES
        ]
        deck = [
            Request(
                program,
                "pooled" if index % 10 in POOLED_OF_10 else "object",
                [(program, size, rng.randrange(SPEC_SEEDS))
                 for _ in range(trees)],
            )
            for index, (program, size, trees) in enumerate(shapes)
        ]
        rng.shuffle(deck)
        return deck


def setup(rec, seed, tiny):
    """Empty the process compile cache, compile every program cold in
    both layouts through a fresh default ``Session``, compute reference
    hashes and send one warm-up request per (program, layout)."""
    GLOBAL_CACHE.clear()
    session = Session()
    options = {l: replace(session.options, layout=l) for l in LAYOUTS}
    workloads = {p: workload_for(p) for p in PROGRAMS}
    results = {}
    for program in PROGRAMS:
        for layout in LAYOUTS:
            with rec.span("pipeline.compile", program=program, layout=layout):
                compiled = session.compile(
                    workloads[program], options=options[layout]
                )
            results.setdefault(program, compiled.result)
    catalog = Catalog(rec, seed, tiny, workloads, results)
    state = {
        "session": session,
        "options": options,
        "workloads": workloads,
        "results": results,
        "catalog": catalog,
        "tiny": tiny,
    }
    for program in PROGRAMS:
        for layout in LAYOUTS:
            key = (program, catalog.sizes[program][0], 0)
            submit(state, Request(program, layout, [key]))
    return state


def submit(state, request: Request):
    """Send one request and wait for it; returns the RequestResult."""
    specs = [state["catalog"].specs[key] for key in request.keys]
    future = state["session"].submit(
        state["workloads"][request.program],
        specs,
        options=state["options"][request.layout],
        fused=True,
    )
    return future.result(timeout=120)


def check(state, request, result) -> str:
    if not result.ok:
        return f"request failed: {result.error}"
    if len(result.trees) != len(request.keys):
        return f"{len(result.trees)} results for {len(request.keys)} trees"
    reference = state["catalog"].reference
    for key, tree in zip(request.keys, result.trees):
        if tree.summary["snapshot_sha"] != reference[key]:
            return f"tree {key} snapshot_sha differs from the interpreter"
    return ""


def client(state, rec, rng, index, deadline, traced, perturb, done, errors,
           progress):
    """One closed-loop client until ``deadline`` and ``progress``'s
    mark; requests it completes go to ``done``, problems to
    ``errors``."""
    count = 0
    deck: list[Request] = []
    try:
        while (now := time.perf_counter()) < deadline or (
            not progress.reached() and now < deadline + OVERRUN_S
        ):
            if not deck:
                deck = state["catalog"].deck(rng)
            request = deck.pop()
            request.rid = index * 1_000_000 + count
            request.traced = traced and count % 2 == 0
            count += 1
            start = time.perf_counter()
            if request.traced:
                with rec.span("exec.request", request=request.rid,
                              program=request.program):
                    result = submit(state, request)
            else:
                result = submit(state, request)
            request.end = time.perf_counter()
            request.latency = request.end - start
            if perturb and request.rid == 0 and result.ok:
                result.trees[0].summary = dict(
                    result.trees[0].summary, snapshot_sha="perturbed"
                )
            problem = check(state, request, result)
            if problem:
                errors.append(
                    f"forest {request.program}/{request.layout}: {problem}"
                )
            done.append(request)
            progress.add(len(request.keys))
    except Exception as error:  # a client must report, never vanish
        errors.append(f"forest client {index}: {error!r}")


def replay(state, rec, outcome, request):
    """Redo one request's steps in this thread, each in its span
    (recording must be on); returns the sum of the step times."""
    program = request.program
    workload = state["workloads"][program]
    with rec.span("replay", request=request.rid) as span:
        start = time.perf_counter()
        result = ops.compile_program(
            rec, workload, program, layout=request.layout, cache=GLOBAL_CACHE
        )
        outcome.sample("storage.memory_hit_ms", (time.perf_counter() - start) * 1e3)
        ir = result.program
        module = result.compiled_fused
        for key in request.keys:
            spec = state["catalog"].specs[key]
            heap, root = ops.build(rec, workload, ir, spec, program)
            if request.layout == "object":
                ops.traverse_object(
                    rec, module, True, heap, root, workload, program
                )
            else:
                pool = ops.ingest(rec, ir, root, program)
                _, entries = ops.bind(rec, module, ir, pool, workload, program)
                ops.traverse_pooled(rec, entries, True, pool, program)
                ops.write_back(rec, pool, heap, program)
            ops.collect(rec, ir, heap, root, program)
    return span.child_seconds


def run(state, rec, outcome, seed, seconds, traced=False, perturb=False):
    """The two clients run for ``seconds`` while the main thread probes
    the machine speed; each request pairs with the probes taken while it
    was in flight."""
    done: list[Request] = []
    errors: list[str] = []
    progress = Progress(TINY_RSS_TREES if state["tiny"] else RSS_TREES)
    gc.collect()
    with Prober(outcome.calibrator) as prober:
        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(
                target=client,
                args=(state, rec, seeded(seed, "forest-client", i), i,
                      deadline, traced, perturb, done, errors, progress),
                name=f"perfbench-client-{i}",
            )
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
    wall = end - start
    outcome.attempted += len(done) + (len(errors) if not done else 0)
    for message in errors:
        outcome.fail(message)
    if not done:
        return outcome
    if progress.reached():
        outcome.rss = (
            progress.rss_mb, f"ru_maxrss after the first {progress.mark} trees"
        )
    for request in done:
        request.cal = prober.cal(request.end - request.latency, request.end)

    latencies = [r.latency * 1e3 for r in done]
    trees = sum(len(r.keys) for r in done)
    p50 = median(latencies)
    outcome.row("forest_trees_per_s", trees / wall, "1/s",
                f"{trees} trees in {wall:.2f} s")
    outcome.row("forest_p50_ms", p50, "ms", f"median, n={len(done)}")
    for layout in LAYOUTS:
        values = [r.latency * 1e3 for r in done if r.layout == layout]
        if values:
            outcome.row(f"forest_p50_ms.{layout}", median(values), "ms",
                        f"median, n={len(values)}")
    if len(latencies) > 10:
        percentile, value = tail(latencies)
        outcome.row("forest_tail_ms", value, "ms",
                    f"p{percentile:.1f}, n={len(latencies)}, 10 beyond")
    paired = [(r.latency, r.cal) for r in done]
    outcome.metrics["p50_ms"] = (median(normalized(paired)) * 1e3, "ms", p50)
    outcome.metrics["ops_per_s"] = (
        # each client is busy from one submit to the next: its busy time
        # is the sum of its requests' normalized latencies
        trees / (sum(normalized(paired)) / CLIENTS), "1/s", trees / wall,
    )

    stats = state["session"].executor.stats()
    outcome.row("service.requests_per_wave",
                stats["completed_requests"] / stats["waves"], "count",
                f"{stats['waves']} waves")
    if traced:
        outcome.cold_results = {
            name: [result] for name, result in state["results"].items()
        }
        traced_p50 = median(normalized(
            (r.latency, r.cal) for r in done if r.traced
        ))
        plain_p50 = median(normalized(
            (r.latency, r.cal) for r in done if not r.traced
        ))
        outcome.sample("trace.overhead_pct", 100.0 * (traced_p50 / plain_p50 - 1))
        outcome.sample(
            "service.requests_per_wave",
            stats["completed_requests"] / stats["waves"],
        )
        sampled = [r for r in done if r.traced]
        step = max(1, len(sampled) // REPLAY_SAMPLE)
        for request in sampled[::step]:
            replayed = replay(state, rec, outcome, request)
            outcome.sample(
                "service.overhead_ms", (request.latency - replayed) * 1e3
            )
    return outcome


def close(state) -> None:
    state["session"].close()
