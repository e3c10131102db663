"""Observability overhead gate: tracing disabled must be free.

Three variants of the same warm compile + execution step, measured
interleaved (one run of each per round, so clock drift hits all
variants equally; successive rounds cycle through all six variant
orders, so no variant always runs first, last, or after the same
neighbour, and every timed step starts from a fresh ``gc.collect()``
with the collector off inside it):

* **floor** — every ``obs`` entry point monkeypatched to a no-op and
  every instrument method stubbed: the cost the code would have if the
  observability layer did not exist;
* **disabled** — the shipped default: ``obs.span(...)`` returns the
  shared noop span, counters still count;
* **enabled** — full span capture into the ring buffer.

Acceptance: the median over rounds of the per-round disabled/floor
time ratio is at most 1.02. Results land in
benchmark_results/obs_overhead.txt.
"""

import gc
import itertools
import statistics
import time
from contextlib import contextmanager, nullcontext

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.pipeline import compile as pipeline_compile
from repro.service.api import WORKLOADS
from repro.service.executor import BatchExecutor
from repro.storage import MemoryTier
from repro.workloads.render.schema import RENDER_SOURCE

ROUNDS = 120
WARMUP = 5


class _DummyInstrument:
    def inc(self, *args, **kwargs):
        pass

    def dec(self, *args, **kwargs):
        pass

    def set(self, *args, **kwargs):
        pass

    def observe(self, *args, **kwargs):
        pass


_DUMMY = _DummyInstrument()


@contextmanager
def _stub_everything():
    """The floor: obs entry points and instrument methods all no-ops."""
    saved_obs = {
        name: getattr(obs, name)
        for name in (
            "span", "span_from", "current_context", "collect_spans",
            "ingest",
        )
    }
    saved_methods = [
        (cls, name, getattr(cls, name))
        for cls, names in (
            (obs_metrics.Counter, ("inc",)),
            (obs_metrics.Gauge, ("set", "inc", "dec")),
            (obs_metrics.Histogram, ("observe",)),
            (obs_metrics.Family, ("labels", "inc", "set", "dec",
                                  "observe")),
        )
        for name in names
    ]
    try:
        obs.span = lambda *a, **k: obs.NOOP_SPAN
        obs.span_from = lambda *a, **k: obs.NOOP_SPAN
        obs.current_context = lambda: None
        obs.collect_spans = lambda *a, **k: nullcontext(None)
        obs.ingest = lambda *a, **k: None
        for cls, name, _ in saved_methods:
            if name == "labels":
                setattr(cls, name, lambda self, **kw: _DUMMY)
            else:
                setattr(cls, name, lambda self, *a, **k: None)
        yield
    finally:
        for name, value in saved_obs.items():
            setattr(obs, name, value)
        for cls, name, original in saved_methods:
            setattr(cls, name, original)


@contextmanager
def _tracing_enabled():
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


VARIANTS = [
    ("floor", _stub_everything),
    ("disabled", nullcontext),
    ("enabled", _tracing_enabled),
]


def _timed(step) -> float:
    """One step's wall time, started from a collected heap with the
    collector off, so no variant pays for another's garbage."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        step()
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_disabled_tracing_overhead_under_two_percent(results_dir):
    cache = MemoryTier()
    pipeline_compile(RENDER_SOURCE, cache=cache)  # warm the result key
    spec = WORKLOADS["render"]

    with BatchExecutor(workers=1, backend="inline") as executor:

        def step():
            result = pipeline_compile(RENDER_SOURCE, cache=cache)
            assert result.cache_hit
            outcome = executor.run(
                [spec.make_request(trees=4, size=2)]
            )
            assert outcome[0].ok

        for _ in range(WARMUP):
            for _, patches in VARIANTS:
                with patches():
                    step()

        series = {name: [] for name, _ in VARIANTS}
        orders = list(itertools.permutations(VARIANTS))
        for index in range(ROUNDS):
            for name, patches in orders[index % len(orders)]:
                with patches():
                    series[name].append(_timed(step))

    medians = {
        name: statistics.median(values) * 1e3
        for name, values in series.items()
    }

    def ratio(name):
        """Median over rounds of this variant's time / the floor's."""
        return statistics.median(
            value / floor
            for value, floor in zip(series[name], series["floor"])
        )

    text = (
        "Observability overhead (warm compile + exec, render x4 "
        f"trees, {ROUNDS} interleaved rounds cycling all variant "
        "orders, GC collected before and off during each step)\n"
        f"floor (instrumentation stubbed out): "
        f"median {medians['floor']:.3f} ms\n"
        f"tracing disabled (shipped default):  "
        f"median {medians['disabled']:.3f} ms "
        f"(median per-round ratio {(ratio('disabled') - 1) * 100:+.2f}%)\n"
        f"tracing enabled (full span capture): "
        f"median {medians['enabled']:.3f} ms "
        f"(median per-round ratio {(ratio('enabled') - 1) * 100:+.2f}%)\n"
        "gate: median per-round disabled/floor ratio <= 1.02"
    )
    print()
    print(text)
    assert ratio("disabled") <= 1.02, text
    # write only after the gate: a failing run must not overwrite a
    # passing run's committed artifact
    (results_dir / "obs_overhead.txt").write_text(text + "\n")
