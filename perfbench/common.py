"""Shared pieces of the benchmark: the program catalog, input sizes,
statistics and the measurement helpers every workload uses."""

from __future__ import annotations

import gc
import importlib
import math
import pkgutil
import random
import resource
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
# scratch stores and span files; listed in the repository .gitignore
OUT_DIR = ROOT / ".perfbench-out"

PROGRAMS = ("render", "astlang", "kdtree", "fmm")
LAYOUTS = ("object", "pooled")
VARIANTS = ("fused", "unfused")

# each workload's make_spec size knob
SIZE_KNOB = {
    "render": "pages",
    "astlang": "functions",
    "kdtree": "depth",
    "fmm": "particles",
}

# paper-figure scale: every traversal sample takes roughly 5-25 ms
TRAVERSE_SIZES = {"render": 128, "astlang": 96, "kdtree": 10, "fmm": 4096}
# the reference interpreter runs ~20x slower than generated code
INTERP_SIZES = {"render": 16, "astlang": 12, "kdtree": 7, "fmm": 512}
# forest requests draw from these small-to-medium sizes
FOREST_SIZES = {
    "render": (1, 2, 4, 8),
    "astlang": (2, 4, 8, 12),
    "kdtree": (3, 4, 5, 6),
    "fmm": (32, 64, 128, 256),
}
# --tiny (the self-test) shrinks every tree to these
TINY_SIZES = {"render": 2, "astlang": 3, "kdtree": 4, "fmm": 48}


def workload_for(name: str):
    """The repro workload bundle behind one benchmark program name."""
    if name == "render":
        from repro.workloads.render import render_workload

        return render_workload()
    if name == "astlang":
        from repro.workloads.astlang import astlang_workload

        return astlang_workload()
    if name == "kdtree":
        from repro.workloads.kdtree import kdtree_workload

        return kdtree_workload()
    if name == "fmm":
        from repro.workloads.fmm import fmm_workload

        return fmm_workload()
    raise ValueError(f"unknown program {name!r}")


def make_spec(workload, program: str, size: int, seed: int):
    return workload.make_spec(**{SIZE_KNOB[program]: size, "seed": seed})


def globals_for(workload) -> dict:
    return dict(workload.globals_map or {})


def import_all_repro() -> None:
    """Import every repro module now, so no lazy first import lands
    inside a timed region."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__"):
            continue  # the CLI entry point runs main() on import
        importlib.import_module(module.name)


def timed(call, *args, clock=time.perf_counter):
    """Run ``call(*args)`` with the garbage collector off; returns
    ``(seconds, result)``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        result = call(*args)
        seconds = clock() - start
    finally:
        if enabled:
            gc.enable()
    return seconds, result


# the calibration op's median time on the machine the benchmark was
# tuned on (a 2-CPU x86-64 container, Python 3.11); only a fixed scale
CALIBRATION_REFERENCE_S = 0.0025
CALIBRATION_DEPTH = 8  # a complete binary tree of 511 cells


class _Cell:
    __slots__ = ("kind", "fields", "address")

    def __init__(self, kind, fields, address):
        self.kind = kind
        self.fields = fields
        self.address = address


def _build(depth: int, seed: int) -> _Cell:
    fields = {f"f{i}": (seed >> i) & 15 for i in range(6)}
    fields["v"] = seed % 13
    fields["w"] = 0
    if depth == 0:
        return _Cell("leaf", fields, seed)
    fields["l"] = _build(depth - 1, (seed * 3 + 1) & 0xFFFF)
    fields["r"] = _build(depth - 1, (seed * 5 + 2) & 0xFFFF)
    return _Cell("node", fields, seed)


def _down(cell: _Cell, acc: int) -> None:
    fields = cell.fields
    fields["w"] = acc + fields["v"] + fields["f1"]
    if cell.kind == "node":
        _down(fields["l"], fields["w"])
        _down(fields["r"], fields["w"] * 2 % 101)


def _up(cell: _Cell) -> int:
    fields = cell.fields
    if cell.kind == "leaf":
        return fields["w"] + fields["f2"]
    total = _up(fields["l"]) + _up(fields["r"])
    fields["v"] = total % 97
    return total


def calibration_op() -> int:
    """A fixed pure-Python task shaped like a tree build plus a
    generated traversal — a fresh tree of dict-field cells, walked down
    and up — and independent of the repro code."""
    root = _build(CALIBRATION_DEPTH, 7)
    _down(root, 0)
    return _up(root)


class Calibrator:
    """Tracks the host's current speed.

    The shared hosts the benchmark runs on change speed by 20-40%
    within a minute, sometimes 2-3x for tens of seconds, in CPU time
    and wall time alike, so raw times of two runs are not comparable.
    Each timed sample is therefore paired with a :meth:`measure` of
    :func:`calibration_op` — taken right before it (``traverse``) or by
    a :class:`Prober` while it runs — and reported as ``raw x
    CALIBRATION_REFERENCE_S / calibration``: the time it would have
    taken at the reference speed (see :func:`normalized`). Of the
    candidates tried (arithmetic loops, random reads over cold and warm
    lists, old and fresh trees), a fresh tree tracked the generated
    code best: IQR/median of 12-second medians 0.02-0.03, against 0.33
    raw."""

    def __init__(self):
        self.samples: list[float] = []

    def measure(self, clock=time.perf_counter) -> float:
        """One calibration (collector off); ``time.thread_time`` as the
        clock leaves out time spent waiting for the GIL."""
        seconds, _ = timed(calibration_op, clock=clock)
        self.samples.append(seconds)
        return seconds

    @property
    def seconds(self) -> float:
        return median(self.samples)


class Prober:
    """Machine-speed probes taken in the main thread while a long or
    concurrent phase runs (compiles, set-ups, forest requests), where
    one adjacent :meth:`Calibrator.measure` cannot represent the whole
    phase.

    A ``SIGALRM`` interval timer runs :func:`calibration_op` between
    bytecodes of whatever the main thread is doing, every ``interval``
    seconds, timed in thread CPU time so a wait for the GIL does not
    count. A phase ``[start, end]`` pairs with the median probe around
    it (:meth:`cal`); for work in the main thread, :meth:`busy` is the
    probing time to take out of its raw time. Probes taken in the work's
    own thread tracked cold compiles to IQR/median 0.03-0.05 where a
    background thread's probes reached only 0.10-0.14."""

    def __init__(self, calibrator: Calibrator, interval: float = 0.05):
        self.calibrator = calibrator
        self.interval = interval
        # (perf_counter at start, wall seconds, thread CPU seconds)
        self.probes: list[tuple[float, float, float]] = []
        self._previous = None
        self._probing = False

    def _probe(self, signum, frame) -> None:
        # a probe kept from the GIL past the interval must not be
        # re-entered by the next signal
        if self._probing:
            return
        self._probing = True
        try:
            start = time.perf_counter()
            cpu = self.calibrator.measure(time.thread_time)
            self.probes.append((start, time.perf_counter() - start, cpu))
        finally:
            self._probing = False

    def __enter__(self) -> "Prober":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, end: float) -> float:
        """Wall seconds spent probing inside ``[start, end]``."""
        return sum(wall for at, wall, _ in self.probes if start <= at < end)

    def cal(self, start: float, end: float, margin: float = 0.1) -> float:
        """The median probe within ``margin`` of ``[start, end]``, or the
        nearest probe when none is that close."""
        near = [
            cpu for at, _, cpu in self.probes
            if start - margin <= at <= end + margin
        ]
        if near:
            return median(near)
        middle = (start + end) / 2
        return min(self.probes, key=lambda probe: abs(probe[0] - middle))[2]

    def pair(self, start: float, end: float) -> tuple[float, float]:
        """``(raw seconds without probing, calibration)`` of main-thread
        work that ran from ``start`` to ``end``."""
        return end - start - self.busy(start, end), self.cal(start, end)


def normalized(pairs) -> list[float]:
    """``(raw, calibration)`` pairs -> times at the reference speed."""
    return [raw * CALIBRATION_REFERENCE_S / cal for raw, cal in pairs]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it:
    returns ``(percentile, value)``; needs more than ``beyond`` samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= beyond:
        raise ValueError(f"{count} samples leave no tail of {beyond}")
    # the sample at index k has count-1-k samples above it
    index = count - 1 - beyond
    return 100.0 * index / (count - 1), ordered[index]


def seeded(seed: int, *salt) -> random.Random:
    """A private RNG per purpose, derived from the benchmark seed."""
    return random.Random(":".join(str(part) for part in (seed,) + salt))


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    # end-to-end metrics: name -> (normalized value, unit, raw value)
    metrics: dict = field(default_factory=dict)
    # human-readable extra rows: (name, value, unit, note)
    rows: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    calibrator: Calibrator = field(default_factory=Calibrator)
    # per-layer inputs the traced run collects
    # program -> [CompileResult of a cold compile]
    cold_results: dict = field(default_factory=dict)
    layer_samples: dict = field(default_factory=dict)  # metric -> [values]
    # peak_rss_mb when the workload reads it at a fixed amount of work
    # (with a note saying where); None means at the end of the run
    rss: Optional[tuple] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def row(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.rows.append((name, value, unit, note))

    def sample(self, metric: str, value: float) -> None:
        self.layer_samples.setdefault(metric, []).append(value)
