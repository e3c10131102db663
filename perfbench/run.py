"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload traverse --seed 1 --seconds 10 --trace 0

Workloads: ``compile``, ``traverse``, ``forest`` (see ``METRICS.md``).
Human-readable rows come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, and the
recorded spans go to ``.perfbench-out/spans-<workload>-<seed>.jsonl``.
The exit code is 0 only when every checked output was correct.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]
WORKLOADS = ("compile", "traverse", "forest")
SETUPS = 3  # set-ups per run; setup_s reports their median


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny trees and a single set-up (the self-test's mode)",
    )
    parser.add_argument(
        "--perturb", action="store_true",
        help="corrupt one output before it is checked (self-test only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # the program under test is the checkout's own source, never an
    # installed copy
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import compile_wl, forest_wl, layers, traverse_wl
    from perfbench.common import (
        OUT_DIR,
        Outcome,
        Prober,
        import_all_repro,
        median,
        normalized,
        peak_rss_mb,
    )
    from perfbench.spans import Recorder

    import_all_repro()
    import_seconds = time.perf_counter() - START
    OUT_DIR.mkdir(exist_ok=True)
    module = {
        "compile": compile_wl,
        "traverse": traverse_wl,
        "forest": forest_wl,
    }[args.workload]
    traced = args.trace == 1
    rec = Recorder(enabled=traced)

    outcome = Outcome()
    setups, state = [], None
    for _ in range(1 if args.tiny else SETUPS):
        if state is not None:
            close(module, state)
        state = None
        gc.collect()
        with Prober(outcome.calibrator) as prober:
            start = time.perf_counter()
            state = module.setup(rec, args.seed, args.tiny)
            end = time.perf_counter()
        raw, cal = prober.pair(start, end)
        setups.append((import_seconds + raw, cal))
    try:
        module.run(
            state, rec, outcome, args.seed, args.seconds,
            traced=traced, perturb=args.perturb,
        )
    finally:
        close(module, state)

    outcome.metrics["setup_s"] = (
        median(normalized(setups)), "s", median(raw for raw, _ in setups)
    )
    outcome.row("calibration_ms", outcome.calibrator.seconds * 1e3, "ms",
                f"median, n={len(outcome.calibrator.samples)}")
    for name, (value, unit, raw) in outcome.metrics.items():
        outcome.row(name, value, unit, f"at reference speed; raw {raw:.4f}")
    rss_mb, rss_note = outcome.rss or (peak_rss_mb(), "ru_maxrss at exit")
    outcome.row("peak_rss_mb", rss_mb, "MB", rss_note)
    outcome.row("failed_ratio", outcome.failed / max(1, outcome.attempted),
                "ratio", f"{outcome.failed} of {outcome.attempted}")
    if traced:
        values, census_spans = layers.collect_layers(
            rec, outcome, args.seed, args.tiny
        )
        units = {name: unit for name, unit, _ in layers.catalog()}
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        }
        rec.spans.extend(census_spans)
        span_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        rec.write(span_file)
        where = span_file.relative_to(ROOT)
        print(f"# {len(rec.spans)} spans written to {where}")
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in outcome.metrics.items()
        }
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{'traced' if traced else 'untraced'}")
    for name, value, unit, note in outcome.rows:
        print(f"{name:<40} {value:>14.4f} {unit:<6} {note}")
    if traced:
        for name, entry in metrics.items():
            print(f"{name:<40} {entry['value']:>14.4f} {entry['unit']}")
    for message in outcome.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def close(module, state) -> None:
    closer = getattr(module, "close", None)
    if closer is not None and state is not None:
        closer(state)


if __name__ == "__main__":
    sys.exit(main())
