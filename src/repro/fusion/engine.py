"""The fusion driver (paper §3.3) — one-call entry point.

The monolithic engine that used to live here was decomposed into the
staged pipeline passes of :mod:`repro.pipeline.stages`:

* sequence discovery, greedy grouping and guard merging →
  :class:`repro.pipeline.stages.FusionPlanner` (the *fusion* pass),
* topological body ordering and unit assembly →
  :func:`repro.pipeline.stages.synthesize_fused` (the *schedule* pass).

:func:`fuse_program` runs both passes uncached and deterministically;
``repro.pipeline.compile()`` adds per-pass instrumentation and the
content-addressed compile cache.
"""

from __future__ import annotations

from repro.fusion.fused_ir import FusedProgram
from repro.fusion.grouping import FusionLimits
from repro.ir.program import Program


def fuse_program(
    program: Program, limits: FusionLimits | None = None
) -> FusedProgram:
    """One-call convenience wrapper: program -> fused program (uncached;
    ``repro.pipeline.compile`` adds caching and instrumentation)."""
    # lazy: repro.pipeline.stages imports repro.fusion submodules, so a
    # module-scope import here would cycle through the package __init__
    from repro.pipeline import stages

    return stages.plan_and_synthesize(program, limits)
