"""Request grouping by compiled artifact and forest sharding."""

import pytest

from repro.api.workload import Workload
from repro.pipeline import CompileOptions
from repro.service.batching import (
    ExecRequest,
    group_requests,
    shard_group,
    shard_indexes,
)

from tests.fixtures import FIG1_SOURCE, FIG2_SOURCE


def _noop_build(program, heap, spec):  # pragma: no cover - never run here
    raise AssertionError("batching tests do not execute trees")


def request(source=FIG2_SOURCE, trees=4, pure_impls=None, **kw):
    workload = Workload.from_source(
        "batching", source, _noop_build, pure_impls=pure_impls
    )
    return ExecRequest.from_workload(workload, list(range(trees)), **kw)


class TestGrouping:
    def test_same_source_and_options_share_a_group(self):
        groups = group_requests([request(), request(), request()])
        assert len(groups) == 1
        assert len(groups[0].requests) == 3
        assert groups[0].tree_count == 12

    def test_different_source_splits(self):
        groups = group_requests([request(FIG2_SOURCE), request(FIG1_SOURCE)])
        assert len(groups) == 2

    def test_different_options_split(self):
        groups = group_requests(
            [
                request(),
                request(options=CompileOptions(mode="treefuser")),
            ]
        )
        assert len(groups) == 2

    def test_different_impls_split(self):
        # two requests for the same text with different bound impls
        # must not share an artifact (the impls are baked in)
        groups = group_requests(
            [
                request(pure_impls={"f": lambda x: x}),
                request(pure_impls={"f": lambda x: -x}),
            ]
        )
        assert len(groups) == 2

    def test_group_key_is_the_cache_key(self):
        req = request()
        [group] = group_requests([req])
        assert group.key == req.compile_key()

    def test_request_ids_are_unique(self):
        ids = {request().request_id for _ in range(10)}
        assert len(ids) == 10


class TestConstruction:
    def test_missing_workload_raises_type_error(self):
        with pytest.raises(TypeError):
            ExecRequest(trees=[])

    def test_unknown_mode_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown execution mode"):
            request(mode="jit")


class TestSharding:
    def test_shards_partition_the_range(self):
        for count in (1, 2, 7, 16, 64):
            for shards in (1, 2, 3, 8, 100):
                parts = shard_indexes(count, shards)
                flat = [i for part in parts for i in part]
                assert flat == list(range(count))
                assert len(parts) <= max(1, min(shards, count))
                sizes = [len(p) for p in parts]
                assert max(sizes) - min(sizes) <= 1  # near-equal blocks

    def test_shard_group_scales_with_workers(self):
        [group] = group_requests([request(trees=16)])
        shards = shard_group(group, workers=2, shards_per_worker=2)
        assert len(shards) == 4
        assert sorted(i for s in shards for i in s.indexes) == list(range(16))

    def test_empty_forest_produces_no_shards(self):
        [group] = group_requests([request(trees=0)])
        assert shard_group(group, workers=4) == []

    def test_multiple_requests_shard_independently(self):
        [group] = group_requests([request(trees=6), request(trees=3)])
        shards = shard_group(group, workers=1, shards_per_worker=1)
        assert len(shards) == 2
        by_request = {s.request.request_id: s.indexes for s in shards}
        assert sorted(len(v) for v in by_request.values()) == [3, 6]


# -- request identity ----------------------------------------------------
#
# compile_key() addresses a request's artifact in every warm store and
# decides wave grouping. These digests were captured from the shipped
# workloads; a refactor that moves them silently cold-starts every
# store and splits waves that used to batch.

_RENDER = "c0c8460cc9ae356ba6bcd9ba7fad684f2f1b9002be1778dacef09e411e291f71"
_ASTLANG = "c4561e48fcb5afeecff7125d2fb8ad9dedd8891b329dc01b88a71f3adc8fdf10"
_KDTREE = "5cc564ccb9ee4fb408ae77512e33d5adc3853da0410ba7b758f087b1f0b81a1f"
_FMM = "c7f3d4e22915e932c83121b290e749193a9eeb158115eebdc078af023f420491"
_RENDER_TEXT = (
    "700c8ea64a443a0264ed4dee39193d050787f403e0bac9346585bdd264b036cc"
)
_DEFAULT_OPTIONS = (
    "b5bdce11807f47578b033c4ef498310d0b8889eef72384e6ac2dc4703c04d3b9"
)
_POOLED_OPTIONS = (
    "06b48b39bb9d338097c04f3a264d387ebd3df8568e2195e2648fe3ccbaff791a"
)


def _pinned_workloads():
    from repro.api.workload import Workload
    from repro.workloads.astlang import astlang_workload
    from repro.workloads.fmm import fmm_workload
    from repro.workloads.kdtree import kdtree_workload
    from repro.workloads.render import (
        DEFAULT_GLOBALS,
        RENDER_PURE_IMPLS,
        RENDER_SOURCE,
        build_document,
        render_workload,
    )

    return {
        "render": render_workload(),
        "astlang": astlang_workload(),
        "kdtree": kdtree_workload(),
        "fmm": fmm_workload(),
        "render-text": Workload.from_source(
            "render-text",
            RENDER_SOURCE,
            build_document,
            pure_impls=RENDER_PURE_IMPLS,
            globals_map=DEFAULT_GLOBALS,
        ),
    }


class TestRequestIdentityPins:
    SOURCE_HASHES = {
        "render": _RENDER,
        "astlang": _ASTLANG,
        "kdtree": _KDTREE,
        "fmm": _FMM,
        "render-text": _RENDER_TEXT,
    }

    def test_compile_keys_are_pinned(self):
        for name, workload in _pinned_workloads().items():
            source_hash = self.SOURCE_HASHES[name]
            assert workload.request([0]).compile_key() == (
                source_hash, _DEFAULT_OPTIONS
            ), name
            pooled = workload.request(
                [0], options=CompileOptions(layout="pooled")
            )
            assert pooled.compile_key() == (
                source_hash, _POOLED_OPTIONS
            ), name
            interp = workload.request([0], mode="interpret")
            assert interp.compile_key() == (
                source_hash, f"interp:{_DEFAULT_OPTIONS}"
            ), name

    def test_wave_grouping_is_pinned(self):
        w = _pinned_workloads()
        requests = [
            w["render"].request([0, 1]),
            w["astlang"].request([0]),
            w["render-text"].request([0]),
            w["render"].request([0], mode="interpret"),
            w["render"].request([0, 1, 2]),
            w["fmm"].request([0]),
            w["kdtree"].request([0]),
            w["render-text"].request([0]),
        ]
        groups = group_requests(requests)
        assert [
            (group.key, [requests.index(r) for r in group.requests])
            for group in groups
        ] == [
            ((_RENDER, _DEFAULT_OPTIONS), [0, 4]),
            ((_ASTLANG, _DEFAULT_OPTIONS), [1]),
            ((_RENDER_TEXT, _DEFAULT_OPTIONS), [2, 7]),
            ((_RENDER, f"interp:{_DEFAULT_OPTIONS}"), [3]),
            ((_FMM, _DEFAULT_OPTIONS), [5]),
            ((_KDTREE, _DEFAULT_OPTIONS), [6]),
        ]
        assert [group.tree_count for group in groups] == [5, 1, 2, 1, 1, 1]
