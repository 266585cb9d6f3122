"""Im2col plan cache: geometry-keyed, batch-size independent."""

from __future__ import annotations

import pytest

from repro.compile import (
    clear_plan_cache,
    compile_model,
    get_plan,
    plan_cache_stats,
)
from repro.serve import ModelSpec
from repro.tensor import im2col as im2col_module


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanCache:
    def test_same_geometry_same_plan_object(self):
        first = get_plan(3, 8, 8, (3, 3), (1, 1), (1, 1))
        second = get_plan(3, 8, 8, (3, 3), (1, 1), (1, 1))
        assert first is second
        stats = plan_cache_stats()
        assert stats["size"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_distinct_geometry_distinct_plan(self):
        base = get_plan(3, 8, 8, (3, 3), (1, 1), (1, 1))
        assert get_plan(3, 8, 8, (3, 3), (2, 2), (1, 1)) is not base
        assert plan_cache_stats()["size"] == 2

    def test_least_recently_used_evicted_past_byte_bound(self, monkeypatch):
        # Three geometries with equally large (6x6 patches of 27) tables.
        a = (3, 8, 8, (3, 3), (1, 1), (0, 0))
        b = (3, 6, 6, (3, 3), (1, 1), (1, 1))
        c = (3, 4, 4, (3, 3), (1, 1), (2, 2))
        table_bytes = get_plan(*a).index.nbytes
        clear_plan_cache()
        monkeypatch.setattr(im2col_module, "_CACHE_BYTES", 2 * table_bytes)
        plan_a, plan_b = get_plan(*a), get_plan(*b)
        assert get_plan(*a) is plan_a  # a is now the most recent
        get_plan(*c)  # over the bound: evicts b
        assert plan_cache_stats()["size"] == 2
        assert get_plan(*a) is plan_a
        assert get_plan(*b) is not plan_b

    def test_reused_across_batches(self, compile_bench, batch):
        """Later runs at other batch sizes build zero new plans.

        Plans are keyed on per-sample geometry, so the conv steps keep
        reusing the plans built on the first run; the steps memoize the
        lookup too, so the global cache sees no further traffic at all.
        """
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        compiled = compile_model(compile_bench.build(spec))
        compiled.predict(batch)
        after_first = plan_cache_stats()
        assert after_first["misses"] > 0
        compiled.predict(batch[:3])
        compiled.predict(batch[:1])
        after_more = plan_cache_stats()
        assert after_more["misses"] == after_first["misses"]
        assert after_more["size"] == after_first["size"]

    def test_shared_across_compiled_models(self, compile_bench, batch):
        """Two compiled models with the same geometry share plans."""
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        first = compile_model(compile_bench.build(spec))
        first.predict(batch)
        after_first = plan_cache_stats()
        second = compile_model(compile_bench.build(spec))
        second.predict(batch)
        after_second = plan_cache_stats()
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] > after_first["hits"]
