"""Tests for the in-process serving engine.

The load-bearing property: a prediction is a pure function of
``(spec, seed, request_id, image)`` — batch composition must never
change what a request gets back.  Batched traffic reaches the engine
through the front door (:class:`~repro.serve.ClusterService`).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import ClusterService, InferenceEngine, ModelSpec

from .conftest import AMS_SPEC, QUANT_SPEC


@pytest.fixture(scope="module")
def warm_engine(serve_bench):
    """An engine with the test specs already built."""
    return InferenceEngine(serve_bench).warm(AMS_SPEC, QUANT_SPEC)


class TestValidation:
    def test_knob_bounds(self, serve_bench):
        for kwargs in (dict(max_models=0), dict(backend="tpu")):
            with pytest.raises(ConfigError):
                InferenceEngine(serve_bench, **kwargs)


class TestDeterminism:
    def test_labels_invariant_across_worker_counts(
        self, warm_engine, val_images
    ):
        """Same requests from 1 vs 4 client threads give identical labels.

        Uses the noisy AMS spec so the per-request noise streams are
        exercised: under a whole-batch draw, noise would depend on
        batch composition and this would flake.
        """
        images = val_images[:24]
        runs = []
        for workers in (1, 4):
            with ClusterService(warm_engine, max_batch=8) as service:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = list(
                        pool.map(
                            lambda i: service.submit(AMS_SPEC, images[i], i),
                            range(len(images)),
                        )
                    )
                runs.append([f.result(timeout=60.0) for f in futures])
        labels_1 = [p.label for p in sorted(runs[0], key=lambda p: p.request_id)]
        labels_4 = [p.label for p in sorted(runs[1], key=lambda p: p.request_id)]
        assert labels_1 == labels_4

    def test_repeat_run_is_bitwise_identical(self, warm_engine, val_images):
        """Resubmitting the same request ids reproduces exact logits."""
        images = val_images[:6]
        first = warm_engine.classify_direct(AMS_SPEC, images)
        second = warm_engine.classify_direct(AMS_SPEC, images)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.logits, b.logits)
            assert a.label == b.label

    def test_request_id_keys_the_noise(self, warm_engine, val_images):
        """Different request ids draw different noise on the same image."""
        image = val_images[0]
        a = warm_engine.classify_direct(AMS_SPEC, [image], request_ids=[0])[0]
        b = warm_engine.classify_direct(AMS_SPEC, [image], request_ids=[1])[0]
        assert not np.array_equal(a.logits, b.logits)

    def test_noiseless_spec_ignores_request_id(self, warm_engine, val_images):
        image = val_images[0]
        a = warm_engine.classify_direct(QUANT_SPEC, [image], request_ids=[0])[0]
        b = warm_engine.classify_direct(QUANT_SPEC, [image], request_ids=[7])[0]
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_batched_matches_direct(self, warm_engine, val_images):
        """Front-door batches give each row its solo-forward answer.

        Uses the noisy AMS spec so the per-request noise streams are
        exercised: under a whole-batch draw, noise would depend on
        batch composition and the labels would drift.
        """
        images = val_images[:24]
        solo = [
            warm_engine.classify_direct(AMS_SPEC, [img], request_ids=[i])[0]
            for i, img in enumerate(images)
        ]
        with ClusterService(warm_engine, max_batch=4) as service:
            batched = service.classify(AMS_SPEC, images)
        assert max(p.batch_size for p in batched) <= 4
        assert [p.label for p in batched] == [p.label for p in solo]


class TestBatching:
    def test_coalesces_up_to_max_batch(self, warm_engine, val_images):
        with ClusterService(
            warm_engine, max_batch=4, max_wait_s=0.05
        ) as service:
            predictions = service.classify(QUANT_SPEC, val_images[:8])
        sizes = [p.batch_size for p in predictions]
        assert max(sizes) > 1, "no coalescing happened at a 50ms window"
        assert max(sizes) <= 4

    def test_mixed_specs_never_share_a_batch(self, warm_engine, val_images):
        with ClusterService(warm_engine, max_batch=8) as service:
            futures = [
                service.submit(AMS_SPEC if i % 2 else QUANT_SPEC, image, i)
                for i, image in enumerate(val_images[:12])
            ]
            predictions = [f.result(timeout=60.0) for f in futures]
        for i, prediction in enumerate(predictions):
            assert prediction.spec == (
                (AMS_SPEC if i % 2 else QUANT_SPEC).resolved(
                    warm_engine.workbench.config
                )
            )


class TestModelCache:
    def test_lru_eviction(self, serve_bench):
        engine = InferenceEngine(serve_bench, max_models=2)
        specs = [
            ModelSpec("fp32"),
            QUANT_SPEC,
            AMS_SPEC,
        ]
        engine.warm(*specs)
        cached = engine.cached_specs()
        assert len(cached) == 2
        resolved = [s.resolved(serve_bench.config) for s in specs]
        # fp32 was the least recently used; the newer two survive.
        assert cached == resolved[1:]

    def test_reuse_moves_to_end(self, serve_bench):
        engine = InferenceEngine(serve_bench, max_models=2)
        engine.warm(ModelSpec("fp32"), QUANT_SPEC)
        engine.warm(ModelSpec("fp32"))  # touch: now most recent
        engine.warm(AMS_SPEC)  # evicts QUANT, not fp32
        cached = engine.cached_specs()
        assert ModelSpec("fp32") in cached
        assert QUANT_SPEC.resolved(serve_bench.config) not in cached


class TestStats:
    def test_counts_and_snapshot(self, serve_bench, val_images):
        engine = InferenceEngine(serve_bench).warm(QUANT_SPEC)
        with ClusterService(engine, max_batch=4) as service:
            service.classify(QUANT_SPEC, val_images[:10])
        snap = engine.stats().snapshot()
        assert snap["requests"] == 10
        spec_stats = snap["specs"][QUANT_SPEC.token()]
        assert spec_stats["requests"] == 10
        assert spec_stats["batches"] >= 3  # max_batch=4 forces >= ceil(10/4)
        assert sum(
            size * count for size, count in spec_stats["batch_hist"].items()
        ) == 10
        assert spec_stats["p95_ms"] >= spec_stats["p50_ms"] >= 0.0
        report = engine.stats().report()
        assert QUANT_SPEC.token() in report
        assert "10 requests" in report
