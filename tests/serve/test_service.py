"""In-process serving: the front door's policies over the real engine.

``test_frontdoor.py`` unit-tests shedding, degradation and deadlines
against a fake backend; these tests drive the same policies through
:class:`~repro.serve.ClusterService` over an
:class:`~repro.serve.InferenceEngine`.  Holding a spec's registry lock
stalls the engine's executor thread, which backs requests up into the
front door deterministically.
"""

import threading
import time
from concurrent.futures import as_completed
from contextlib import contextmanager

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    ServiceOverloadError,
    ServiceTimeoutError,
)
from repro.serve import ClusterService, InferenceEngine

from .conftest import AMS_SPEC, QUANT_SPEC


@pytest.fixture(scope="module")
def engine(serve_bench):
    return InferenceEngine(serve_bench).warm(AMS_SPEC, QUANT_SPEC)


def _model_lock(engine, spec):
    return engine.registry.entry(engine.resolve(spec)).lock


@contextmanager
def stalled(engine, spec):
    """Batches for ``spec`` wait on the executor until the block exits."""
    with _model_lock(engine, spec):
        yield


def _counter(engine, name, **labels):
    return engine.stats().registry.counter(name, **labels).value


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


class TestValidation:
    def test_knob_bounds(self, engine):
        for kwargs in (
            dict(queue_size=0),
            dict(max_batch=0),
            dict(timeout_s=0.0),
        ):
            with pytest.raises(ConfigError):
                ClusterService(engine, **kwargs)


class TestBackpressure:
    def test_saturation_raises_overload_without_deadlock(
        self, engine, val_images
    ):
        """10 submits into queue_size=1 must shed some, never hang.

        While the engine is stalled nothing admitted can finish, so the
        first answer is a shed; after the stall everything admitted
        still completes.
        """
        image = val_images[0]
        with ClusterService(
            engine, queue_size=1, max_batch=1, max_wait_s=0.0
        ) as service:
            with stalled(engine, QUANT_SPEC):
                futures = [
                    service.submit(QUANT_SPEC, image, i) for i in range(10)
                ]
                first = next(as_completed(futures, timeout=30.0))
                assert isinstance(first.exception(), ServiceOverloadError)
            errors = [f.exception(timeout=30.0) for f in futures]
        shed = sum(isinstance(e, ServiceOverloadError) for e in errors)
        assert 0 < shed < 10
        served = [f.result() for f, e in zip(futures, errors) if e is None]
        assert len(served) == 10 - shed
        assert all(not p.degraded for p in served)

    def test_submit_after_close_is_rejected(self, engine, val_images):
        service = ClusterService(engine)
        service.close()
        with pytest.raises(ServiceOverloadError, match="closed"):
            service.submit(QUANT_SPEC, val_images[0], 0)


class TestDegradation:
    def test_degraded_counted_in_stats(self, engine, val_images):
        """With fallback_spec, saturation degrades instead of shedding,
        and the stats count every degraded request."""
        token = QUANT_SPEC.token()
        before = _counter(engine, "serve.requests_degraded", spec=token)
        fallbacks = _counter(engine, "serve.requests_fallback")
        with ClusterService(
            engine, queue_size=1, max_batch=1, fallback_spec=QUANT_SPEC
        ) as service:
            with stalled(engine, AMS_SPEC):
                futures = [
                    service.submit(AMS_SPEC, val_images[0], i)
                    for i in range(10)
                ]
                _wait_for(
                    lambda: _counter(engine, "serve.requests_fallback")
                    > fallbacks
                )
            predictions = [f.result(timeout=30.0) for f in futures]
        degraded = [p for p in predictions if p.degraded]
        assert degraded, "saturation never triggered the fallback"
        for prediction in degraded:
            assert prediction.spec == engine.resolve(QUANT_SPEC)
        after = _counter(engine, "serve.requests_degraded", spec=token)
        assert after - before == len(degraded)


class TestDeadlines:
    def test_queued_request_times_out(self, engine, val_images):
        """Requests stuck behind a stalled engine miss their deadline,
        whether they were still queued or already dispatched."""
        missed = _counter(engine, "serve.deadline_missed")
        with ClusterService(
            engine, max_batch=1, max_wait_s=0.0, timeout_s=0.2
        ) as service:
            with stalled(engine, QUANT_SPEC):
                futures = [
                    service.submit(QUANT_SPEC, val_images[0], i)
                    for i in range(4)
                ]
                time.sleep(0.4)
            for future in futures:
                with pytest.raises(ServiceTimeoutError, match="deadline"):
                    future.result(timeout=30.0)
        assert _counter(engine, "serve.deadline_missed") - missed == 4

    def test_classify_wraps_timeout(self, engine, val_images):
        lock = _model_lock(engine, QUANT_SPEC)
        with ClusterService(engine, timeout_s=0.2) as service:
            lock.acquire()
            threading.Timer(0.4, lock.release).start()
            with pytest.raises(ServiceTimeoutError):
                service.classify(QUANT_SPEC, val_images[:1])


class TestEndToEnd:
    def test_service_results_match_engine(self, engine, val_images):
        """Routing through the front door changes nothing about the
        answers, and the stats count each request exactly once."""
        images = val_images[:8]
        direct = [
            engine.classify_direct(AMS_SPEC, [img], request_ids=[i])[0]
            for i, img in enumerate(images)
        ]
        token = engine.resolve(AMS_SPEC).token()
        before = _counter(engine, "serve.requests_executed", spec=token)
        with ClusterService(
            engine, max_batch=4, max_wait_s=0.05
        ) as service:
            served = service.classify(AMS_SPEC, images)
        after = _counter(engine, "serve.requests_executed", spec=token)
        assert after - before == len(images)
        assert max(p.batch_size for p in served) > 1
        for a, b in zip(served, direct):
            assert a.request_id == b.request_id
            assert a.label == b.label
            # Solo and batched forwards differ in the last float bits.
            assert np.allclose(a.logits, b.logits, rtol=1e-5, atol=1e-6)
