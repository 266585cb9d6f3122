"""Asyncio front door for serving: admit, batch, route.

One :class:`FrontDoor` instance owns all admission and batching policy
for a serving backend: the multi-process
:class:`~repro.serve.cluster.ServeCluster` or the in-process
:class:`~repro.serve.engine.InferenceEngine`.  It is the only
admission layer in the package.  Per model spec it keeps a bounded
:class:`asyncio.Queue` and one batcher coroutine that coalesces
requests (up to ``max_batch``, waiting at most ``max_wait_s`` for
stragglers) and dispatches whole batches to the backend (a cluster
routes each to its least-loaded eligible replica).  Operational
behaviour:

- **load shedding** — a full queue fails ``submit`` fast with
  :class:`~repro.errors.ServiceOverloadError`
  (``serve.requests_shed``), or serves the request from
  ``fallback_spec`` marked ``degraded=True``
  (``serve.requests_fallback``);
- **deadlines** — requests that expire while queued resolve to
  :class:`~repro.errors.ServiceTimeoutError`
  (``serve.deadline_missed``) instead of wasting replica time;
- **backpressure** — a per-spec semaphore bounds batches in flight to
  2x the eligible replica count (an engine counts as one replica), so
  a slow replica backs traffic up into the bounded queue (where
  shedding happens) rather than growing an unbounded dispatch backlog;
- **warm-on-miss** (cluster only) — a request for a spec the cluster
  has not published yet never blocks the door behind a train-or-load:
  it triggers the cluster's background ``warm_async`` (journaled
  ``registry.warmup``, deduplicated per spec) and is immediately
  degraded to ``fallback_spec`` when that is already warm, or shed
  with a retry hint (``registry.warmup_triggered``).  A retry after
  the warm-up lands is served from the registry's warm tier.

This module is **strictly non-blocking**: every wait is an ``await``.
``tools/serve_lint.py`` (tier-1) rejects any blocking call — sleeps,
synchronous file or socket I/O, ``Future.result`` — appearing here, so
the event loop can never stall behind a stray synchronous call.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigError, ServiceOverloadError, ServiceTimeoutError
from repro.serve.engine import Prediction
from repro.serve.spec import ModelSpec

#: Queue sentinel: a batcher drains remaining items and exits on it.
_STOP = object()


@dataclass
class _Pending:
    spec: ModelSpec
    image: np.ndarray
    request_id: int
    future: "asyncio.Future[Prediction]"
    deadline: float
    enqueued_s: float = field(default_factory=monotonic)


class FrontDoor:
    """Admission control and micro-batching over a serving backend.

    Parameters
    ----------
    cluster:
        A started :class:`~repro.serve.cluster.ServeCluster` or an
        :class:`~repro.serve.engine.InferenceEngine` (anything with
        ``resolve`` / ``submit_batch`` / ``replica_count`` /
        ``stats``).  The front door owns routing policy only; the
        backend owns models and weights.  A backend without
        ``is_warm`` (the engine) loads a cold spec on its first
        batch instead of taking the warm-on-miss path.
    queue_size:
        Admission bound per spec; a full queue sheds (or degrades).
    max_batch:
        Largest batch handed to a replica in one dispatch.
    max_wait_s:
        How long a non-empty batch waits for stragglers.
    timeout_s:
        Per-request deadline, measured from admission.
    fallback_spec:
        Optional cheaper spec served (marked ``degraded=True``) when a
        queue is saturated, instead of shedding.
    """

    def __init__(
        self,
        cluster,
        *,
        queue_size: int = 64,
        max_batch: int = 8,
        max_wait_s: float = 0.005,
        timeout_s: float = 30.0,
        fallback_spec: Optional[ModelSpec] = None,
    ):
        if queue_size < 1:
            raise ConfigError(f"queue_size must be >= 1, got {queue_size}")
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if timeout_s <= 0:
            raise ConfigError(f"timeout_s must be > 0, got {timeout_s}")
        self.cluster = cluster
        self.queue_size = queue_size
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.timeout_s = timeout_s
        self.fallback_spec = fallback_spec
        registry = cluster.stats().registry
        self._shed = registry.counter("serve.requests_shed")
        self._fallbacks = registry.counter("serve.requests_fallback")
        self._warmups_triggered = registry.counter(
            "registry.warmup_triggered"
        )
        self._deadline_missed = registry.counter("serve.deadline_missed")
        self._door_depth = registry.gauge("serve.frontdoor_depth")
        self._queues: Dict[str, asyncio.Queue] = {}
        self._batchers: Dict[str, asyncio.Task] = {}
        self._dispatch_slots: Dict[str, asyncio.Semaphore] = {}
        self._dispatches: set = set()
        self._draining = False

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def submit(
        self, spec: ModelSpec, image, request_id: int
    ) -> "asyncio.Future[Prediction]":
        """Admit one request; the returned future resolves to its
        :class:`~repro.serve.engine.Prediction`.

        A saturated queue either degrades to ``fallback_spec`` or
        raises :class:`~repro.errors.ServiceOverloadError` immediately
        — admission never waits.  Nor does a cold spec: a request for
        an unpublished model starts the cluster's background warm-up
        and is degraded or shed right away (retry once warm).
        """
        if self._draining:
            raise ServiceOverloadError("front door is draining")
        spec = self.cluster.resolve(spec)
        token = spec.token()
        warm_probe = getattr(self.cluster, "is_warm", None)
        if warm_probe is not None and not warm_probe(token):
            return await self._handle_cold(spec, token, image, request_id)
        queue = self._ensure_lane(token)
        item = _Pending(
            spec=spec,
            image=np.asarray(image, dtype=np.float32),
            request_id=int(request_id),
            future=asyncio.get_running_loop().create_future(),
            deadline=monotonic() + self.timeout_s,
        )
        try:
            queue.put_nowait(item)
            self._door_depth.inc()
        except asyncio.QueueFull:
            if self.fallback_spec is not None:
                self._fallbacks.inc()
                return await self._degrade(item)
            self._shed.inc()
            raise ServiceOverloadError(
                f"front door queue for {token!r} is full "
                f"({self.queue_size} pending); back off and retry, or "
                "configure fallback_spec for degradation"
            ) from None
        return item.future

    async def classify(
        self, spec: ModelSpec, image, request_id: int
    ) -> Prediction:
        """Submit one request and await its prediction."""
        future = await self.submit(spec, image, request_id)
        return await future

    async def drain(self) -> None:
        """Stop admitting, flush every lane, await in-flight batches."""
        self._draining = True
        for queue in self._queues.values():
            queue.put_nowait(_STOP)
        if self._batchers:
            await asyncio.gather(
                *self._batchers.values(), return_exceptions=True
            )
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)
        self._batchers.clear()
        self._queues.clear()

    # ------------------------------------------------------------------
    # lanes and batching
    # ------------------------------------------------------------------
    def _ensure_lane(self, token: str) -> asyncio.Queue:
        queue = self._queues.get(token)
        if queue is None:
            queue = asyncio.Queue(maxsize=self.queue_size)
            self._queues[token] = queue
            # 2x the eligible replicas: enough in-flight batches to
            # keep every replica busy, few enough that a stall backs
            # up into the bounded queue where shedding applies.
            slots = max(2, 2 * self.cluster.replica_count())
            self._dispatch_slots[token] = asyncio.Semaphore(slots)
            self._batchers[token] = asyncio.get_running_loop().create_task(
                self._batcher(token, queue), name=f"frontdoor-{token}"
            )
        return queue

    async def _collect_batch(self, queue: asyncio.Queue):
        """Coalesce up to ``max_batch`` live requests from one lane.

        Waits indefinitely for the first request, then at most
        ``max_wait_s`` total for stragglers.  Expired requests are
        resolved to timeout errors here — before they cost a replica
        anything.  Returns ``(batch, stop)``; the batch can be empty
        without stopping when every collected request had expired.
        """
        batch: List[_Pending] = []
        stop = False
        first = await queue.get()
        cutoff = monotonic() + self.max_wait_s
        item = first
        while True:
            if item is _STOP:
                stop = True
            else:
                self._door_depth.dec()
                if monotonic() >= item.deadline:
                    self._expire(item)
                else:
                    batch.append(item)
            if stop or len(batch) >= self.max_batch:
                break
            remaining = cutoff - monotonic()
            if remaining <= 0:
                break
            try:
                item = await asyncio.wait_for(queue.get(), timeout=remaining)
            except asyncio.TimeoutError:
                break
        return batch, stop

    async def _batcher(self, token: str, queue: asyncio.Queue) -> None:
        """One lane's coalescing loop: collect, dispatch, repeat.

        Dispatch is fire-and-forget behind the lane's semaphore, so a
        batch executing on one replica never stops the next batch from
        being coalesced and routed to another.
        """
        slots = self._dispatch_slots[token]
        while True:
            batch, stop = await self._collect_batch(queue)
            if batch:
                await slots.acquire()
                task = asyncio.get_running_loop().create_task(
                    self._dispatch(token, batch)
                )
                self._dispatches.add(task)
                task.add_done_callback(self._dispatches.discard)
                task.add_done_callback(lambda _t, s=slots: s.release())
            if stop:
                return

    async def _dispatch(self, token: str, batch: List[_Pending]) -> None:
        """Run one batch on the cluster and resolve its futures."""
        spec = batch[0].spec
        images = np.stack([item.image for item in batch])
        request_ids = [item.request_id for item in batch]
        try:
            logits = await asyncio.wrap_future(
                self.cluster.submit_batch(spec, images, request_ids)
            )
        except BaseException as exc:  # noqa: BLE001 - report per request
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        now = monotonic()
        stats = self.cluster.stats()
        latencies = [now - item.enqueued_s for item in batch]
        stats.record_batch(token, latencies)
        for row, item in enumerate(batch):
            if item.future.done():
                continue
            if now >= item.deadline:
                self._expire(item, in_flight=True)
                continue
            item.future.set_result(
                Prediction(
                    request_id=item.request_id,
                    spec=spec,
                    label=int(np.argmax(logits[row])),
                    logits=logits[row],
                    batch_size=len(batch),
                    latency_s=now - item.enqueued_s,
                )
            )

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------
    def _expire(self, item: _Pending, in_flight: bool = False) -> None:
        self._deadline_missed.inc()
        where = "in flight" if in_flight else "in queue"
        if not item.future.done():
            item.future.set_exception(
                ServiceTimeoutError(
                    f"request {item.request_id} missed its "
                    f"{self.timeout_s}s deadline {where}"
                )
            )

    async def _handle_cold(
        self, spec: ModelSpec, token: str, image, request_id: int
    ) -> "asyncio.Future[Prediction]":
        """Admission path for a spec no replica can serve yet.

        Kicks off (or joins) the cluster's deduplicated background
        warm-up, then degrades to ``fallback_spec`` when that is
        already warm — otherwise sheds with a retry hint.  Either way
        the event loop never waits on the train-or-load.
        """
        self._warmups_triggered.inc()
        self.cluster.warm_async(spec)
        fallback_warm = (
            self.fallback_spec is not None
            and self.cluster.is_warm(
                self.cluster.resolve(self.fallback_spec).token()
            )
        )
        if fallback_warm:
            self._fallbacks.inc()
            item = _Pending(
                spec=spec,
                image=np.asarray(image, dtype=np.float32),
                request_id=int(request_id),
                future=asyncio.get_running_loop().create_future(),
                deadline=monotonic() + self.timeout_s,
            )
            return await self._degrade(item)
        self._shed.inc()
        raise ServiceOverloadError(
            f"model {token!r} is not warm; background warm-up started — "
            "retry shortly (or configure a warm fallback_spec)"
        )

    async def _degrade(self, item: _Pending) -> "asyncio.Future[Prediction]":
        """Serve a shed request from the fallback spec, degraded."""
        spec = self.cluster.resolve(self.fallback_spec)
        future = item.future
        try:
            logits = await asyncio.wrap_future(
                self.cluster.submit_batch(
                    spec, item.image[None], [item.request_id]
                )
            )
            now = monotonic()
            self.cluster.stats().record_batch(
                spec.token(), [now - item.enqueued_s], degraded=True
            )
            future.set_result(
                Prediction(
                    request_id=item.request_id,
                    spec=spec,
                    label=int(np.argmax(logits[0])),
                    logits=logits[0],
                    batch_size=1,
                    latency_s=now - item.enqueued_s,
                    degraded=True,
                )
            )
        except BaseException as exc:  # noqa: BLE001 - report to caller
            if not future.done():
                future.set_exception(exc)
        return future


__all__ = ["FrontDoor"]
