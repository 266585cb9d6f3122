"""In-process serving backend over the workbench's trained models.

The engine is the single-process counterpart of
:class:`~repro.serve.cluster.ServeCluster`: it exposes the same small
duck-typed backend surface (``resolve`` / ``submit_batch`` /
``replica_count`` / ``stats``), so one admission layer —
:class:`~repro.serve.frontdoor.FrontDoor`, or its blocking facade
:class:`~repro.serve.cluster.ClusterService` — batches, sheds,
degrades and enforces deadlines for both.  The engine itself brings:

- a **warm model pool**: the engine's models live in a
  :class:`repro.registry.ModelRegistry` warm tier (LRU, capacity
  ``max_models``), so the working set of hot models stays built while
  cold specs are demoted; a miss promotes from the on-disk cold tier
  (or trains, on a true miss) through the same registry path every
  other consumer uses;
- **one executor thread**: :meth:`InferenceEngine.submit_batch` runs
  each ready-made batch on a single thread the engine owns, so the
  front door's event loop never waits on a forward pass;
- **per-request deterministic noise**: before each batch forward, every
  AMS injector gets one generator per batch *row*, derived from
  ``point_seed_sequence(seed, request_id)`` — a request's injected
  error depends only on ``(spec, seed, request_id)``, never on which
  other requests happened to share its batch.  Logits are therefore
  bit-identical for a fixed batch composition; across compositions
  BLAS may sum in another order, and a quantizer can turn that last-bit
  difference into a whole level.

Each executed batch runs under an ``obs.span("serve.batch")`` trace
span, which forwards into the op profiler, so ``--profile-ops``
decomposes serving time with the same tooling the training paths use.
Request-level telemetry lives in :meth:`InferenceEngine.stats` — an
:class:`~repro.serve.stats.EngineStatsView` over the engine's own
:class:`~repro.obs.MetricRegistry` (``serve.*`` metrics: executed /
degraded request counters, exact batch-size histogram,
compiled-vs-interpreted batch counters).  Batches dispatched through
the front door are recorded there by the front door; the engine
records only its synchronous :meth:`~InferenceEngine.classify_direct`
calls.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.serve.executor import forward_with_request_noise
from repro.serve.spec import ModelSpec
from repro.serve.stats import EngineStatsView


@dataclass
class Prediction:
    """The answer to one classify request."""

    request_id: int
    spec: ModelSpec
    label: int
    logits: np.ndarray
    batch_size: int
    latency_s: float
    degraded: bool = False


class InferenceEngine:
    """In-process serving backend: warm models plus one executor thread.

    Parameters
    ----------
    workbench:
        Anything with ``.config`` and a train-or-load path — normally a
        :class:`repro.experiments.common.Workbench`.
    seed:
        Root of the per-request noise streams (default: the workbench
        config's seed).  Predictions are a pure function of
        ``(spec, seed, request_id, image)``.
    max_models:
        Warm-tier LRU capacity of the engine's model registry
        (ignored when an explicit ``registry`` is supplied).
    compile_models:
        Lower cached models to the fused tape-free executor
        (:mod:`repro.compile`) when they load, and serve batches
        through it.  Predictions are bit-identical either way —
        including per-request AMS noise — so this is purely a speed
        knob; pass ``False`` to force the interpreted forward.
    backend:
        Compiled execution backend for this engine (``"reference"`` /
        ``"fast"`` / ``"auto"``); ``None`` uses the process-wide
        :func:`repro.compile.default_backend`.  The reference backend
        keeps the bit-identity guarantee above; the fast backend trades
        it for speed within a documented tolerance
        (:data:`repro.compile.backends.fast.PARITY_ATOL`).
    registry:
        Share an existing :class:`repro.registry.ModelRegistry` (e.g.
        a cluster's) instead of building a private one; the registry's
        own capacity/compile knobs then apply.
    """

    def __init__(
        self,
        workbench,
        *,
        seed: Optional[int] = None,
        max_models: int = 4,
        compile_models: bool = True,
        backend: Optional[str] = None,
        registry=None,
    ):
        if max_models < 1:
            raise ConfigError(f"max_models must be >= 1, got {max_models}")
        self.workbench = workbench
        self.seed = workbench.config.seed if seed is None else seed
        self.max_models = max_models
        self.compile_models = compile_models
        if backend is not None:
            from repro.compile import available_backends

            if backend not in available_backends():
                raise ConfigError(
                    f"unknown backend {backend!r} "
                    f"(known: {', '.join(available_backends())})"
                )
        self.backend = backend
        self._stats = EngineStatsView()
        if registry is None:
            from repro.registry import ModelRegistry

            registry = ModelRegistry(
                workbench,
                warm_max_entries=max_models,
                metrics=self._stats.registry,
                compile_models=compile_models,
                backend=backend,
            )
        self.registry = registry
        # The thread starts on the first submit_batch; stop() (or
        # garbage collection of the engine) ends it.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-batch"
        )

    # ------------------------------------------------------------------
    # backend surface consumed by repro.serve.frontdoor.FrontDoor
    # ------------------------------------------------------------------
    def resolve(self, spec: ModelSpec) -> ModelSpec:
        return spec.resolved(self.workbench.config)

    def submit_batch(
        self,
        spec: ModelSpec,
        images: np.ndarray,
        request_ids: Sequence[int],
    ) -> "Future[np.ndarray]":
        """Run one ready-made batch on the executor thread.

        Resolves to the logits array.  The batch is not recorded into
        :meth:`stats`; the front door that dispatched it does that.
        """
        return self._executor.submit(
            self._run_batch,
            self.resolve(spec),
            np.asarray(images, dtype=np.float32),
            [int(rid) for rid in request_ids],
        )

    def replica_count(self) -> int:
        return 1

    def stop(self) -> None:
        """End the executor thread once its submitted batches finish."""
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # synchronous API
    # ------------------------------------------------------------------
    def classify_direct(
        self,
        spec: ModelSpec,
        images: Sequence,
        request_ids: Optional[Sequence[int]] = None,
        degraded: bool = False,
    ) -> List[Prediction]:
        """One synchronous forward pass in the calling thread.

        Bypasses the front door (used by benchmarks and as the solo
        reference in determinism tests); noise streams are keyed
        identically to the batched path, so the predictions match.
        """
        spec = self.resolve(spec)
        if request_ids is None:
            request_ids = range(len(images))
        ids = [int(rid) for rid in request_ids]
        started = perf_counter()
        batch = np.stack(
            [np.asarray(image, dtype=np.float32) for image in images]
        )
        logits = self._run_batch(spec, batch, ids)
        latencies = [perf_counter() - started] * len(ids)
        labels = logits.argmax(axis=1)
        self._stats.record_batch(spec.token(), latencies, degraded=degraded)
        return [
            Prediction(
                request_id=rid,
                spec=spec,
                label=int(labels[row]),
                logits=logits[row].copy(),
                batch_size=len(ids),
                latency_s=latencies[row],
                degraded=degraded,
            )
            for row, rid in enumerate(ids)
        ]

    def warm(self, *specs: ModelSpec) -> "InferenceEngine":
        """Promote ``specs`` into the registry's warm tier now."""
        for spec in specs:
            self._model_entry(self.resolve(spec))
        return self

    def stats(self) -> EngineStatsView:
        """The engine's live telemetry view (and its metric registry)."""
        return self._stats

    def cached_specs(self) -> List[ModelSpec]:
        """Warm-tier contents, least recently used first."""
        return self.registry.warm_specs()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _model_entry(self, spec: ModelSpec) -> Tuple[object, threading.Lock]:
        # The registry owns the tiers: warm hit, cold promotion, or a
        # train on a true miss — with the LRU/quota bookkeeping and
        # compile-at-admission the old private cache did by hand.
        entry = self.registry.entry(spec)
        return entry.model, entry.lock

    def _run_batch(
        self, spec: ModelSpec, images: np.ndarray, request_ids: List[int]
    ) -> np.ndarray:
        model, lock = self._model_entry(spec)
        with lock:
            # The per-request noise-row contract lives in the shared
            # executor so the cluster workers run the identical code
            # path.
            return forward_with_request_noise(
                model,
                images,
                request_ids,
                self.seed,
                registry=self._stats.registry,
                compile_models=self.compile_models,
                backend=self.backend,
            )
