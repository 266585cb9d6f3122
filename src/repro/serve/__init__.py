"""Batched inference serving over trained AMS models.

The serving stack, bottom to top:

- :class:`ModelSpec` — the frozen public identity of every model the
  workbench can build (``repro.registry`` resolves it through the
  tiered model registry, the single acquisition entry point);
- the two serving backends: :class:`InferenceEngine` (in-process:
  registry warm tier + one executor thread with per-request
  deterministic AMS noise streams) and :class:`ServeCluster` (N
  replica processes binding one mmap-published weight store,
  :mod:`repro.serve.shared`, with rolling restarts);
- :class:`FrontDoor` — the one asyncio admission layer over either
  backend: micro-batching, load shedding, graceful degradation and
  deadlines; :class:`ClusterService` is its blocking facade.

Per-request determinism holds across the whole stack: the same
``(spec, seed, request_id, image)`` yields bit-identical logits from
the in-process engine and from a cluster at any replica count, because
every path runs the one shared forward primitive
(:func:`repro.serve.executor.forward_with_request_noise`).

Command line::

    python -m repro.experiments serve --spec ams:e5.5:n8 --requests 256
    python -m repro.experiments serve --spec ams:e5.5:n8 --workers 4

See ``docs/serving.md`` for the architecture and the knobs.
"""

from repro.serve.cluster import SHARD_POLICIES, ClusterService, ServeCluster
from repro.serve.engine import InferenceEngine, Prediction
from repro.serve.frontdoor import FrontDoor
from repro.serve.shared import SharedWeights, bind_shared, publish_weights
from repro.serve.spec import VARIANTS, ModelSpec
from repro.serve.stats import ClusterStatsView, EngineStatsView

__all__ = [
    "ModelSpec",
    "VARIANTS",
    "SHARD_POLICIES",
    "InferenceEngine",
    "ServeCluster",
    "ClusterService",
    "FrontDoor",
    "Prediction",
    "EngineStatsView",
    "ClusterStatsView",
    "SharedWeights",
    "bind_shared",
    "publish_weights",
]
