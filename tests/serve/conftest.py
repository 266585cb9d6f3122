"""Fixtures for serving tests: a micro workbench with warm artifacts.

One session-scoped workbench at microscopic scale (mirroring
``tests/experiments/conftest.py``) so every serving test reuses the
same trained quant/AMS baselines from a temp-dir cache.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import Workbench
from repro.experiments.config import make_config
from repro.serve import ClusterService, ModelSpec


@pytest.fixture(scope="session")
def serve_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    config = make_config(profile="quick", seed=99)
    return replace(
        config,
        num_classes=4,
        image_size=8,
        train_per_class=24,
        val_per_class=10,
        pretrain_epochs=3,
        retrain_epochs=2,
        batch_size=32,
        patience=2,
        eval_passes=2,
        enob_sweep=(4.0, 6.0),
        table2_enob=4.0,
        fig6_enobs=(4.0, 6.0),
        cache_dir=str(root / "cache"),
        results_dir=str(root / "results"),
    )


@pytest.fixture(scope="session")
def serve_bench(serve_config):
    return Workbench(serve_config)


#: The noisy spec the serving tests exercise (AMS error at eval time).
AMS_SPEC = ModelSpec("ams_eval", enob=4.0)

#: A cheap fallback spec for degradation tests.
QUANT_SPEC = ModelSpec("quant", bw=8, bx=8)


@pytest.fixture(scope="session")
def val_images(serve_bench):
    return serve_bench.data.val.images


def serve_in_process(engine, spec, images, max_batch=4):
    """Serve ``images`` (request ids ``0..n-1``) through the front door.

    Returns the predictions in request order and the sizes of the
    consecutive batches the front door formed for them.
    """
    with ClusterService(engine, max_batch=max_batch) as service:
        served = service.classify(spec, images)
    sizes = []
    while sum(sizes) < len(served):
        sizes.append(served[sum(sizes)].batch_size)
    return served, sizes


def direct_in_batches(engine, spec, images, sizes):
    """``classify_direct`` logits over the given consecutive batches.

    Logits are bit-identical only for a fixed batch composition (BLAS
    picks kernels by matrix shape), so this is the exact reference for
    a front-door run that formed batches of ``sizes``.
    """
    logits = []
    start = 0
    for size in sizes:
        ids = range(start, start + size)
        logits += [
            p.logits
            for p in engine.classify_direct(spec, images[start:ids.stop], ids)
        ]
        start = ids.stop
    return np.stack(logits)
