"""Training numerics do not depend on which conv kernel runs.

A 2-epoch AMS ``resnet_small`` fit is run twice from the same seed:
once on ``F.conv2d`` (gather plan, shift-GEMM input gradient) and once
with ``F.conv2d`` swapped for the im2col -> GEMM -> col2im reference.
Loss history, every parameter and every BatchNorm running buffer must
be bitwise equal after each epoch — no golden values are stored, so
the check holds on any host.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import Workbench
from repro.experiments.config import make_config
from repro.serve.spec import ModelSpec
from repro.tensor import functional as F
from repro.train.trainer import TrainConfig, Trainer
from tests.tensor.conv_reference import reference_conv2d


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("fit_identity")
    config = replace(
        make_config(profile="quick", seed=7),
        num_classes=4,
        image_size=8,
        train_per_class=24,
        val_per_class=8,
        batch_size=32,
        cache_dir=str(root / "cache"),
        results_dir=str(root / "results"),
    )
    return Workbench(config)


def _fit(bench):
    model = bench.build(ModelSpec("ams", enob=5.0, nmult=8))
    snapshots = []
    trainer = Trainer(TrainConfig(
        epochs=2, batch_size=bench.config.batch_size, lr=bench.config.lr,
        patience=2, shuffle_seed=3,
        on_epoch_end=lambda _: snapshots.append(model.state_dict()),
    ))
    result = trainer.fit(model, bench.data.train, bench.data.val)
    return result.history, snapshots + [model.state_dict()]


def test_fit_bitwise_equal_to_col2im_reference(bench, monkeypatch):
    history, states = _fit(bench)
    monkeypatch.setattr(F, "conv2d", reference_conv2d)
    ref_history, ref_states = _fit(bench)

    assert [h["train_loss"] for h in history] == [
        h["train_loss"] for h in ref_history
    ]
    assert history == ref_history
    assert len(states) == len(ref_states) == 3
    for state, ref_state in zip(states, ref_states):
        assert state.keys() == ref_state.keys()
        assert any(name.endswith("running_var") for name in state)
        for name, value in state.items():
            assert np.array_equal(value, ref_state[name]), name
