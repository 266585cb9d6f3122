"""Compiled executor vs interpreted forward: bitwise-identical logits.

The compiler's whole contract is that fusing conv+BN+activation, baking
quantized weights and precomputing im2col indices changes *nothing*
numerically — every test here compares full logit arrays with
``np.array_equal`` (exact equality), never argmax or allclose.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import compile_model, maybe_compiled
from repro.serve import InferenceEngine, ModelSpec
from tests.serve.conftest import direct_in_batches, serve_in_process
from repro.tensor.tensor import Tensor, no_grad
from repro.train.evaluate import predict_logits, reseed_noise
from repro.train.hooks import collect_probes, set_probes_enabled

SPECS = [
    ModelSpec("fp32"),
    ModelSpec("quant", bw=8, bx=8),
    ModelSpec("ams", enob=4.0),
    ModelSpec("ams_eval", enob=4.0),
]


def _interpreted(model, images):
    model.eval()
    with no_grad():
        return np.array(model(Tensor(images)).data, copy=True)


class TestBitIdentity:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
    def test_logits_identical_all_variants(self, compile_bench, batch, spec):
        model = compile_bench.build(spec.resolved(compile_bench.config))
        model.eval()
        reseed_noise(model, 7, 0)
        expected = _interpreted(model, batch)
        compiled = compile_model(model)
        reseed_noise(model, 7, 0)
        actual = compiled.predict(batch)
        assert actual.dtype == expected.dtype
        assert np.array_equal(expected, actual)

    def test_identical_across_batch_sizes(self, compile_bench, batch):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        compiled = compile_model(model)
        for size in (1, 3, len(batch)):
            expected = _interpreted(model, batch[:size])
            assert np.array_equal(expected, compiled.predict(batch[:size]))

    def test_probe_statistics_match(self, compile_bench, batch):
        spec = ModelSpec("ams_eval", enob=4.0).resolved(compile_bench.config)
        model = compile_bench.build(spec, with_probes=True)
        model.eval()
        compiled = compile_model(model)
        set_probes_enabled(model, True)
        reseed_noise(model, 11, 0)
        _interpreted(model, batch)
        expected = [
            (p.count, p.mean, p.std) for p in collect_probes(model)
        ]
        assert any(count for count, _, _ in expected)
        set_probes_enabled(model, True)  # reset
        reseed_noise(model, 11, 0)
        compiled.predict(batch)
        actual = [(p.count, p.mean, p.std) for p in collect_probes(model)]
        assert expected == actual

    def test_predict_logits_routes_through_compiler(
        self, compile_bench, batch
    ):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        model = compile_bench.build(spec)
        expected = _interpreted(model, batch)
        assert maybe_compiled(model) is not None
        assert np.array_equal(expected, predict_logits(model, batch))


class TestServeDeterminism:
    """Per-request AMS noise served through the front door is
    reproducible bit-for-bit, compiled or not."""

    SPEC = ModelSpec("ams_eval", enob=4.0)

    def test_front_door_and_compilation_invariant(self, compile_bench):
        images = compile_bench.data.val.images[:12]
        compiled = InferenceEngine(compile_bench).warm(self.SPEC)
        interpreted = InferenceEngine(
            compile_bench, compile_models=False
        ).warm(self.SPEC)
        served, sizes = serve_in_process(compiled, self.SPEC, images)
        assert max(sizes) <= 4
        logits = np.stack([p.logits for p in served])
        assert np.array_equal(
            logits, direct_in_batches(compiled, self.SPEC, images, sizes)
        )
        assert np.array_equal(
            logits, direct_in_batches(interpreted, self.SPEC, images, sizes)
        )
        solo = [
            compiled.classify_direct(self.SPEC, [image], [rid])[0].label
            for rid, image in enumerate(images)
        ]
        assert [p.label for p in served] == solo
