"""The backend layer: registry, per-op fallback, fast-backend parity.

The reference backend's exact-equality grid lives in
``test_bit_identity.py``; this module covers everything the backend
split added — the registry and chain resolution, the fast backend's
tolerance-gated parity suite (logit max-abs-err bound plus top-1
agreement, across all four hardware variants), per-op fallback for ops
the fast backend declines, serve-engine determinism under the fast
backend, the backend-keyed compile cache, and the interpreter-fallback
instrumentation.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.compile as rc
from repro.compile import compile_model, maybe_compiled
from repro.compile.backends import (
    available_backends,
    get_backend,
    resolve_chain,
)
from repro.compile.backends.fast import PARITY_ATOL, FastConvStep
from repro.compile.kernels import FusedConvStep
from repro.errors import CompileError, ConfigError
from repro.obs.metrics import default_registry
from repro.serve import InferenceEngine, ModelSpec
from tests.serve.conftest import direct_in_batches, serve_in_process
from repro.tensor.tensor import Tensor, no_grad
from repro.train.evaluate import evaluate_accuracy, reseed_noise

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


def _conv_steps(compiled):
    """Every conv step in the tape, recursing into residual blocks."""
    found = []
    stack = list(compiled.steps)
    while stack:
        step = stack.pop()
        if isinstance(step, (FastConvStep, FusedConvStep)):
            found.append(step)
        for branch in ("main", "downsample"):
            sub = getattr(step, branch, None)
            if sub:
                stack.extend(sub)
    return found


class TestRegistry:
    def test_available_backends(self):
        names = available_backends()
        assert "reference" in names and "fast" in names and "auto" in names

    def test_unknown_backend_raises_with_known_list(self):
        with pytest.raises(CompileError, match="reference"):
            get_backend("gpu")

    def test_chain_always_ends_in_reference(self):
        assert [b.name for b in resolve_chain("reference")] == ["reference"]
        assert [b.name for b in resolve_chain("fast")] == [
            "fast",
            "reference",
        ]
        assert [b.name for b in resolve_chain("auto")][-1] == "reference"

    def test_default_backend_is_reference(self):
        # The process default must stay bit-identical: switching it is
        # an explicit opt-in (set_default_backend / --backend).
        assert rc.default_backend() == "reference"

    def test_set_default_backend_validates(self):
        with pytest.raises(ConfigError, match="known"):
            rc.set_default_backend("gpu")
        rc.set_default_backend("fast")
        try:
            assert rc.default_backend() == "fast"
        finally:
            rc.set_default_backend("reference")

    def test_engine_validates_backend(self, compile_bench):
        with pytest.raises(ConfigError, match="known"):
            InferenceEngine(compile_bench, backend="gpu")


class TestFastParity:
    """The tolerance gate that admits the fast backend.

    Bit-identity is deliberately *not* asserted — BN folding and
    shift-and-GEMM accumulation change float rounding.  What is
    asserted: the logit max-abs-err bound and exact top-1 agreement,
    for every hardware variant, under the same reseeded noise streams.
    """

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.variant)
    def test_logits_within_tolerance_all_variants(
        self, compile_bench, batch, spec
    ):
        model = compile_bench.build(spec.resolved(compile_bench.config))
        model.eval()
        reseed_noise(model, 7, 0)
        expected = _interpreted(model, batch)
        compiled = compile_model(model, backend="fast")
        assert compiled.backend == "fast"
        reseed_noise(model, 7, 0)
        actual = compiled.predict(batch)
        assert actual.dtype == expected.dtype
        max_err = float(np.abs(expected - actual).max())
        assert max_err <= PARITY_ATOL, f"max_abs_err {max_err}"
        assert np.array_equal(
            expected.argmax(axis=1), actual.argmax(axis=1)
        )

    def test_parity_across_batch_sizes(self, compile_bench, batch):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        compiled = compile_model(model, backend="fast")
        for size in (1, 3, len(batch)):
            expected = _interpreted(model, batch[:size])
            actual = compiled.predict(batch[:size])
            assert float(np.abs(expected - actual).max()) <= PARITY_ATOL

    def test_fast_backend_is_deterministic(self, compile_bench, batch):
        spec = ModelSpec("ams_eval", enob=4.0).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        compiled = compile_model(model, backend="fast")
        reseed_noise(model, 3, 0)
        first = compiled.predict(batch)
        reseed_noise(model, 3, 0)
        second = compiled.predict(batch)
        assert np.array_equal(first, second)

    def test_evaluate_accuracy_backend_parity(self, compile_bench):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        reference = evaluate_accuracy(
            model, compile_bench.data.val, backend="reference"
        )
        fast = evaluate_accuracy(model, compile_bench.data.val, backend="fast")
        assert float(fast) == float(reference)


class TestPerOpFallback:
    def test_fast_tape_uses_fast_convs(self, compile_bench):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        compiled = compile_model(model, backend="fast")
        convs = _conv_steps(compiled)
        assert convs and all(
            isinstance(step, FastConvStep) for step in convs
        )

    def test_probed_convs_fall_back_to_reference(self, compile_bench, batch):
        # Probes observe the *pre-BN* conv output, which no longer
        # exists once the fast backend folds BN into the weights — so
        # probed convs must lower through the reference kernels even in
        # a fast-backend tape.  Counts must match the interpreter
        # exactly; means/stds only within tolerance, because upstream
        # fast activations perturb the probed conv's *input*.
        from repro.train.hooks import collect_probes, set_probes_enabled

        spec = ModelSpec("ams_eval", enob=4.0).resolved(compile_bench.config)
        model = compile_bench.build(spec, with_probes=True)
        model.eval()
        compiled = compile_model(model, backend="fast")
        convs = _conv_steps(compiled)
        assert convs and all(
            isinstance(step, FusedConvStep) for step in convs
        )
        set_probes_enabled(model, True)
        reseed_noise(model, 11, 0)
        _interpreted(model, batch)
        expected = [(p.count, p.mean, p.std) for p in collect_probes(model)]
        assert any(count for count, _, _ in expected)
        set_probes_enabled(model, True)
        reseed_noise(model, 11, 0)
        compiled.predict(batch)
        actual = [(p.count, p.mean, p.std) for p in collect_probes(model)]
        assert [count for count, _, _ in actual] == [
            count for count, _, _ in expected
        ]
        for (_, mean_e, std_e), (_, mean_a, std_a) in zip(expected, actual):
            assert mean_a == pytest.approx(mean_e, abs=PARITY_ATOL)
            assert std_a == pytest.approx(std_e, abs=PARITY_ATOL)

    def test_steps_realized_counters(self, compile_bench):
        spec = ModelSpec("quant", bw=8, bx=8).resolved(compile_bench.config)
        model = compile_bench.build(spec)
        registry = default_registry()
        fast_before = registry.counter(
            "compile.steps_realized", backend="fast"
        ).value
        ref_before = registry.counter(
            "compile.steps_realized", backend="reference"
        ).value
        compile_model(model, backend="fast")
        assert (
            registry.counter("compile.steps_realized", backend="fast").value
            > fast_before
        )
        # Non-conv ops (input quant, pooling, linear) fell back.
        assert (
            registry.counter(
                "compile.steps_realized", backend="reference"
            ).value
            > ref_before
        )


class TestBackendKeyedCache:
    def test_backends_cache_independently(self, compile_bench):
        spec = ModelSpec("fp32").resolved(compile_bench.config)
        model = compile_bench.build(spec)
        reference = maybe_compiled(model)
        fast = maybe_compiled(model, backend="fast")
        assert reference is not None and fast is not None
        assert reference is not fast
        assert reference.backend == "reference" and fast.backend == "fast"
        # Both stay hot: re-requesting either is a cache hit.
        assert maybe_compiled(model) is reference
        assert maybe_compiled(model, backend="fast") is fast


class TestServeFastBackend:
    SPEC = ModelSpec("ams_eval", enob=4.0)

    def test_fast_engine_deterministic_through_the_front_door(
        self, compile_bench
    ):
        images = compile_bench.data.val.images[:12]
        fast = InferenceEngine(compile_bench, backend="fast").warm(self.SPEC)
        served, sizes = serve_in_process(fast, self.SPEC, images)
        assert max(sizes) <= 4
        logits = np.stack([p.logits for p in served])
        assert np.array_equal(
            logits, direct_in_batches(fast, self.SPEC, images, sizes)
        )
        reference = InferenceEngine(
            compile_bench, backend="reference"
        ).warm(self.SPEC)
        solo = np.stack(
            [
                reference.classify_direct(self.SPEC, [image], [rid])[0].logits
                for rid, image in enumerate(images)
            ]
        )
        assert float(np.abs(logits - solo).max()) <= PARITY_ATOL


class TestInterpreterFallbackInstrumentation:
    def test_disabled_fallback_is_counted_not_warned(self, compile_bench):
        import warnings

        spec = ModelSpec("fp32").resolved(compile_bench.config)
        model = compile_bench.build(spec)
        counter = default_registry().counter(
            "compile.interpreter_fallback", reason="disabled"
        )
        before = counter.value
        with rc.disabled(), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert maybe_compiled(model) is None
        assert counter.value == before + 1

    def test_unsupported_model_warns_once_and_counts(self):
        import warnings

        class NotAModule:
            pass

        rc.reset_fallback_warnings()
        counter = default_registry().counter(
            "compile.interpreter_fallback", reason="not_a_module"
        )
        before = counter.value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert maybe_compiled(NotAModule()) is None
            assert maybe_compiled(NotAModule()) is None
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1  # warned once per process, per reason
        assert "interpreter_fallback" in str(runtime[0].message)
        assert counter.value == before + 2  # but every fallback counted

    def test_compile_error_fallback_counts_cached_hits_too(self):
        import warnings

        from repro.nn.activation import ReLU

        rc.reset_fallback_warnings()
        model = ReLU()  # a Module with no lowering
        counter = default_registry().counter(
            "compile.interpreter_fallback", reason="compile_error"
        )
        failed = default_registry().counter("compile.compile_failed")
        before, failed_before = counter.value, failed.value
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert maybe_compiled(model) is None
            assert maybe_compiled(model) is None  # cached failure
        assert counter.value == before + 2
        assert failed.value == failed_before + 1  # compiled only once
        runtime = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime) == 1
