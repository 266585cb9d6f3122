"""Compiled inference: lazy IR, scheduler, pluggable execution backends.

Lowering (:mod:`repro.compile.compiler`) records a trained model (any
ModelSpec variant: fp32 / quant / ams / ams_eval) as a lazy IR graph
(:mod:`repro.compile.ir`); the scheduler (:mod:`repro.compile.schedule`)
fuses the graph into conv+BN+activation(+quant) units and realizes them
through a pluggable execution backend
(:mod:`repro.compile.backends`).  Two backends ship in-tree:

- ``"reference"`` — fused numpy kernels, **bit-identical** to the
  interpreted ``Module.forward`` path, including per-request AMS noise
  streams (see :mod:`repro.compile.kernels` for the contract);
- ``"fast"`` — cache-blocked, thread-parallel GEMM with batch norm
  folded into the weights: numerically equivalent within a documented
  tolerance (``repro.compile.backends.fast.PARITY_ATOL``), selected
  per-op with automatic reference fallback for ops it declines.

Entry points
------------
- :func:`compile_model` — lower + realize explicitly; raises
  :class:`~repro.errors.CompileError` on unsupported models.
- :func:`maybe_compiled` — the wiring the eval loops and the serving
  engine use: returns a cached-or-fresh
  :class:`~repro.compile.runtime.CompiledModel`, or ``None`` when
  compilation is globally disabled or the model has no lowering
  (fallback to the interpreter, counted under the
  ``compile.interpreter_fallback`` metric and warned once per reason).
  The cache key is a *fingerprint* (per-parameter version counters +
  the model's train-mode generation counter) plus the backend name, so
  optimizer steps, ``load_state_dict``, batch-norm statistics updates
  and backend switches all trigger recompilation.
- :func:`set_default_backend` / :func:`default_backend` — process-wide
  backend selection (the CLIs expose ``--backend
  {reference,fast,auto}``); per-call ``backend=`` arguments override.
- :func:`set_enabled` / :func:`disabled` — global escape hatches (the
  experiment CLIs expose ``--no-compile``).
"""

from __future__ import annotations

import contextlib
import warnings
from typing import Optional

from repro.compile import backends, ir, schedule
from repro.compile.backends import available_backends
from repro.compile.compiler import compile_model, lower_model
from repro.compile.runtime import CompiledModel
from repro.errors import CompileError, ConfigError
from repro.nn.module import Module
from repro.tensor.im2col import (
    Im2colPlan,
    clear_plan_cache,
    get_plan,
    plan_cache_stats,
)

__all__ = [
    "CompileError",
    "CompiledModel",
    "Im2colPlan",
    "available_backends",
    "backends",
    "clear_plan_cache",
    "compile_model",
    "default_backend",
    "disabled",
    "enabled",
    "get_plan",
    "ir",
    "lower_model",
    "maybe_compiled",
    "model_fingerprint",
    "plan_cache_stats",
    "schedule",
    "set_default_backend",
    "set_enabled",
]

_ENABLED = True
_DEFAULT_BACKEND = "reference"

#: Fallback reasons whose warn-once log already fired this process.
_FALLBACK_WARNED: set = set()


def enabled() -> bool:
    """Whether :func:`maybe_compiled` currently hands out compiled models."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Globally enable/disable the compiled executor (``--no-compile``)."""
    global _ENABLED
    _ENABLED = bool(flag)


@contextlib.contextmanager
def disabled():
    """Force the interpreted path within the block (for comparisons)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def default_backend() -> str:
    """The process-wide backend :func:`maybe_compiled` realizes through."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> None:
    """Select the process-wide execution backend (``--backend``).

    ``name`` must be a registered backend or the ``"auto"`` alias;
    unknown names raise :class:`~repro.errors.ConfigError` listing the
    known ones.
    """
    global _DEFAULT_BACKEND
    known = available_backends()
    if name not in known:
        raise ConfigError(
            f"unknown backend {name!r} (known: {', '.join(known)})"
        )
    _DEFAULT_BACKEND = name


def model_fingerprint(model: Module):
    """A cheap token that changes whenever a compiled model would go stale.

    Combines every parameter's version counter (bumped by optimizer
    steps and ``load_state_dict``) with the model's train-mode
    generation counter (bumped by ``train(True)`` and
    ``load_state_dict``, catching in-place batch-norm running-stat
    updates that touch no parameter).
    """
    versions = tuple(
        getattr(param, "version", 0) for _, param in model.named_parameters()
    )
    return (versions, getattr(model, "_generation", 0))


def _note_fallback(registry, reason: str, warn: bool) -> None:
    """Count (and warn once per reason about) an interpreter fallback.

    The compiled path falling back to the interpreter is silent at the
    call site by design — eval loops and the serve engine just keep
    working — but it must never be *invisible*: a fleet quietly running
    5x slower is an outage in slow motion.  Every fallback lands in the
    ``compile.interpreter_fallback`` counter labeled with its reason,
    and unexpected reasons additionally log one RuntimeWarning per
    process.
    """
    registry.counter("compile.interpreter_fallback", reason=reason).inc()
    if warn and reason not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(reason)
        warnings.warn(
            f"compiled inference unavailable ({reason}); requests are "
            "falling back to the interpreted forward pass — this is "
            "correct but slower (warned once per process; see the "
            "compile.interpreter_fallback metric for counts)",
            RuntimeWarning,
            stacklevel=3,
        )


def reset_fallback_warnings() -> None:
    """Forget fired fallback warnings (for tests)."""
    _FALLBACK_WARNED.clear()


def maybe_compiled(
    model: Module, backend: Optional[str] = None
) -> Optional[CompiledModel]:
    """The compiled executor for ``model``, or ``None`` to interpret.

    ``backend`` overrides the process default
    (:func:`default_backend`) for this model.  Caches the compiled
    model on the module keyed by (:func:`model_fingerprint`, backend);
    models without a lowering cache the failure too, so the interpreter
    fallback costs one attribute read per call instead of a raised
    exception per batch.

    Cache behaviour is published to the default metric registry:
    ``compile.cache_hit`` / ``compile.recompiled`` (a stale fingerprint
    forced a fresh lowering) / ``compile.models_compiled`` /
    ``compile.compile_failed`` counters and the ``compile.seconds``
    histogram over lowering times.  Every ``None`` return increments
    ``compile.interpreter_fallback{reason=...}``; unexpected reasons
    (an unsupported model, a failed compile) warn once per process.
    """
    from repro.obs.metrics import default_registry

    if not _ENABLED:
        # Explicitly requested interpretation — counted, never warned.
        _note_fallback(default_registry(), "disabled", warn=False)
        return None
    if not isinstance(model, Module):
        # Duck-typed stand-ins (test doubles with just __call__/eval)
        # simply stay on the interpreted path.
        _note_fallback(default_registry(), "not_a_module", warn=True)
        return None
    from repro.obs.trace import span

    registry = default_registry()
    backend_name = _DEFAULT_BACKEND if backend is None else backend
    fingerprint = model_fingerprint(model)
    cache = getattr(model, "_compiled_cache", None)
    cached = None if cache is None else cache.get(backend_name)
    if cached is not None and cached[0] == fingerprint:
        registry.counter("compile.cache_hit").inc()
        if cached[1] is None:
            # Replay the original failure's reason so e.g. an
            # un-compilable error model keeps its "error_model" label
            # on every request, not just the first.
            _note_fallback(registry, cached[2], warn=False)
        return cached[1]
    if cached is not None:
        registry.counter("compile.recompiled").inc()
    reason = None
    with span("compile.model") as compile_span:
        try:
            compiled = compile_model(model, backend=backend_name)
        except CompileError as exc:
            compiled = None
            # CompileErrors raised for a declared cause (an error model
            # that cannot be fused) carry a reason attribute; anything
            # else is a generic lowering failure.
            reason = getattr(exc, "reason", "compile_error")
    registry.histogram("compile.seconds").observe(compile_span.duration_s)
    if compiled is None:
        registry.counter("compile.compile_failed").inc()
        _note_fallback(registry, reason, warn=True)
    else:
        registry.counter("compile.models_compiled").inc()
    if cache is None:
        cache = {}
        object.__setattr__(model, "_compiled_cache", cache)
    cache[backend_name] = (fingerprint, compiled, reason)
    return compiled
