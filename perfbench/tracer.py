"""In-memory span tracer for the traced benchmark run.

Spans are recorded around calls into each layer's public entry points,
by wrapping those entry points from here: nothing under ``src/``
changes, and the untraced runs never install a wrapper.  A span holds
its name, start, end, parent span, run phase and optional attributes.
Spans are kept in memory and written out once, at the end of the run.

A layer's *self time* is its spans' duration minus the part covered by
their child spans (children nest synchronously in one thread, so they
never overlap).  Asynchronous intervals that cross threads (a serving
request's queue wait, a batch's round trip to a replica) are recorded
as parentless spans with explicit start and end and the request id.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs")

    def __init__(self, name, start, parent, phase, attrs=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped entry points while ``enabled``."""

    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = False
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: id(module) -> module path, for the per-module MAC table.
        self.module_paths: Dict[int, str] = {}
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        # Forked workers (sweep pool, serve replicas) inherit the
        # wrappers; their spans could never reach this process, so the
        # wrappers fall through to the original call there.
        self.enabled = False
        self.spans = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs=None) -> Span:
        stack = self._stack()
        span = Span(name, perf_counter(), stack[-1] if stack else None,
                    self.phase, attrs)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def interval(self, name: str, start: float, end: float, attrs=None) -> None:
        """Record a finished cross-thread interval as a parentless span."""
        span = Span(name, start, None, self.phase, attrs)
        span.end = end
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name, attrs(args) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap an ``__iter__``: one span per ``next()`` on the iterator."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if not tracer.enabled:
                    yield from it
                    return
                span = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                yield item

        return traced

    def wrap_async(self, name: str, fn: Callable, after=None) -> Callable:
        """Wrap a coroutine function; ``after(args, result)`` runs on success.

        Other tasks run on the thread while the coroutine is suspended,
        so its span is an interval, never on the thread's span stack.
        """
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            start = perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.interval(name, start, perf_counter())
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_methods(self, base: type, attr: str, name: str,
                      attrs: Optional[Callable] = None) -> None:
        """Wrap ``attr`` on ``base`` and every subclass that redefines it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], attrs))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, phase: str):
        """Trace the block as ``phase``; no wrapper stays installed after."""
        install(self)
        self.phase = phase
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self.unpatch()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def select(self, phase: Optional[str] = None) -> List[Span]:
        with self._lock:
            spans = list(self.spans)
        return [s for s in spans if phase is None or s.phase == phase]

    @staticmethod
    def self_times(spans: List[Span]) -> Dict[str, dict]:
        """Per span name: ``{"calls", "total_s", "self_s"}``."""
        covered: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.duration
        out: Dict[str, dict] = {}
        for span in spans:
            row = out.setdefault(span.name,
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.duration - covered.get(id(span), 0.0)
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (parent as a line index)."""
        spans = self.select()
        index = {id(span): i for i, span in enumerate(spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": (index.get(id(span.parent))
                               if span.parent is not None else None),
                    "phase": span.phase,
                    "attrs": span.attrs,
                }) + "\n")


def _module_attrs(tracer: Tracer):
    def attrs(args):
        module, x = args[0], args[1]
        return (tracer.module_paths.get(id(module), type(module).__name__),
                tuple(x.shape))

    return attrs


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads use."""
    from repro.ams.models import AMSErrorInjector
    from repro.compile.runtime import CompiledModel
    from repro.data.dataloader import DataLoader
    from repro.explore import runner as explore_runner
    from repro.nn.batchnorm import BatchNorm2d
    from repro.nn.conv import Conv2d
    from repro.nn.linear import Linear
    from repro.optim.sgd import SGD
    from repro.quant import qmodules
    from repro.registry.core import ModelRegistry
    from repro.serve.cluster import ServeCluster
    from repro.serve.frontdoor import FrontDoor
    from repro.tensor import functional, im2col
    from repro.tensor.tensor import Tensor
    from repro.train import trainer
    from repro.train.trainer import Trainer

    module_attrs = _module_attrs(tracer)
    tracer.patch_methods(Conv2d, "forward", "nn.conv_fwd", module_attrs)
    # BatchNorm2d inherits forward from _BatchNorm; wrap it where defined.
    bn_owner = next(c for c in BatchNorm2d.__mro__ if "forward" in c.__dict__)
    tracer.patch_methods(bn_owner, "forward", "nn.bn_fwd", module_attrs)
    tracer.patch_methods(Linear, "forward", "nn.linear_fwd", module_attrs)
    # functional.py binds the im2col names at import; patch both homes.
    for owner in (functional, im2col):
        tracer.patch(owner, "im2col",
                     tracer.wrap("tensor.im2col", owner.__dict__["im2col"]))
        tracer.patch(owner, "col2im",
                     tracer.wrap("tensor.col2im", owner.__dict__["col2im"]))
    tracer.patch(Tensor, "backward",
                 tracer.wrap("tensor.backward", Tensor.__dict__["backward"]))
    for fn in ("dorefa_quantize_weight", "dorefa_quantize_activation",
               "quantize_symmetric"):
        tracer.patch(qmodules, fn, tracer.wrap("quant.fwd", qmodules.__dict__[fn]))
    tracer.patch_methods(AMSErrorInjector, "forward", "ams.inject")
    tracer.patch(SGD, "step", tracer.wrap("optim.step", SGD.__dict__["step"]))
    tracer.patch(DataLoader, "__iter__",
                 tracer.wrap_iter("data.next_batch", DataLoader.__dict__["__iter__"]))
    tracer.patch(trainer, "evaluate_accuracy",
                 tracer.wrap("train.eval", trainer.__dict__["evaluate_accuracy"]))
    tracer.patch(Trainer, "fit", tracer.wrap("train.fit", Trainer.__dict__["fit"]))
    tracer.patch(CompiledModel, "run",
                 tracer.wrap("compile.run", CompiledModel.__dict__["run"]))
    tracer.patch(ModelRegistry, "get",
                 tracer.wrap("registry.get", ModelRegistry.__dict__["get"]))
    tracer.patch(explore_runner, "sweep_map",
                 tracer.wrap("parallel.sweep", explore_runner.__dict__["sweep_map"],
                             lambda args: _sweep_stage(args[2])))
    tracer.patch(explore_runner, "prune_analytic",
                 tracer.wrap("explore.analytic",
                             explore_runner.__dict__["prune_analytic"]))
    tracer.patch(explore_runner, "prune_surrogate",
                 tracer.wrap("explore.surrogate_prune",
                             explore_runner.__dict__["prune_surrogate"]))
    _install_serve(tracer, FrontDoor, ServeCluster)


def _sweep_stage(points) -> str:
    """``surrogate`` or ``full``: the explore stage a sweep belongs to."""
    first = points[0].key if points else ""
    return str(first).split(":", 1)[0]


def _install_serve(tracer: Tracer, FrontDoor, ServeCluster) -> None:
    """Admission, queue wait and dispatch spans, keyed by request id."""
    admitted: Dict[int, float] = {}

    def on_admit(args, _future):
        admitted[int(args[3])] = perf_counter()

    tracer.patch(FrontDoor, "submit",
                 tracer.wrap_async("serve.admit", FrontDoor.__dict__["submit"],
                                   after=on_admit))
    submit_batch = ServeCluster.__dict__["submit_batch"]

    @functools.wraps(submit_batch)
    def traced_submit_batch(self, spec, images, request_ids):
        if not tracer.enabled:
            return submit_batch(self, spec, images, request_ids)
        rids = [int(rid) for rid in request_ids]
        sent = perf_counter()
        for rid in rids:
            start = admitted.pop(rid, None)
            if start is not None:
                tracer.interval("serve.queue_wait", start, sent, {"rid": rid})
        span = tracer.open("serve.submit_batch", {"size": len(rids)})
        try:
            future = submit_batch(self, spec, images, request_ids)
        finally:
            tracer.close(span)

        def done(f):
            if not f.cancelled() and f.exception() is None:
                tracer.interval("serve.dispatch", sent, perf_counter(),
                                {"rids": rids})

        future.add_done_callback(done)
        return future

    tracer.patch(ServeCluster, "submit_batch", traced_submit_batch)
