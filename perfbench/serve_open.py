"""Workload ``serve_open``: open-loop traffic to noisy eval-only models.

One asyncio process sends single-image ``ams_eval`` (ENOB 5) requests
through :class:`FrontDoor` (default admission and batching settings) to
``ServeCluster(workers=nproc)``, at the ``benchmarks/conftest.py``
bench scale (8x8 images), where a forward pass is small next to
admission, batching and IPC.  Arrivals are Poisson at each rate of a
fixed ladder, each rung drained before the next starts.  Latency runs from each request's
*scheduled* send time, so a stalled generator or loop charges its delay
to every request behind it; how late the generator ran is reported.

Chosen because this is the request path: ``compile`` at batch <= 8,
IPC, admission/batching and per-request noise draws dominate, while
training does nothing after set-up.

The gated ``result_p50_ms`` is the median latency at 50 req/s.  The
per-rung health (sent, succeeded, failed, shed, deadline-missed,
generator lateness, backlog growth), ``serve_p50_ms``/``serve_tail_ms``
at 50 and 200 req/s, ``serve_max_rps`` (the highest rung meeting the
latency limit) and ``serve_fail_ratio`` are printed with every run.

Every completed request's label must equal what
:meth:`InferenceEngine.classify_direct` returns for that request alone
(same spec, image and request id), computed in set-up.
"""

from __future__ import annotations

import asyncio
from time import perf_counter

import numpy as np

from common import (
    BENCH_SCALE,
    Outcome,
    end_to_end,
    host_block,
    log,
    named,
    nproc,
    percentile,
    tail,
)
from layers import layer_metrics, layer_table

#: Offered rates (req/s) and each rung's share of ``--seconds``.
RUNGS = ((25, 0.15), (50, 0.35), (100, 0.15), (200, 0.35))
#: A rung meets the limit with its tail latency at most this, no failed
#: request and no growing backlog.
TAIL_LIMIT_MS = 50.0
#: Backlog sampling period while a rung sends.
SAMPLE_S = 0.01
#: Share of each rung's requests sent before measuring starts, so the
#: rung is judged in the state its rate settles into (at 200 req/s the
#: cluster can start fast and fall into the overloaded state later).
SETTLE = 0.25
SETUP_REPS = 3
ENOB = 5.0


def _p50_tail_ms(samples_s):
    """``(p50_ms, tail_ms, description)`` of a list of seconds."""
    if not samples_s:
        return 0.0, 0.0, "no samples"
    ms = [1e3 * s for s in samples_s]
    pct, value, n = tail(ms)
    return percentile(ms, 50.0), value, f"tail=p{pct:g} of n={n}"


def _spec():
    from repro.serve.spec import ModelSpec

    return ModelSpec("ams_eval", enob=ENOB)


def _setup(scratch, seed, workers):
    """Empty cache to a started, published, warmed cluster."""
    from repro.experiments.common import Workbench
    from repro.experiments.config import make_config
    from repro.serve.cluster import ServeCluster

    started = perf_counter()
    root = scratch.fresh("serve")
    config = make_config("quick", seed=seed, cache_dir=f"{root}/cache",
                         results_dir=f"{root}/results", **BENCH_SCALE)
    bench = Workbench(config)
    bench.registry.get(_spec(), fresh=True)  # train the baselines
    cluster = ServeCluster(bench, workers=workers,
                           share_dir=f"{root}/shared").start()
    try:
        cluster.warm(_spec())
        _prime(cluster, bench)
    except BaseException:
        cluster.stop()
        raise
    return perf_counter() - started, bench, cluster


def _prime(cluster, bench):
    """Run every batch size the front door can form once on each replica,
    so compiled-tape recording stays out of the measured ladder."""
    images = bench.data.val.images
    rid = 10 ** 9  # far from the measured request ids
    for size in range(1, 9):
        futures = []
        for _ in range(cluster.replica_count()):
            batch = images[:size]
            futures.append(cluster.submit_batch(_spec(), batch,
                                                range(rid, rid + size)))
            rid += size
        for future in futures:
            future.result(timeout=120)


def _plan(seed, bench, durations):
    """Per rung: Poisson send offsets (s) and image indices, from the seed.

    Each rung sends a fixed number of requests (rate x duration), so the
    sample count, and with it the reported tail percentile, never
    depends on the seed.
    """
    rng = np.random.default_rng(seed)
    pool = np.concatenate([bench.data.val.images, bench.data.train.images])
    plans = []
    for rate, duration in durations:
        count = int(round(rate * duration))
        offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
        picks = rng.integers(0, len(pool), size=count)
        plans.append((rate, offsets, picks))
    return pool, plans


def _expected(bench, pool, plans):
    """The label ``classify_direct`` gives each planned request on its own:
    same spec, same image, same request id."""
    from repro.serve.engine import InferenceEngine

    engine = InferenceEngine(bench)
    spec = _spec()
    picks = np.concatenate([p[2] for p in plans])
    return [engine.classify_direct(spec, pool[pick:pick + 1], [rid])[0].label
            for rid, pick in enumerate(picks)]


class Rung:
    """One rate of the ladder: what was sent and how it went."""

    def __init__(self, rate):
        self.rate = rate
        self.sent = self.succeeded = self.failed = 0
        self.shed = self.deadline_missed = 0
        self.wrong = []  # (request id, batch size served in, logit margin)
        self.latencies = []  # of the requests after the settling share
        self.lateness = []
        self.backlog = []  # (seconds into the rung, outstanding requests)
        self.growing = False

    def meets_limit(self) -> bool:
        if not self.latencies:
            return False
        _, value, _ = tail([1e3 * s for s in self.latencies])
        return (value <= TAIL_LIMIT_MS and self.sent == self.succeeded
                and not self.growing)

    def describe(self) -> str:
        p50, tail_ms, how = _p50_tail_ms(self.latencies)
        late_pct, late_tail, _ = tail([1e3 * s for s in self.lateness])
        return (f"r{self.rate}: sent={self.sent} ok={self.succeeded} "
                f"failed={self.failed} shed={self.shed} "
                f"deadline_missed={self.deadline_missed} p50={p50:.2f}ms "
                f"tail={tail_ms:.2f}ms ({how}) generator late: "
                f"max={1e3 * max(self.lateness):.2f}ms "
                f"p{late_pct:g}={late_tail:.2f}ms "
                f"backlog_growing={self.growing} "
                f"meets_limit={self.meets_limit()}")


async def _run_rung(door, spec, pool, plan, expected, rid0) -> Rung:
    from repro.errors import ServiceOverloadError, ServiceTimeoutError

    rate, offsets, picks = plan
    rung = Rung(rate)
    settled = int(SETTLE * len(offsets))
    outstanding = set()
    pending = []
    t0 = perf_counter() + 0.005

    def finished(rid, due, measured, future):
        outstanding.discard(rid)
        if future.cancelled():
            rung.failed += 1
            return
        exc = future.exception()
        if exc is None:
            if measured:
                rung.latencies.append(perf_counter() - due)
            rung.succeeded += 1
            pred = future.result()
            if pred.label != expected[rid]:
                top = np.sort(pred.logits)[-2:]
                rung.wrong.append((rid, pred.batch_size, float(top[1] - top[0])))
        elif isinstance(exc, ServiceTimeoutError):
            rung.deadline_missed += 1
        else:
            rung.failed += 1

    async def sample():
        while True:
            rung.backlog.append((perf_counter() - t0, len(outstanding)))
            await asyncio.sleep(SAMPLE_S)

    sampler = asyncio.get_running_loop().create_task(sample())
    try:
        for k, offset in enumerate(offsets):
            due = t0 + float(offset)
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            rung.lateness.append(max(0.0, perf_counter() - due))
            rid = rid0 + k
            rung.sent += 1
            try:
                future = await door.submit(spec, pool[picks[k]], rid)
            except ServiceOverloadError:
                rung.shed += 1
                continue
            outstanding.add(rid)
            future.add_done_callback(
                lambda f, rid=rid, due=due, m=k >= settled:
                finished(rid, due, m, f))
            pending.append(future)
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
    await asyncio.gather(*pending, return_exceptions=True)
    rung.growing = _growing(rung.backlog, float(offsets[settled]),
                            float(offsets[-1]), door.max_batch)
    return rung


def _growing(backlog, start, end, max_batch) -> bool:
    """Whether the outstanding count rose across the measured window:
    its last quarter's mean exceeds its first quarter's by more than two
    full batches."""
    quarter = (end - start) / 4
    first = [n for t, n in backlog if start <= t < start + quarter]
    last = [n for t, n in backlog if t >= end - quarter]
    if not first or not last:
        return False
    return np.mean(last) > np.mean(first) + 2 * max_batch


async def _ladder(cluster, pool, plans, expected, rungs_idx):
    from repro.serve.frontdoor import FrontDoor

    door = FrontDoor(cluster)
    spec = _spec()
    rungs = []
    offsets = [0]
    for plan in plans:
        offsets.append(offsets[-1] + len(plan[1]))
    try:
        for i in rungs_idx:
            rungs.append(await _run_rung(door, spec, pool, plans[i],
                                         expected, offsets[i]))
    finally:
        await door.drain()
    return rungs


def _worker_forward_ms(cluster) -> float:
    """Mean replica forward time per batch (``serve.worker_batch_ms``)."""
    cluster.flush_worker_stats()
    total = count = 0.0
    for hist in cluster.stats().registry.children("serve.worker_batch_ms").values():
        total += hist.sum
        count += hist.count
    return total / count if count else 0.0


def _counter_total(registries, name) -> float:
    return sum(c.value for r in registries for c in r.children(name).values())


def _traced(tracer, cluster, pool, plans, expected, report):
    """The traced ladder, then an untraced 50 req/s rung as the overhead
    baseline."""
    from repro.obs.metrics import default_registry

    i50 = [plan[0] for plan in plans].index(50)
    registry = cluster.stats().registry
    shed = _counter_total([registry], "serve.requests_shed")
    missed = _counter_total([registry], "serve.deadline_missed")
    with tracer.active("measure"):
        rungs = asyncio.run(_ladder(cluster, pool, plans, expected,
                                    range(len(plans))))
    shed = _counter_total([registry], "serve.requests_shed") - shed
    missed = _counter_total([registry], "serve.deadline_missed") - missed
    # Replicas keep their batch-time histogram only until the first
    # stats flush, so flush once: the mean covers the set-up priming
    # batches (16) and the traced ladder.
    forward_ms = _worker_forward_ms(cluster)
    base = asyncio.run(_ladder(cluster, pool, plans, expected, [i50]))[0]
    spans = tracer.select("measure")
    waits = [s.duration for s in spans if s.name == "serve.queue_wait"]
    trips = [s.duration for s in spans if s.name == "serve.dispatch"]
    sizes = [s.attrs["size"] for s in spans if s.name == "serve.submit_batch"]
    wait_p50, wait_tail, wait_how = _p50_tail_ms(waits)
    trip_p50, _, _ = _p50_tail_ms(trips)
    trip_mean_ms = 1e3 * float(np.mean(trips)) if trips else 0.0
    untraced_p50, _, _ = _p50_tail_ms(base.latencies)
    traced_p50, _, _ = _p50_tail_ms(rungs[i50].latencies)
    overhead = traced_p50 / untraced_p50 - 1.0
    registries = [default_registry(), registry]
    report.append(base.describe() + "  [untraced, overhead baseline]")
    report.append(f"serve.queue_wait_ms.tail: {wait_how}")
    report.append(f"tracing overhead: serve_p50_ms.r50 untraced="
                  f"{untraced_p50:.3f} traced={traced_p50:.3f} "
                  f"({100 * overhead:+.2f}%)")
    report.extend(layer_table(tracer))
    metrics = layer_metrics(tracer, 1, {
        "serve.queue_wait_ms.p50": wait_p50,
        "serve.queue_wait_ms.tail": wait_tail,
        "serve.batch_size_mean": float(np.mean(sizes)) if sizes else 0.0,
        "serve.dispatch_ms.p50": trip_p50,
        "serve.replica_forward_ms": forward_ms,
        "serve.ipc_ms": trip_mean_ms - forward_ms,
        "serve.shed": shed,
        "serve.deadline_missed": missed,
        "registry.tier_hit": _counter_total(registries, "registry.tier_hit"),
        "registry.tier_miss": _counter_total(registries, "registry.tier_miss"),
        "trace.overhead_ratio": overhead,
    })
    return metrics, rungs


def run(seed: int, seconds: float, tracer, scratch) -> Outcome:
    workers = nproc()
    setups = []
    cluster = None
    try:
        for rep in range(SETUP_REPS if tracer is None else 1):
            if cluster is not None:
                cluster.stop()
                cluster = None
            if tracer is not None:
                with tracer.active("setup"):
                    setup_s, bench, cluster = _setup(scratch, seed, workers)
            else:
                setup_s, bench, cluster = _setup(scratch, seed, workers)
            setups.append(setup_s)
        share = 1.0 if tracer is None else 0.8
        durations = [(rate, frac * seconds * share) for rate, frac in RUNGS]
        pool, plans = _plan(seed, bench, durations)
        expected = _expected(bench, pool, plans)
        log(f"serve_open: setup {setups}, {len(expected)} requests planned")
        outcome = Outcome(metrics={}, attempted=0, failed=0,
                          host=host_block(seed, replicas=workers))
        if tracer is None:
            rungs = asyncio.run(_ladder(cluster, pool, plans, expected,
                                        range(len(plans))))
        else:
            outcome.metrics, rungs = _traced(tracer, cluster, pool, plans,
                                             expected, outcome.report)
    finally:
        if cluster is not None:
            cluster.stop()
    for rung in rungs:
        outcome.report.append(rung.describe())
        outcome.attempted += rung.sent
        outcome.failed += rung.sent - rung.succeeded + len(rung.wrong)
        for rid, size, margin in rung.wrong:
            outcome.errors.append(
                f"r{rung.rate}: request {rid} served in a batch of {size} got "
                f"another label than classify_direct (top-2 logit margin "
                f"{margin:.3g})")
        if rung.sent == 0:
            outcome.errors.append(f"r{rung.rate}: no request was sent")
    if tracer is not None:
        return outcome
    by_rate = {rung.rate: rung for rung in rungs}
    meeting = [r.rate for r in rungs if r.meets_limit()]
    sent = sum(r.sent for r in rungs)
    succeeded = sum(r.succeeded for r in rungs)
    outcome.metrics = end_to_end(setups, by_rate[50].latencies,
                                 sent - outcome.failed, sent)
    for rate in (50, 200):
        p50, tail_ms, how = _p50_tail_ms(by_rate[rate].latencies)
        outcome.report.append(named(f"serve_p50_ms.r{rate}", p50, "ms"))
        outcome.report.append(named(f"serve_tail_ms.r{rate}", tail_ms, "ms",
                                    how))
    outcome.report.append(named(
        "serve_max_rps", max(meeting, default=0), "req/s",
        f"highest rung with tail <= {TAIL_LIMIT_MS:g} ms, no failure and "
        "no growing backlog"))
    outcome.report.append(named("serve_fail_ratio",
                                (sent - succeeded) / sent, "ratio"))
    outcome.report.append(f"setup reps: {[round(s, 4) for s in setups]}")
    return outcome
