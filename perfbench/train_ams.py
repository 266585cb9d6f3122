"""Workload ``train_ams``: AMS-error-in-the-loop retraining (paper §3).

One process runs :meth:`Trainer.fit` on ``resnet_small`` with
lumped-Gaussian AMS error injected in training (spec ``ams``, ENOB 5,
Nmult 8) at the ``quick`` profile's data shape: 10 classes, 16x16
images, 600 train / 250 val, batch 64.  Every fit runs exactly
``EPOCHS`` epochs (patience equals the epoch budget, so early stopping
cannot cut it short) from freshly initialised weights.

The gated ``result_p50_ms`` is the median epoch (training pass plus its
validation pass) over the run's untraced fits, which gives many samples
per run; ``train_images_per_s`` (training images per second of whole
``Trainer.fit`` wall time, validation included) is printed.  An
untimed one-epoch fit warms caches first.

Chosen because ``tensor``, ``nn``, ``quant``, ``ams``, ``optim`` and
``data`` do nearly all the work while ``serve``, ``parallel`` and
``registry`` do none: a training-kernel change shows here and should
show no change on ``serve_open``.
"""

from __future__ import annotations

import math
from time import perf_counter

from common import Outcome, end_to_end, host_block, log, median, named
from layers import layer_metrics, layer_table

EPOCHS = 3
SETUP_REPS = 15


def _setup(scratch, seed):
    """Empty cache to a built model and its per-module MAC table."""
    from repro.energy.network import profile_network
    from repro.experiments.common import Workbench
    from repro.experiments.config import make_config
    from repro.serve.spec import ModelSpec

    started = perf_counter()
    root = scratch.fresh("train")
    config = make_config("quick", seed=seed, cache_dir=f"{root}/cache",
                         results_dir=f"{root}/results")
    bench = Workbench(config)
    spec = ModelSpec("ams", enob=5.0, nmult=8)
    data = bench.data
    model = bench.build(spec)
    macs = {p.name: p.macs
            for p in profile_network(model, (1,) + data.train.images.shape[1:])
            if p.kind == "conv"}
    return perf_counter() - started, bench, spec, macs


def _fit(bench, spec, seed, tracer):
    """One fixed-length fit: ``(seconds, epoch seconds, images, result)``."""
    from repro.train.trainer import TrainConfig, Trainer

    cfg = bench.config
    model = bench.build(spec)
    if tracer is not None:
        tracer.module_paths = {id(m): path for path, m in model.named_modules()}
    marks = []
    trainer = Trainer(TrainConfig(epochs=EPOCHS, batch_size=cfg.batch_size,
                                  lr=cfg.lr, patience=EPOCHS,
                                  shuffle_seed=seed + 8,
                                  on_epoch_end=lambda _: marks.append(perf_counter())))
    started = perf_counter()
    result = trainer.fit(model, bench.data.train, bench.data.val)
    seconds = perf_counter() - started
    epochs = [b - a for a, b in zip([started] + marks, marks)]
    batches = len(bench.data.train) // cfg.batch_size
    return seconds, epochs, EPOCHS * batches * cfg.batch_size, result


def _check(result, num_classes) -> list:
    errors = []
    if result.epochs_run != EPOCHS:
        errors.append(f"fit ran {result.epochs_run} epochs, not {EPOCHS}")
    losses = [entry["train_loss"] for entry in result.history]
    if not all(math.isfinite(loss) for loss in losses):
        errors.append(f"non-finite training loss: {losses}")
    if not result.best_accuracy > 1.0 / num_classes:
        errors.append(f"validation accuracy {result.best_accuracy} is not "
                      f"above chance ({1.0 / num_classes:.3f})")
    return errors


def _warm_up(bench, spec, seed) -> None:
    """One untimed epoch, so first-call costs stay out of the timed fits."""
    from repro.train.trainer import TrainConfig, Trainer

    cfg = bench.config
    Trainer(TrainConfig(epochs=1, batch_size=cfg.batch_size, lr=cfg.lr,
                        shuffle_seed=seed + 8)).fit(
        bench.build(spec), bench.data.train, bench.data.val)


def run(seed: int, seconds: float, tracer, scratch) -> Outcome:
    setups = []
    for _ in range(SETUP_REPS):
        setup_s, bench, spec, macs = _setup(scratch, seed)
        setups.append(setup_s)
    _warm_up(bench, spec, seed)
    errors, rates, epoch_seconds, signatures = [], [], [], set()
    attempted = failed = 0
    traced_rates = []
    started = perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            with tracer.active("measure"):
                seconds_fit, epochs, images, result = _fit(bench, spec, seed,
                                                           tracer)
        else:
            seconds_fit, epochs, images, result = _fit(bench, spec, seed, None)
        attempted += 1
        problems = _check(result, bench.config.num_classes)
        failed += bool(problems)
        errors.extend(problems)
        signatures.add(tuple(e["train_loss"] for e in result.history))
        if traced:
            traced_rates.append(images / seconds_fit)
        else:
            rates.append(images / seconds_fit)
            epoch_seconds.extend(epochs)
        log(f"fit {attempted}: {seconds_fit:.3f}s "
            f"acc={result.best_accuracy:.3f} traced={traced}")
        enough = perf_counter() - started >= seconds
        if enough and attempted >= 2 and (tracer is None or attempted % 2 == 0):
            break
    if len(signatures) != 1:
        errors.append("fits of one seed disagree on their loss history")

    outcome = Outcome(metrics={}, attempted=attempted, failed=failed,
                      errors=errors, host=host_block(seed))
    untraced_ips = median(rates)
    outcome.report.append(
        f"train_ams: {attempted} fits of {EPOCHS} epochs, setup reps "
        f"{[round(s, 4) for s in setups]}")
    if tracer is None:
        outcome.metrics = end_to_end(setups, epoch_seconds,
                                     attempted - failed, attempted)
        outcome.report.append(named("train_images_per_s", untraced_ips,
                                    "img/s", "median over fits"))
        return outcome

    traced_fits = len(traced_rates)
    traced_ips = median(traced_rates)
    overhead = untraced_ips / traced_ips - 1.0
    conv_macs = conv_seconds = 0.0
    table = {}
    for span in tracer.select("measure"):
        if span.name != "nn.conv_fwd":
            continue
        path, shape = span.attrs
        row = table.setdefault((path, shape), [0, 0.0, 0.0])
        calls_macs = macs.get(path, 0) * shape[0]
        row[0] += 1
        row[1] += span.duration
        row[2] += calls_macs
        conv_macs += calls_macs
        conv_seconds += span.duration
    outcome.metrics = layer_metrics(tracer, traced_fits, {
        "nn.conv_gmacs_per_s": conv_macs / conv_seconds / 1e9 if conv_seconds else 0.0,
        "trace.overhead_ratio": overhead,
    })
    outcome.report.append(
        f"tracing overhead: train_images_per_s untraced={untraced_ips:.2f} "
        f"traced={traced_ips:.2f} ({100 * overhead:+.2f}%)")
    outcome.report.append("per-conv forward (training, per traced fit):")
    outcome.report.append(f"{'module':<34}{'input shape':<20}{'calls':>7}"
                          f"{'MMAC/call':>11}{'s':>9}{'GMAC/s':>9}")
    for (path, shape), (calls, secs, mac) in sorted(table.items()):
        outcome.report.append(
            f"{path:<34}{str(shape):<20}{calls // traced_fits:>7}"
            f"{mac / calls / 1e6:>11.2f}{secs / traced_fits:>9.4f}"
            f"{mac / secs / 1e9:>9.3f}")
    outcome.report.extend(layer_table(tracer))
    return outcome
