"""The per-layer metrics of the traced run, and how they are derived.

Every traced run reports every metric below, whatever the workload: a
layer a workload does not exercise in this process reports 0, which is
the prediction for that pairing (e.g. ``parallel.*`` on ``train_ams``).

Which end-to-end metric each layer metric should move, and where (the
gated ``result_p50_ms`` is a fit on ``train_ams``, a request at 50 req/s
on ``serve_open`` and a search on ``explore_grid``; names in brackets
are the printed, ungated metrics it corresponds to):

=========================  =================================  ============
layer metrics              should move                        on
=========================  =================================  ============
tensor.*, nn.*, quant.*,   result_p50_ms                      train_ams
ams.*, optim.*, data.*,    [train_images_per_s]               (serve_open:
train.*, compile.*                                            no change)
serve.queue_wait_ms.*,     [serve_tail_ms.r200,               serve_open
serve.batch_size_mean      serve_max_rps]
serve.dispatch_ms.p50,     result_p50_ms                      serve_open
serve.replica_forward_ms,  [serve_p50_ms.r50]
serve.ipc_ms
serve.shed,                ok_ratio [serve_fail_ratio]        serve_open
serve.deadline_missed
registry.*                 setup_s                            serve_open,
                                                              explore_grid
parallel.*                 result_p50_ms [explore_s]          explore_grid
                                                              (train_ams:
                                                              no change)
explore.*                  result_p50_ms [explore_s]          explore_grid
=========================  =================================  ============

Times named ``*_s`` are self times (span duration minus the child
spans it covers) summed over the measured part of the traced run and
divided by its units of work: per ``Trainer.fit`` on ``train_ams``,
per ``run_explore`` on ``explore_grid``, per ladder on ``serve_open``.
``registry.*`` are totals over the traced set-up (where models are
acquired) and the measured part.  ``train.unattributed_s`` is the self
time of the ``train.fit`` span: fit time inside no named span.
``nn.conv_gmacs_per_s`` (conv MACs from ``profile_network`` over
inclusive conv forward time) needs the MAC table built on
``train_ams`` and reads 0 elsewhere.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import metric

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("tensor.im2col_s", "s"),
    ("tensor.col2im_s", "s"),
    ("tensor.im2col_calls", "count"),
    ("tensor.backward_s", "s"),
    ("nn.conv_fwd_s", "s"),
    ("nn.bn_fwd_s", "s"),
    ("nn.linear_fwd_s", "s"),
    ("nn.conv_gmacs_per_s", "GMAC/s"),
    ("quant.fwd_s", "s"),
    ("ams.inject_s", "s"),
    ("ams.inject_calls", "count"),
    ("optim.step_s", "s"),
    ("data.next_batch_s", "s"),
    ("train.eval_s", "s"),
    ("compile.run_s", "s"),
    ("train.unattributed_s", "s"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.tail", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.dispatch_ms.p50", "ms"),
    ("serve.replica_forward_ms", "ms"),
    ("serve.ipc_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_missed", "count"),
    ("registry.get_s", "s"),
    ("registry.tier_hit", "count"),
    ("registry.tier_miss", "count"),
    ("parallel.sweep_s", "s"),
    ("parallel.point_s.p50", "s"),
    ("parallel.point_s.max", "s"),
    ("parallel.utilization", "ratio"),
    ("explore.analytic_s", "s"),
    ("explore.surrogate_s", "s"),
    ("explore.full_s", "s"),
    ("explore.prune_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]

#: Span name -> per-layer self-time metric.
SELF_TIME = {
    "tensor.im2col": "tensor.im2col_s",
    "tensor.col2im": "tensor.col2im_s",
    "tensor.backward": "tensor.backward_s",
    "nn.conv_fwd": "nn.conv_fwd_s",
    "nn.bn_fwd": "nn.bn_fwd_s",
    "nn.linear_fwd": "nn.linear_fwd_s",
    "quant.fwd": "quant.fwd_s",
    "ams.inject": "ams.inject_s",
    "optim.step": "optim.step_s",
    "data.next_batch": "data.next_batch_s",
    "train.eval": "train.eval_s",
    "compile.run": "compile.run_s",
    "train.fit": "train.unattributed_s",
    "parallel.sweep": "parallel.sweep_s",
    "explore.analytic": "explore.analytic_s",
}

CALLS = {
    "tensor.im2col": "tensor.im2col_calls",
    "ams.inject": "ams.inject_calls",
}


def layer_metrics(tracer, units: float, extra: Dict[str, float]) -> Dict[str, dict]:
    """All per-layer metrics from the measured spans plus ``extra``."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    stats = tracer.self_times(tracer.select("measure"))
    for span_name, row in stats.items():
        if span_name in SELF_TIME:
            values[SELF_TIME[span_name]] = row["self_s"] / units
        if span_name in CALLS:
            values[CALLS[span_name]] = row["calls"] / units
    registry_stats = tracer.self_times(tracer.select()).get("registry.get")
    if registry_stats is not None:
        values["registry.get_s"] = registry_stats["self_s"]
    values.update(extra)
    unknown = set(values) - {name for name, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


def layer_table(tracer) -> List[str]:
    """Self time per span name over the measured phase, largest first."""
    stats = tracer.self_times(tracer.select("measure"))
    lines = [f"{'span':<24}{'calls':>9}{'total_s':>11}{'self_s':>11}"]
    for name, row in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<24}{row['calls']:>9}{row['total_s']:>11.4f}"
                     f"{row['self_s']:>11.4f}")
    return lines

