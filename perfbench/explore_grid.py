"""Workload ``explore_grid``: the (ENOB, Nmult) search behind Fig. 8.

:func:`run_explore` on the bundled ``examples/explore_grid.yaml`` (102
points collapsing to 27 Eq. 2 classes, 8 of them fully retrained) at
the ``benchmarks/conftest.py`` bench scale, under a run journal, as the
``explore`` CLI runs it.  The fp32 and
quant baselines are trained in set-up; every measured search starts
from a copy of that baseline cache, so its retrains are real.

The seed permutes the order in which the spec lists its ENOB and Nmult
values: the same design space, presented differently.  The workbench
keeps the bench-scale seed (123), because its data and noise decide
how many classes survive pruning (4 to 8 across seeds 1 and 11-15), so
a seeded workbench would make ``explore_s`` measure the seed rather
than the code.

Chosen because it drives the training layers differently from
``train_ams`` (many short fits in forked sweep workers, registry
cold-tier writes beside warm reads) and is the only workload where
``parallel`` and ``explore`` do the work.

The search runs serially (``jobs = 1``), the one exception to sizing
parallelism to ``nproc``.  With two forked sweep workers on two CPUs,
identical searches took 5.1 to 13.0 s (median of a run: 7.0 to 11.2 s
over six seeds), because each worker inherits OpenBLAS's full thread
pool (the CPU-budget item of ROADMAP.md; with one BLAS thread per
worker they take 2.0 s +-5%); no regression bound can hold that
spread, while the serial search repeats within a few percent.  Return
to ``jobs = nproc`` once the CPU budget lands.

Checks: the classification counts sum to the spec's 102 points, and
every search of one seed reports the identical Pareto frontier.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import replace
from time import perf_counter

from common import (
    BENCH_SCALE,
    ROOT,
    Outcome,
    end_to_end,
    host_block,
    log,
    median,
    named,
)
from layers import layer_metrics, layer_table

SPEC_PATH = os.path.join(ROOT, "examples", "explore_grid.yaml")
SPEC_POINTS = 102
#: The workbench seed of ``benchmarks/conftest.py``'s bench scale.
BENCH_SEED = 123
SETUP_REPS = 3
MIN_SEARCHES = 2
#: Sweep worker processes; see the module docstring for why not nproc.
JOBS = 1


def _spec(seed):
    """The bundled spec with its ENOB and Nmult lists in seeded order."""
    import numpy as np
    import yaml

    from repro.explore import load_spec, spec_from_dict

    with open(SPEC_PATH) as fh:
        data = yaml.safe_load(fh)
    grid = load_spec(SPEC_PATH).points
    rng = np.random.default_rng(seed)
    hardware = dict(data["hardware"])
    hardware["enob"] = [float(v) for v in
                        rng.permutation(sorted({p.enob for p in grid}))]
    hardware["nmult"] = [int(v) for v in
                         rng.permutation(sorted({p.nmult for p in grid}))]
    return spec_from_dict(dict(data, hardware=hardware))


def _setup(scratch, jobs):
    """Empty cache to trained fp32 and quant baselines."""
    from repro.experiments.common import Workbench
    from repro.experiments.config import make_config
    from repro.explore.runner import ARTIFACTS

    started = perf_counter()
    root = scratch.fresh("explore")
    config = make_config("quick", seed=BENCH_SEED, cache_dir=f"{root}/cache",
                         results_dir=f"{root}/results", **BENCH_SCALE)
    bench = Workbench(config, jobs=jobs)
    for name in ("fp32", "quant-8-8"):
        ARTIFACTS[name].build(bench)
    return perf_counter() - started, config


def _search(scratch, config, jobs, spec):
    """One journaled ``run_explore`` from a copy of the baseline cache."""
    from repro.experiments.common import Workbench
    from repro.explore import run_explore
    from repro.obs.journal import end_run, read_events, start_run

    root = scratch.fresh("search")
    cache = os.path.join(root, "cache")
    shutil.copytree(config.cache_dir, cache)
    config = replace(config, cache_dir=cache,
                     results_dir=os.path.join(root, "results"))
    bench = Workbench(config, jobs=jobs)
    journal = start_run(results_dir=config.results_dir,
                        argv=["explore", SPEC_PATH], config=config,
                        seed=config.seed)
    status = "failed"
    try:
        started = perf_counter()
        result = run_explore(bench, spec)
        seconds = perf_counter() - started
        status = "ok"
    finally:
        end_run(status=status)
    return seconds, result, read_events(journal.run_dir)


def _frontier(result):
    return tuple((c.enob, c.nmult, c.eq_enob, c.emac_pj, c.loss)
                 for c in result.frontier)


def _check(result) -> list:
    counts = result.counts
    total = counts["evaluated"] + counts["pruned"] + counts["merged"]
    if total != SPEC_POINTS:
        return [f"classification counts {counts} sum to {total}, "
                f"not {SPEC_POINTS}"]
    return []


def run(seed: int, seconds: float, tracer, scratch) -> Outcome:
    jobs = JOBS
    spec = _spec(seed)
    if len(spec.points) != SPEC_POINTS:
        raise ValueError(f"{SPEC_PATH} has {len(spec.points)} points, "
                         f"not {SPEC_POINTS}")
    setups = []
    for _ in range(SETUP_REPS if tracer is None else 1):
        if tracer is not None:
            with tracer.active("setup"):
                setup_s, config = _setup(scratch, jobs)
        else:
            setup_s, config = _setup(scratch, jobs)
        setups.append(setup_s)
    outcome = Outcome(metrics={}, attempted=0, failed=0,
                      host=host_block(seed, jobs=jobs))
    times, traced_times, frontiers = [], [], set()
    traced_events = []
    # Tier lookups of the traced set-up and searches, the scope of
    # registry.get_s.
    tiers = _tier_counts() if tracer is not None else None
    started = perf_counter()
    while True:
        traced = tracer is not None and outcome.attempted % 2 == 1
        if traced:
            before = _tier_counts()
            with tracer.active("measure"):
                secs, result, events = _search(scratch, config, jobs, spec)
            tiers = [t + a - b for t, a, b in zip(tiers, _tier_counts(), before)]
            traced_times.append(secs)
            traced_events.extend(events)
        else:
            secs, result, events = _search(scratch, config, jobs, spec)
            times.append(secs)
        outcome.attempted += 1
        problems = _check(result)
        outcome.failed += bool(problems)
        outcome.errors.extend(problems)
        frontiers.add(_frontier(result))
        log(f"search {outcome.attempted}: {secs:.3f}s {result.counts} "
            f"traced={traced}")
        if (perf_counter() - started >= seconds
                and outcome.attempted >= MIN_SEARCHES):
            break
    if len(frontiers) != 1:
        outcome.errors.append(
            f"{len(frontiers)} different Pareto frontiers from one seed")
    counts = result.counts
    outcome.report.append(
        f"explore_grid: {outcome.attempted} searches, counts {counts}, "
        f"frontier size {len(result.frontier)}, setup reps "
        f"{[round(s, 4) for s in setups]}")
    if tracer is None:
        outcome.metrics = end_to_end(setups, times,
                                     outcome.attempted - outcome.failed,
                                     outcome.attempted)
        outcome.report.append(named("explore_s", median(times), "s",
                                    "result = one search"))
        return outcome
    outcome.metrics = _layers(tracer, traced_events, traced_times, times,
                              jobs, counts, tiers, outcome.report)
    return outcome


def _tier_counts():
    """(hits, misses) the process-wide registry has counted so far."""
    from repro.obs.metrics import default_registry

    registry = default_registry()
    return [sum(c.value for c in registry.children(name).values())
            for name in ("registry.tier_hit", "registry.tier_miss")]


def _layers(tracer, events, traced_times, times, jobs, counts, tiers, report):
    searches = len(traced_times)
    sweeps = [s for s in tracer.select("measure") if s.name == "parallel.sweep"]
    stage = {"surrogate": 0.0, "full": 0.0}
    for span in sweeps:
        stage[span.attrs] += span.duration
    prune = tracer.self_times(tracer.select("measure")).get(
        "explore.surrogate_prune", {"total_s": 0.0})
    points = sorted(e["seconds"] for e in events
                    if e["event"] == "sweep.point_done")
    sweep_wall = sum(span.duration for span in sweeps)
    overhead = median(traced_times) / median(times) - 1.0
    classes = SPEC_POINTS - counts["merged"]
    report.append(f"tracing overhead: explore_s untraced={median(times):.3f} "
                  f"traced={median(traced_times):.3f} "
                  f"({100 * overhead:+.2f}%)")
    report.append(f"sweep points journaled: {len(points)}; "
                  f"pruned {counts['pruned']} of {classes} classes")
    report.extend(layer_table(tracer))
    return layer_metrics(tracer, searches, {
        "parallel.point_s.p50": median(points) if points else 0.0,
        "parallel.point_s.max": points[-1] if points else 0.0,
        "parallel.utilization":
            sum(points) / (jobs * sweep_wall) if sweep_wall else 0.0,
        "explore.surrogate_s": (stage["surrogate"] + prune["total_s"]) / searches,
        "explore.full_s": stage["full"] / searches,
        "explore.prune_ratio": counts["pruned"] / classes,
        "registry.tier_hit": tiers[0],
        "registry.tier_miss": tiers[1],
        "trace.overhead_ratio": overhead,
    })
