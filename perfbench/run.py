"""The repository's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload train_ams --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from
``src/`` and writes only under ``.perfbench_tmp/`` (scratch, removed at
exit) and ``.perfbench_out/`` (span dumps of traced runs).

Workloads (each starts from an empty temporary model cache and sizes
every replica and sweep-job count to the CPUs it may run on):

- ``train_ams``   -- ``Trainer.fit`` with AMS error in the loop;
- ``serve_open``  -- open-loop Poisson traffic through ``FrontDoor`` to
  a ``ServeCluster`` at a ladder of rates;
- ``explore_grid`` -- ``run_explore`` on ``examples/explore_grid.yaml``.

``--trace 0`` measures the end-to-end metrics with no tracing code
installed.  ``--trace 1`` is the separate traced run: it wraps each
layer's entry points (see ``tracer.py``), reports the per-layer metrics
of ``layers.py`` and the tracing overhead against untraced work done in
the same run, and writes its spans to ``.perfbench_out/``.

Report lines (host and thread budget, percentiles used, per-rung
health, per-layer tables) go to stdout; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
output check prints ``"correct": false`` and exits 1.  The benchmark
never sets thread-count environment variables: it records them, so
oversubscription shows instead of hiding.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import OUT_DIR, ROOT, Scratch, log

WORKLOADS = ("train_ams", "serve_open", "explore_grid")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        log(f"no program sources under {src}: run from a full checkout")
        return 2
    sys.path.insert(0, src)

    import importlib

    workload = importlib.import_module(args.workload)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    scratch = Scratch()
    try:
        outcome = workload.run(args.seed, args.seconds, tracer, scratch)
    finally:
        scratch.close()
    if tracer is not None:
        path = os.path.join(OUT_DIR,
                            f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        outcome.report.append(f"spans written to {os.path.relpath(path, ROOT)}")

    print("host: " + json.dumps(outcome.host, sort_keys=True))
    for line in outcome.report:
        print(line)
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}")
    for name, value in outcome.metrics.items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
