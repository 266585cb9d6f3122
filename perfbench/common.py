"""Shared helpers for the benchmark workloads: scratch space, statistics,
memory, and the host/budget block printed with every result."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this folder).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Everything a run writes stays under these two checkout directories.
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Percentiles a tail may be reported at; the highest one with at least
#: ten samples beyond it is used.  The steps are coarse so that the
#: seed-to-seed wobble of a Poisson rung's sample count never changes
#: which percentile a workload reports.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Thread-count environment variables recorded (never set) by the run.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)

#: The ``benchmarks/conftest.py`` bench scale (``explore_grid`` runs at
#: it); copied so the benchmark does not move when
#: the pytest fixtures do.
BENCH_SCALE = dict(
    num_classes=4,
    image_size=8,
    train_per_class=24,
    val_per_class=10,
    pretrain_epochs=3,
    retrain_epochs=2,
    batch_size=32,
    patience=2,
    eval_passes=2,
    enob_sweep=(4.0, 6.0),
    table2_enob=4.0,
    fig6_enobs=(4.0, 6.0),
)


def nproc() -> int:
    """CPUs this process may run on; all parallelism is sized to it."""
    return len(os.sched_getaffinity(0))


class Scratch:
    """A private directory under the checkout, removed on close.

    ``TMPDIR`` points into it for the life of the run, so library code
    that asks :mod:`tempfile` for space (published serving weights,
    pool scratch) also stays inside the checkout.
    """

    def __init__(self):
        os.makedirs(SCRATCH_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=SCRATCH_ROOT)
        self._old_tmpdir = os.environ.get("TMPDIR")
        os.environ["TMPDIR"] = self.path
        tempfile.tempdir = self.path
        self._count = 0

    def fresh(self, tag: str) -> str:
        """A new empty directory (e.g. an empty model cache)."""
        self._count += 1
        path = os.path.join(self.path, f"{tag}{self._count}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        tempfile.tempdir = None
        if self._old_tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = self._old_tmpdir
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass  # another run still owns a sibling directory


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples)``: the highest ladder percentile
    with at least ten samples beyond it (the median when there are
    fewer than twenty samples)."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("tail of no samples")
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            chosen = pct
    return chosen, percentile(data, chosen), n


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Highest peak RSS among this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def blas_info() -> Dict[str, Optional[str]]:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return {"name": None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def host_block(seed: int, replicas: int = 0, jobs: int = 1) -> dict:
    """Where and under which thread/process budget a result was taken."""
    import numpy as np

    return {
        "nproc": nproc(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "replicas": replicas,
        "jobs": jobs,
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setups: Sequence[float], results_s: Sequence[float],
               ok: int, attempted: int) -> Dict[str, dict]:
    """The gated metrics every workload reports, each with its unit.

    ``result_p50_ms`` is the median wait for one of the workload's
    results (a fit, a request, a search) and ``ok_ratio`` the share of
    attempted results that completed and passed their output check.
    """
    return {
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "result_p50_ms": metric(1e3 * median(results_s), "ms"),
        "ok_ratio": metric(ok / attempted, "ratio"),
    }


def named(name: str, value: float, unit: str, note: str = "") -> str:
    """A report line for a metric printed but not gated."""
    return f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else "")


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: Dict[str, dict]
    attempted: int
    failed: int
    errors: List[str] = field(default_factory=list)
    host: dict = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.errors


def log(message: str) -> None:
    """Progress and report lines go to stderr; stdout carries results."""
    print(message, file=sys.stderr, flush=True)
