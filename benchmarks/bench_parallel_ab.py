"""A/B: serial executor vs wavefront-parallel executor (AMANDA_NUM_WORKERS).

Three claims the parallel executor must back with numbers:

* **equivalence** — outputs are bitwise identical at every worker count (the
  knob may never change results);
* **memory** — both executors free every intermediate at its last use, so
  each run's activation peak stays within the static liveness bound of its
  own schedule (per step for serial, per level for wavefront);
* **speed** — on a wide model (InceptionV3's four-branch blocks) with real
  cores available, 4 workers deliver a >=1.5x wall-clock win.  The speedup
  assertion only arms when the host actually has >= 4 CPUs: numpy kernels
  release the GIL, but threads cannot beat serial on a single core.

Runs under pytest (``--benchmark-only``) or directly::

    python benchmarks/bench_parallel_ab.py [--smoke]
"""

import os
import sys

import numpy as np

import repro.amanda as amanda
import repro.models.graph as GM
from repro.analysis.liveness import estimate_liveness
from repro.eager import alloc

from _common import report, wall_time

QUICK = (os.environ.get("REPRO_BENCH_QUICK") == "1"
         or "--smoke" in sys.argv)
REPEATS = 2 if QUICK else 6
WORKER_COUNTS = (1, 2, 4)
INPUT_SHAPE = (2, 16, 16, 3)


def run_all():
    rng = np.random.default_rng(0)
    gm = GM.build_inception_v3()
    sess = gm.session()
    feed = {gm.inputs: rng.standard_normal(INPUT_SHAPE),
            gm.labels: rng.integers(0, 4, INPUT_SHAPE[0])}

    rows = []
    baseline_out = None
    for workers in WORKER_COUNTS:
        with amanda.num_workers(workers):
            alloc.tracker.reset()
            out = np.asarray(sess.run(gm.logits, feed))
            peak = alloc.tracker.peak["dnn"]
            seconds = wall_time(lambda: sess.run(gm.logits, feed),
                                repeats=REPEATS)
        if baseline_out is None:
            baseline_out = out
        np.testing.assert_array_equal(out, baseline_out)
        rows.append({"workers": workers, "seconds": seconds, "peak": peak,
                     "parallel": sess.last_run_parallel})

    bounds = {mode: estimate_liveness(
        gm.graph, fetches=[gm.logits],
        feed_shapes={"input": INPUT_SHAPE}, exclude_types=(),
        schedule_mode=mode).peak_bytes for mode in ("serial", "wavefront")}
    sess.close()
    return rows, bounds


def check_and_report(rows, bounds):
    serial = rows[0]
    assert not serial["parallel"]
    lines = [f"InceptionV3 {INPUT_SHAPE}, fetch=logits, "
             f"host_cpus={os.cpu_count()}",
             f"{'workers':<9} {'wall/iter':>11} {'speedup':>9} "
             f"{'dnn peak':>11} {'executor':>10}"]
    for row in rows:
        lines.append(
            f"{row['workers']:<9} {row['seconds'] * 1e3:>9.2f}ms "
            f"{serial['seconds'] / row['seconds']:>8.2f}x "
            f"{row['peak'] / 1e6:>9.2f}MB "
            f"{'wavefront' if row['parallel'] else 'serial':>10}")
    lines.append(f"static liveness bound: serial "
                 f"{bounds['serial'] / 1e6:.2f}MB, wavefront "
                 f"{bounds['wavefront'] / 1e6:.2f}MB")
    report("parallel_ab", lines)

    # release at last use: each executor within its own static bound
    assert serial["peak"] <= bounds["serial"]
    for row in rows[1:]:
        assert row["parallel"]
        assert row["peak"] <= bounds["wavefront"]
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        best = min(row["seconds"] for row in rows[1:])
        assert serial["seconds"] / best >= 1.5, (
            f"expected >=1.5x on {cpus} cpus, got "
            f"{serial['seconds'] / best:.2f}x")


def test_parallel_ab(benchmark):
    rows, bounds = benchmark.pedantic(run_all, rounds=1, iterations=1)
    check_and_report(rows, bounds)


if __name__ == "__main__":
    check_and_report(*run_all())
