"""A/B: effect-directed serialization vs whole-plan serial execution.

The race detector's value proposition: a plan with *one* genuinely
conflicting op pair should not lose the wavefront executor for the whole
plan.  We take InceptionV3 in training mode (every variable has an optimizer
writer — the case the old executor always bailed out of) and inject one
extra variable writer so the plan carries exactly one write-write pair, then
run two modes:

* **serial** — workers=1, the ground-truth baseline, and what an
  all-or-nothing classifier would fall back to for the whole plan;
* **effect-directed** — workers=4 with the race analysis: only the injected
  pair is serialized, the rest of the plan runs wavefronted.

Claims backed by numbers: both modes produce bit-identical loss trajectories
and final variable state; the effect-directed mode parallelizes (and on a
>=4-CPU host beats serial by >=1.3x wall clock).

Runs under pytest (``--benchmark-only``) or directly::

    python benchmarks/bench_effects_ab.py [--smoke]
"""

import os
import sys

import numpy as np

import repro.amanda as amanda
import repro.models.graph as GM
from repro.graph import builder as gb

from _common import report, wall_time

QUICK = (os.environ.get("REPRO_BENCH_QUICK") == "1"
         or "--smoke" in sys.argv)
REPEATS = 2 if QUICK else 5
INPUT_SHAPE = (2, 16, 16, 3)


def build_with_injected_writer():
    """InceptionV3 training graph plus one extra writer of a trained var."""
    gm = GM.build_inception_v3(learning_rate=0.1, training=True)
    graph = gm.graph
    # pick a variable the optimizer already updates: its AssignSub and our
    # AssignAdd both write the same store key with no path between them
    target = next(op for op in graph.operations
                  if op.type == "AssignSub").attrs["var_name"]
    var = graph.get_operation(target).outputs[0]
    zeros = gb.constant(np.zeros_like(graph.variables.read(target)),
                        name="injected_delta", graph=graph)
    gb.assign_add(var, zeros, name="injected_writer")
    return gm, target


def run_mode(workers):
    rng = np.random.default_rng(0)
    gm, target = build_with_injected_writer()
    sess = gm.session()
    feed = {gm.inputs: rng.standard_normal(INPUT_SHAPE),
            gm.labels: rng.integers(0, 4, INPUT_SHAPE[0])}
    fetches = [gm.loss, gm.train_op,
               gm.graph.get_operation("injected_writer").outputs[0]]

    def step():
        return np.asarray(sess.run(fetches, feed)[0])

    with amanda.num_workers(workers):
        losses = [step() for _ in range(3)]
        seconds = wall_time(step, repeats=REPEATS)
        final_var = np.array(gm.graph.variables.read(target))
    sess.close()
    return {"losses": np.array(losses), "seconds": seconds,
            "final_var": final_var, "parallel": sess.last_run_parallel,
            "report": sess.last_serialization_report}


def run_all():
    return {"serial": run_mode(1), "effect-directed": run_mode(4)}


def check_and_report(rows):
    serial = rows["serial"]
    assert not serial["parallel"]
    directed = rows["effect-directed"]
    assert directed["parallel"], directed["report"].fallback_reason
    assert len(directed["report"].conflicts) == 1
    conflict = directed["report"].conflicts[0]
    assert conflict.kind == "write-write"
    assert "injected_writer" in (conflict.first, conflict.second)

    np.testing.assert_array_equal(directed["losses"], serial["losses"])
    np.testing.assert_array_equal(directed["final_var"], serial["final_var"])

    lines = [f"InceptionV3 train {INPUT_SHAPE} + 1 injected variable "
             f"writer (one write-write pair), host_cpus={os.cpu_count()}",
             f"{'mode':<17} {'workers':>7} {'wall/iter':>11} {'speedup':>9} "
             f"{'executor':>10} {'serialized pairs':>17}"]
    for name, workers in (("serial", 1), ("effect-directed", 4)):
        row = rows[name]
        lines.append(
            f"{name:<17} {workers:>7} {row['seconds'] * 1e3:>9.2f}ms "
            f"{serial['seconds'] / row['seconds']:>8.2f}x "
            f"{'wavefront' if row['parallel'] else 'serial':>10} "
            f"{len(row['report'].conflicts):>17}")
    lines.append(f"conflict: {conflict}")
    report("effects_ab", lines)

    if (os.cpu_count() or 1) >= 4:
        assert serial["seconds"] / directed["seconds"] >= 1.3, (
            f"expected effect-directed >=1.3x over serial, got "
            f"{serial['seconds'] / directed['seconds']:.2f}x")


def test_effects_ab(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    check_and_report(rows)


if __name__ == "__main__":
    check_and_report(run_all())
