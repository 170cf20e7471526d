"""Serving-runtime benchmark: latency/throughput vs workers and sampling.

Three claims ``repro.serve`` must back with numbers:

* **sampling pays** — at a fixed worker count, serving with 1-in-10 or
  1-in-100 sampled instrumentation delivers strictly more throughput than
  instrumenting every request (rate 1), because un-sampled requests take
  the exempt vanilla fast path instead of queueing on the lease;
* **vanilla lane is near-free** — the un-sampled path through the pool,
  batcher and futures stays close to a bare ``session.run`` loop (the
  machinery must not eat the fast path's win).  Direct and served bursts
  of the same requests are timed as paired, interleaved rounds, and the
  check reads the median pair;
* **workers scale the vanilla lane** — adding workers increases vanilla
  throughput (sampled execution is lease-serialized by design).

Reports p50/p99 latency (full request latency, enqueue to resolve) and
throughput for workers {1,2,4} x sample rate {1, 1/10, 1/100}.

Runs under pytest (``--benchmark-only``) or directly::

    python benchmarks/bench_serve.py [--smoke]
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

import repro.models.graph as GM
from repro import serve
from repro.tools.pruning import ActivationPruningTool

from _common import report

QUICK = (os.environ.get("REPRO_BENCH_QUICK") == "1"
         or "--smoke" in sys.argv)


class _HeavyAnalysisTool(ActivationPruningTool):
    """Production-weight instrumentation: per-activation singular values.

    Sampling exists because routines like this are too expensive to run on
    every request; the routine passes the activation through unchanged, so
    sampled and vanilla requests stay output-identical and only the cost
    differs.
    """

    def analysis(self, context):
        if context.get("type") not in self.op_types:
            return
        context.insert_after_op(self.spectrum, outputs=[0])

    @staticmethod
    def spectrum(activation):
        mat = activation.reshape(activation.shape[0], -1)
        for _ in range(8):
            np.linalg.svd(mat, compute_uv=False)
        return activation
REQUESTS = 60 if QUICK else 400
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4)
#: paired direct/served rounds of the vanilla-overhead comparison
VANILLA_ROUNDS = 3 if QUICK else 7
#: untimed requests that compile the plan before a timed burst
WARM_REQUESTS = 5
SAMPLE_RATES = (1, 10, 100)
BATCH_SIZE = 8
#: large enough per-request batch that kernel work dominates the
#: pool/batcher/future machinery in the vanilla-overhead comparison
INPUT_SHAPE = (64, 16)


def _workload():
    rng = np.random.default_rng(0)
    model = GM.build_mlp(seed=17)
    feeds = [{model.inputs: rng.standard_normal(INPUT_SHAPE)}
             for _ in range(REQUESTS)]
    return model, feeds


def _serve_burst(model, feeds, workers, sample_rate, tools, warm=0):
    rt = serve.ServeRuntime(f"bench-w{workers}-r{sample_rate}",
                            workers=workers, batch_size=BATCH_SIZE,
                            deadline_ms=2.0)
    tenant = rt.register("bench", model.graph, model.logits, tools=tools,
                         sample_rate=sample_rate)
    with rt:
        for feed in feeds[:warm]:
            rt.submit(tenant, feed).result(timeout=120.0)
        start = time.perf_counter()
        futures = [rt.submit(tenant, feed) for feed in feeds]
        for future in futures:
            future.result(timeout=120.0)
        elapsed = time.perf_counter() - start
        stats = tenant.stats()
    return {
        "workers": workers,
        "rate": sample_rate,
        "throughput": len(feeds) / elapsed,
        "sampled": stats["sampled"],
        "vanilla": stats["vanilla"],
        "lat_sampled": stats["latency"]["sampled"],
        "lat_vanilla": stats["latency"]["vanilla"],
    }


def _direct_burst(session, model, feeds):
    """Throughput of a bare ``session.run`` loop on one thread."""
    start = time.perf_counter()
    for feed in feeds:
        session.run(model.logits, feed)
    return len(feeds) / (time.perf_counter() - start)


def _vanilla_rounds(model, feeds):
    """Paired direct and served bursts of the same requests.

    Each round times the uninstrumented baseline (a bare ``session.run``
    loop) and a toolless tenant on one worker (every request vanilla), in
    alternating order, so a shift in host load hits both halves of a pair.
    Both sides compile their plan before the clock starts.
    """
    pairs = []
    with model.session() as session:
        for feed in feeds[:WARM_REQUESTS]:
            session.run(model.logits, feed)
        for index in range(VANILLA_ROUNDS):
            if index % 2:
                served = _serve_burst(model, feeds, workers=1, sample_rate=0,
                                      tools=(), warm=WARM_REQUESTS)
                direct = _direct_burst(session, model, feeds)
            else:
                direct = _direct_burst(session, model, feeds)
                served = _serve_burst(model, feeds, workers=1, sample_rate=0,
                                      tools=(), warm=WARM_REQUESTS)
            pairs.append((direct, served))
    return pairs


def run_all():
    model, feeds = _workload()
    pairs = _vanilla_rounds(model, feeds)
    rows = [_serve_burst(model, feeds, workers, rate,
                         tools=(_HeavyAnalysisTool(),))
            for workers in WORKER_COUNTS
            for rate in SAMPLE_RATES]
    return pairs, rows


def _fmt_ms(value):
    return "-" if value is None else f"{value:8.2f}"


def check_and_report(pairs, rows):
    # per pair: how much longer the served burst took than the direct one
    overheads = sorted(direct / served["throughput"] - 1.0
                       for direct, served in pairs)
    overhead = float(np.median(overheads))
    direct = float(np.median([direct for direct, _ in pairs]))
    plain = sorted((served for _, served in pairs),
                   key=lambda row: row["throughput"])[len(pairs) // 2]
    lines = [f"MLP {INPUT_SHAPE}, {REQUESTS} requests/burst, "
             f"batch<={BATCH_SIZE}, deadline=2ms, host_cpus={os.cpu_count()}",
             f"vanilla lane vs direct loop, {len(pairs)} paired rounds "
             f"(medians):",
             f"direct session.run loop: {direct:9.1f} req/s",
             f"serve vanilla-only (1 worker): {plain['throughput']:9.1f} "
             f"req/s (p50 {_fmt_ms(plain['lat_vanilla']['p50_ms'])}ms "
             f"p99 {_fmt_ms(plain['lat_vanilla']['p99_ms'])}ms)",
             f"vanilla-lane overhead: median {overhead:+.1%} (per pair: "
             + ", ".join(f"{value:+.0%}" for value in overheads) + ")",
             "",
             f"{'workers':<8} {'rate':>6} {'req/s':>9} "
             f"{'van p50':>9} {'van p99':>9} {'smp p50':>9} {'smp p99':>9} "
             f"{'sampled':>8}"]
    for row in rows:
        lines.append(
            f"{row['workers']:<8} 1/{row['rate']:<4} "
            f"{row['throughput']:>9.1f} "
            f"{_fmt_ms(row['lat_vanilla']['p50_ms'])} "
            f"{_fmt_ms(row['lat_vanilla']['p99_ms'])} "
            f"{_fmt_ms(row['lat_sampled']['p50_ms'])} "
            f"{_fmt_ms(row['lat_sampled']['p99_ms'])} "
            f"{row['sampled']:>8}")
    report("serve", lines)

    by_cell = {(r["workers"], r["rate"]): r for r in rows}
    for row in rows:
        # the deterministic 1-in-N split routed exactly as promised
        expected = (REQUESTS + row["rate"] - 1) // row["rate"]
        assert row["sampled"] == expected
        assert row["vanilla"] == REQUESTS - expected
        # latency recorders saw every request, with finite percentiles
        for lane in ("lat_vanilla", "lat_sampled"):
            if row[lane]["count"]:
                assert np.isfinite(row[lane]["p99_ms"])
                assert row[lane]["p99_ms"] >= row[lane]["p50_ms"]
    for workers in WORKER_COUNTS:
        # sampling pays: 1-in-100 beats instrumenting every request
        always = by_cell[(workers, 1)]["throughput"]
        sampled = by_cell[(workers, 100)]["throughput"]
        assert sampled > always, (
            f"sampling gained nothing at {workers} workers: "
            f"{sampled:.1f} <= {always:.1f} req/s")
    if not QUICK and (os.cpu_count() or 1) >= 2:
        # the serving machinery keeps the vanilla lane near the bare loop;
        # only armed with a second core, since on one CPU the submitting
        # thread and the worker contend for the same core
        assert overhead <= 0.25, (
            f"vanilla lane overhead {overhead:.1%} (median of "
            f"{len(pairs)} pairs) over the direct loop")


def test_serve(benchmark):
    pairs, rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    check_and_report(pairs, rows)


if __name__ == "__main__":
    check_and_report(*run_all())
