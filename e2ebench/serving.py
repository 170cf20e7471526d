"""serve-sampled: open-loop traffic against a two-tenant ``ServeRuntime``.

Tenant ``bert`` serves graph BERT-mini logits (2 x 16 tokens) under
``FlopsProfilingTool``; tenant ``resnet`` serves a small graph ResNet
(2 x 16x16x3) under ``MagnitudePruningTool(0.5)``.  Each samples 1 request
in ``SAMPLE_RATE`` onto the instrumented lane.  One generator thread sends a
3:1 BERT:ResNet mix at seeded Poisson times to one serving worker, never
waiting for replies, and every request is timed from when it was due.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

import repro.amanda as amanda
import repro.models.graph.builders as GM
from repro.eager import alloc
from repro.kernels.runtime import runtime as kernel_runtime
from repro.serve import ServeRuntime
from repro.tools.profiling import FlopsProfilingTool
from repro.tools.pruning import MagnitudePruningTool

import measure
import oracles
from spans import GraphMisses, KernelMeter, SpanRecorder

SETUPS = 15
RING = 8
SAMPLE_RATE = 20
#: the 3:1 BERT:ResNet mix, interleaved the same way for every seed, so
#: every run sends the same sequence of tenants and lanes (and so the same
#: lease swaps); the seed sets arrival times, model weights and inputs
TENANT_CYCLE = ("bert", "bert", "resnet", "bert")
BERT_SHARE = TENANT_CYCLE.count("bert") / len(TENANT_CYCLE)
ROWS = 2
#: nominal rate, well below the 350-400 req/s at which the mix saturates
#: one worker on a 2-CPU host; at 100 req/s queueing amplified host-speed
#: swings so much that the nominal p90 spread 0.56 across seeds, against
#: 0.09 at 60 req/s in the same minutes
NOMINAL_RPS = 60
#: the frozen rate ladder behind max_rate_rps
LADDER_RPS = (200, 300, 400)
#: the limit max_rate_rps applies, on the highest percentile a ladder step
#: (under a second of traffic) can support: p90
LIMIT_MS = 50.0
LIMIT_PCT = 90
#: share of the measured seconds each phase gets
NOMINAL_SHARE = 0.8
LADDER_SHARE = 0.04
#: floor on each nominal phase, so a short run still leaves p90 (and, in
#: the traced run, the sampled lane's p50) ten samples beyond
MIN_NOMINAL_S = 5.0
#: nominal traffic times calibration slices (measure.Calibration) only in
#: gaps this long with no request outstanding, so a slice never delays a
#: send or competes with the program; a slice takes 2-4 ms
IDLE_GAP_S = 0.006
#: nominal latency is reported as the median over windows of this many
#: consecutive requests (enough for each window's p90): a host stall or a
#: full garbage collection (60 ms, some 7 s into the phase) in one window
#: cannot move the run's figure
LATENCY_WINDOW = 150
#: the saturation phase keeps this many requests outstanding (two full
#: micro-batches) for its share of the measured seconds
SATURATION_CLIENTS = 16
SATURATION_SHARE = 0.08
MB = 1e6
TENANTS = ("bert", "resnet")


class Serving:
    name = "serve-sampled"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 4])
        self.feeds = {
            "bert": [rng.integers(0, 32, (ROWS, 16)) for _ in range(RING)],
            "resnet": [rng.standard_normal((ROWS, 16, 16, 3))
                       for _ in range(RING)],
        }

    def models(self):
        return {"bert": GM.build_bert(seed=self.seed),
                "resnet": GM.build_resnet(layers=(1, 1, 1, 1),
                                          seed=self.seed + 1)}

    def feed(self, models, tenant, index):
        return {models[tenant].inputs: self.feeds[tenant][index]}

    def build(self):
        models = self.models()
        rt = ServeRuntime(workers=1)
        tenants = {
            "bert": rt.register("bert", models["bert"].graph,
                                models["bert"].logits,
                                tools=[FlopsProfilingTool()],
                                sample_rate=SAMPLE_RATE),
            "resnet": rt.register("resnet", models["resnet"].graph,
                                  models["resnet"].logits,
                                  tools=[MagnitudePruningTool(0.5)],
                                  sample_rate=SAMPLE_RATE),
        }
        rt.start()
        return {"models": models, "rt": rt, "tenants": tenants,
                "drawn": dict.fromkeys(TENANTS, 0)}

    def first_requests(self, state) -> list[measure.Sent]:
        """One request per tenant, both resolved: the end of set-up."""
        records = []
        for tenant in TENANTS:
            sampled = self._draw(state, tenant)
            now = time.perf_counter()
            record = measure.Sent(-1, (tenant, sampled), now, now,
                                  tag=(tenant, sampled, 0))
            future = state["rt"].submit(state["tenants"][tenant],
                                        self.feed(state["models"], tenant, 0))
            records.append((record, future))
        for record, future in records:
            record.error = future.exception(30)
            record.resolved = time.perf_counter()
            if record.error is None:
                record.value = future.result(0)
        return [record for record, _ in records]

    @staticmethod
    def _draw(state, tenant) -> bool:
        # mirrors the runtime's deterministic 1-in-N draw, so the benchmark
        # knows each request's lane when it sends it
        k = state["drawn"][tenant]
        state["drawn"][tenant] = k + 1
        return k % SAMPLE_RATE == 0

    def requests(self, state):
        """``i -> (lane, submit args, oracle tag)`` for the ``i``-th send."""
        tenants, models = state["tenants"], state["models"]

        def requests(i):
            tenant = TENANT_CYCLE[i % len(TENANT_CYCLE)]
            sampled = self._draw(state, tenant)
            index = i % RING
            return ((tenant, sampled),
                    (tenants[tenant], self.feed(models, tenant, index)),
                    (tenant, sampled, index))
        return requests

    def phase(self, state, offsets, rate, tr=None, misses=None,
              idle=None) -> measure.PhaseResult:
        on_submit = None
        if tr is not None:
            def on_submit(start, end, index):
                tr.add("submit", "serve", start, end, step=index)
                misses.poll()
        return measure.run_open_loop(state["rt"].submit,
                                     self.requests(state), offsets, rate,
                                     on_submit=on_submit, idle=idle,
                                     idle_s=IDLE_GAP_S)


def _phase_line(label, phase) -> str:
    lat = [x for x in phase.latencies() if math.isfinite(x)]
    n = len(phase.sent)
    parts = [f"# phase {label}: rate={phase.rate:g}/s sent={n} "
             f"failed={phase.failed}"]
    for p in (50, 90, 99):
        if lat and measure.supported(len(lat), p):
            parts.append(f"p{p}={measure.percentile(lat, p) * 1e3:.3f}ms")
        else:
            parts.append(f"p{p}=n/a(<{measure.min_samples(p)} samples)")
    lags = phase.lags
    if lags and measure.supported(len(lags), 90):
        parts.append(f"lag_p90={measure.percentile(lags, 90) * 1e3:.3f}ms")
    parts.append(f"backlog_end={phase.backlog_end}")
    return " ".join(parts)


def meets_limit(phase, slack: int) -> bool:
    """Within the latency limit, with no failure and no growing backlog."""
    lat = phase.latencies()
    if phase.failed or not measure.supported(len(lat), LIMIT_PCT):
        return False
    return (measure.percentile(lat, LIMIT_PCT) * 1e3 <= LIMIT_MS
            and not measure.backlog_growing(phase.outstanding, slack))


def _references(wl, trace: bool):
    """Direct ``Session.run`` of every ring feed on freshly built models.

    Returns per-tenant vanilla outputs, the pruned ResNet outputs under a
    fresh ``MagnitudePruningTool(0.5)``, and, for the traced run, warm
    direct-run timings with the kernel busy time inside them.
    """
    models = wl.models()
    vanilla, timings = {}, {}
    for tenant in TENANTS:
        sess = models[tenant].session()
        logits = models[tenant].logits
        feeds = [wl.feed(models, tenant, i) for i in range(RING)]
        vanilla[tenant] = [sess.run(logits, f) for f in feeds]
        if trace:
            meter = KernelMeter()
            runs = []
            kernel_runtime.subscribe(meter)
            try:
                for _ in range(3):
                    for f in feeds:
                        before = meter.read()[1]
                        start = time.perf_counter()
                        sess.run(logits, f)
                        wall = time.perf_counter() - start
                        runs.append((wall, wall - (meter.read()[1] - before)))
            finally:
                kernel_runtime.unsubscribe(meter)
            timings[tenant] = (measure.median([r[0] for r in runs]),
                               measure.median([r[1] for r in runs]))
    pruned_model = wl.models()["resnet"]
    sess = pruned_model.session()
    with amanda.apply(MagnitudePruningTool(0.5)):
        pruned = [sess.run(pruned_model.logits,
                           {pruned_model.inputs: wl.feeds["resnet"][i]})
                  for i in range(RING)]
    return vanilla, pruned, timings


def run(name: str, seed: int, seconds: float, trace: bool,
        trace_path: str | None) -> dict:
    wl = Serving(seed)
    clock = time.perf_counter
    tr = SpanRecorder() if trace else None
    setups, first_records = [], []
    for attempt in range(SETUPS):
        gc.collect()  # no set-up pays for an earlier one's garbage
        start = clock()
        state = wl.build()
        records = wl.first_requests(state)
        setups.append(clock() - start)
        first_records += records
        if attempt < SETUPS - 1:
            state["rt"].stop()
    rt = state["rt"]
    slack = rt.snapshot()["queue"]["max_batch"]
    rng = np.random.default_rng([seed, 5])
    phases: dict[str, measure.PhaseResult] = {}
    meter = KernelMeter()
    try:
        alloc.tracker.reset()
        if trace:
            half = max(MIN_NOMINAL_S, seconds * (
                NOMINAL_SHARE + len(LADDER_RPS) * LADDER_SHARE) / 2)
            phases["nominal"] = wl.phase(
                state, measure.poisson_schedule(rng, NOMINAL_RPS, half),
                NOMINAL_RPS)
            before = _counters(rt)
            misses = GraphMisses(amanda.manager)
            misses.start()
            kernel_runtime.subscribe(meter)
            try:
                with tr.span("nominal-traced", "bench") as phase_span:
                    phases["nominal-traced"] = wl.phase(
                        state, measure.poisson_schedule(rng, NOMINAL_RPS,
                                                        half),
                        NOMINAL_RPS, tr, misses)
            finally:
                kernel_runtime.unsubscribe(meter)
            delta = {k: v - before[k] for k, v in _counters(rt).items()}
            delta["misses"] = misses.total()
        else:
            nominal_s = max(MIN_NOMINAL_S, seconds * NOMINAL_SHARE)
            calibrate, slices = measure.Calibration(), []
            phases["nominal"] = wl.phase(
                state, measure.fixed_count_schedule(rng, NOMINAL_RPS,
                                                    nominal_s),
                NOMINAL_RPS, idle=lambda: slices.append(calibrate()))
            for rate in LADDER_RPS:
                phases[f"ladder-{rate}"] = wl.phase(
                    state, measure.poisson_schedule(
                        rng, rate, seconds * LADDER_SHARE), rate)
            phases["saturation"] = measure.run_closed_loop(
                rt.submit, wl.requests(state), SATURATION_CLIENTS,
                seconds * SATURATION_SHARE)
        peak = sum(alloc.tracker.snapshot()["peak"].values())
    finally:
        rt.stop()
    stats = {t: state["tenants"][t].stats() for t in TENANTS}

    sent = [s for phase in phases.values() for s in phase.sent]
    vanilla, pruned, timings = _references(wl, trace)
    oracles.check_differs("serve-sampled pruning reference",
                          vanilla["resnet"], pruned)

    def reference(tag):
        tenant, sampled, index = tag
        if tenant == "resnet" and sampled:
            return pruned[index]
        return vanilla[tenant][index]

    oracles.check_responses("serve-sampled set-up responses", first_records,
                            reference)
    oracles.check_responses("serve-sampled responses", sent, reference)
    for tenant in TENANTS:
        oracles.check_split(f"serve-sampled {tenant} sampling split",
                            stats[tenant])

    failed = sum(phase.failed for phase in phases.values())
    result = {"attempted": len(sent), "failed": failed,
              "samples": len(phases["nominal"].sent)}
    lines = [_phase_line(label, phase) for label, phase in phases.items()]
    if not trace:
        nominal = phases["nominal"].latencies()
        windows = phases["nominal"].windows(LATENCY_WINDOW)
        within = sum(1 for x in nominal if x * 1e3 <= LIMIT_MS)
        p50 = measure.median([measure.reported(w, 50) for w in windows])
        p90 = measure.median([measure.reported(w, 90) for w in windows])
        host = measure.median(slices)
        served = (max(s.resolved for s in phases["nominal"].sent)
                  - phases["nominal"].start)
        met = [NOMINAL_RPS] if meets_limit(phases["nominal"], slack) else []
        met += [rate for rate in LADDER_RPS
                if meets_limit(phases[f"ladder-{rate}"], slack)]
        saturated = phases["saturation"].sent
        span = (max(s.resolved for s in saturated)
                - min(s.due for s in saturated))
        lines += [
            f"# max_rate_rps={max(met, default=0)} (p{LIMIT_PCT} <= "
            f"{LIMIT_MS:g} ms, no growing backlog, no failure; frozen rates "
            f"{', '.join(map(str, (NOMINAL_RPS,) + LADDER_RPS))} req/s)",
            f"# saturated capacity: {len(saturated) / span:.1f} req/s with "
            f"{SATURATION_CLIENTS} requests outstanding",
            f"# nominal: {within}/{len(nominal)} requests within "
            f"{LIMIT_MS:g} ms; p50/p90 of each {LATENCY_WINDOW}-request "
            "window (ms): " + " ".join(
                f"{measure.percentile(w, 50) * 1e3:.2f}/"
                f"{measure.percentile(w, 90) * 1e3:.2f}" for w in windows),
            f"# latency_ms_p90={measure.normalized(p90, host) * 1e3} "
            "(normalized, median over windows; reported, not gated)",
            f"# raw wall clock: latency_ms_p50={p50 * 1e3} "
            f"latency_ms_p90={p90 * 1e3}; host: {len(slices)} calibration "
            f"slices in idle gaps, median {host * 1e3:.3f} ms (reference "
            f"{measure.CALIBRATION_REF_S * 1e3:g} ms)",
        ]
        result["lines"] = lines
        result["metrics"] = {
            "setup_s": (measure.median(setups), "s"),
            # goodput: samples per second served within the latency limit
            "samples_per_s": (ROWS * within / served, "1/s"),
            "latency_ms_p50": (measure.normalized(p50, host) * 1e3, "ms"),
            "peak_mb": (peak / MB, "MB"),
        }
        return result

    result["lines"] = lines
    result["metrics"] = _layer_metrics(tr, phases, phase_span, delta,
                                       meter, timings)
    tr.dump(trace_path)
    return result


def _counters(rt) -> dict:
    snap = rt.snapshot()
    return {
        "completed": snap["completed"],
        "batches": snap["batches_run"],
        "swaps": snap["lease"]["swaps"],
        "framework": amanda.manager.timers["framework"],
        "tool": amanda.manager.timers["tool"],
        "compiled": amanda.manager.plan_stats()["compiled"],
        "churn": sum(alloc.tracker.snapshot()["total"].values()),
    }


def _layer_metrics(tr, phases, phase_span, delta, meter, timings) -> dict:
    plain, traced = phases["nominal"], phases["nominal-traced"]
    for record in traced.sent:
        if record.error is None:
            tr.add("request", "serve", record.due, record.resolved,
                   parent=phase_span.id, step=record.index)
    both = plain.sent + traced.sent

    def lane_latency(sampled, p):
        lat = [s.latency for s in both
               if s.error is None and s.lane[1] == sampled]
        return measure.reported(lat, p) * 1e3

    requests = max(1, delta["completed"])
    launches, busy, nbytes = meter.read()
    # graph.run_ms: direct Session.run of the same feeds, weighted by the mix
    mix = {"bert": BERT_SHARE, "resnet": 1 - BERT_SHARE}
    run = sum(mix[t] * timings[t][0] for t in TENANTS)
    framework = sum(mix[t] * timings[t][1] for t in TENANTS)

    def p50(values):
        return measure.reported(values, 50)

    def ok(phase):
        return [x for x in phase.latencies() if math.isfinite(x)]

    return {
        "core.framework_ms": (delta["framework"] / requests * 1e3, "ms"),
        "tools.callback_ms": (delta["tool"] / requests * 1e3, "ms"),
        "core.plans_compiled": (delta["compiled"], "count"),
        "backends.graph_cache_misses": (delta["misses"], "count"),
        "kernels.launches": (launches / requests, "count"),
        "kernels.busy_ms": (busy / requests * 1e3, "ms"),
        "kernels.mbytes": (nbytes / requests / MB, "MB"),
        "graph.run_ms": (run * 1e3, "ms"),
        "graph.framework_ms": (framework * 1e3, "ms"),
        "alloc.churn_mb": (delta["churn"] / requests / MB, "MB"),
        "serve.submit_us": (p50(traced.submit_seconds) * 1e6, "us"),
        "serve.batch_size_mean": (delta["completed"]
                                  / max(1, delta["batches"]), "count"),
        "serve.lease_swaps_per_1k": (delta["swaps"] / requests * 1e3,
                                     "count"),
        "serve.vanilla_ms_p90": (lane_latency(False, 90), "ms"),
        "serve.sampled_ms_p50": (lane_latency(True, 50), "ms"),
        "serve.generator_lag_ms_p90": (
            measure.reported(plain.lags + traced.lags, 90) * 1e3, "ms"),
        "serve.backlog_end": (traced.backlog_end, "count"),
        "trace.overhead_pct": ((p50(ok(traced)) / p50(ok(plain)) - 1) * 100,
                               "%"),
    }
