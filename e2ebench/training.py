"""Closed-loop training workloads: eager-tools, captured-train, graph-remat-train.

Each workload builds its model from the seed, times ``SETUPS`` fresh set-ups
(model build to first completed step), runs ``ORACLE_STEPS`` steps whose
outputs the oracle checks, then measures warm steps for the requested
seconds.  The next step starts when the previous one returns.  Steps cycle
through a ring of ``RING`` seeded batches.

Eager autograd graphs are reference cycles, so the tracker's live bytes
fall only when the cyclic collector runs; left to its allocation-count
schedule, ``peak_mb`` would measure that schedule.  The timed phase
therefore disables automatic collection and collects the young generation
at the end of every step, inside the step's timed region, so collection
cost is counted and the peak is one step's peak.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext

import numpy as np

import repro.amanda as amanda
import repro.eager as E
import repro.eager.functional as F
import repro.models.eager as EM
import repro.models.graph.builders as GM
from repro.analysis.effects import analyze_plan
from repro.analysis.liveness import estimate_liveness
from repro.analysis.remat import plan_remat_for_graph
from repro.analysis.verify import verify_graph
from repro.capture import capture_step
from repro.eager import alloc
from repro.eager.optim import SGD
from repro.graph.core import topo_plan
from repro.graph.fusion import fuse_graph
from repro.kernels.runtime import runtime as kernel_runtime
from repro.tools.profiling import FlopsProfilingTool
from repro.tools.pruning import ActivationPruningTool

import measure
import oracles
from spans import GraphMisses, KernelMeter, SpanRecorder

RING = 4
SETUPS = 5
ORACLE_STEPS = 4
#: p90 with ten samples beyond it needs 100 steps; a slow host runs longer
MIN_STEPS = 120
#: the traced run alternates untraced and traced blocks of this many steps
TRACE_BLOCK = 8
#: calibration slices timed after each set-up
SETUP_SLICES = 4
LR = 0.05
#: remat budget of graph-remat-train; the planner needs 26 recomputes at
#: batch 4 to fit it, so the trade is exercised
BUDGET = "3M"
BUDGET_BYTES = 3 << 20
MB = 1e6


def _span(tr, name, layer, step):
    return tr.span(name, layer, step) if tr is not None else nullcontext()


def _loss_fn(model, x, y):
    return F.cross_entropy(model(x), y)


class _EagerResNet:
    """ResNet18 SGD on 8 x 3x16x16 images, shared by two workloads."""

    batch = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.ring = [(E.tensor(rng.standard_normal((self.batch, 3, 16, 16))),
                      rng.integers(0, 4, self.batch)) for _ in range(RING)]

    def model(self):
        model = EM.resnet18(rng=np.random.default_rng([self.seed, 2]))
        return model, SGD(model.parameters(), lr=LR)

    def eager_step(self, state, x, y, tr, step):
        with _span(tr, "forward", "eager", step):
            loss = _loss_fn(state["model"], x, y)
        with _span(tr, "backward", "eager", step):
            loss.backward()
        self.optim(state, tr, step)
        return np.array(loss.data)

    @staticmethod
    def optim(state, tr, step):
        with _span(tr, "optim", "eager", step):
            state["opt"].step()
            state["opt"].zero_grad()

    def plain_reference(self, steps: int):
        """Losses and parameters of plain eager steps with no tool."""
        model, opt = self.model()
        state = {"model": model, "opt": opt}
        losses = [self.eager_step(state, *self.ring[i % RING], None, i)
                  for i in range(steps)]
        return losses, state


class EagerTools(_EagerResNet):
    """The paper's main scenario: eager training under two tools."""

    name = "eager-tools"

    def build(self, stack: ExitStack, cached: bool = True):
        model, opt = self.model()
        state = {"model": model, "opt": opt, "flops": FlopsProfilingTool()}
        if not cached:
            stack.enter_context(amanda.cache_disabled())
        stack.enter_context(amanda.apply(
            ActivationPruningTool(keep_ratio=0.5), state["flops"]))
        return state

    def step(self, state, batch, tr, step):
        loss = self.eager_step(state, *batch, tr, step)
        amanda.new_iteration()
        return loss

    def snapshot(self, state):
        state["profile"] = oracles.profile_digest(state["flops"])

    def check(self, state, losses):
        k = ORACLE_STEPS
        with ExitStack() as stack:
            ref = self.build(stack, cached=False)
            ref_losses = [self.step(ref, self.ring[i % RING], None, i)
                          for i in range(k)]
            ref_profile = oracles.profile_digest(ref["flops"])
        oracles.check_equal("eager-tools losses vs cache-disabled analysis",
                            ref_losses, losses[:k])
        oracles.check_profile("eager-tools FLOPs profile vs cache-disabled "
                              "analysis", ref_profile, state["profile"])
        plain, _ = self.plain_reference(1)
        oracles.check_differs("eager-tools losses vs uninstrumented run",
                              plain, losses)


class CapturedTrain(_EagerResNet):
    """The same model and batches, forward+backward captured into a graph."""

    name = "captured-train"

    def build(self, stack: ExitStack):
        model, opt = self.model()
        stack.enter_context(amanda.apply(FlopsProfilingTool()))
        return {"model": model, "opt": opt,
                "captured": capture_step(model, _loss_fn), "runs": []}

    def step(self, state, batch, tr, step):
        captured = state["captured"]
        with _span(tr, "captured_call", "capture", step):
            loss = captured(*batch)
        if tr is not None:
            state["runs"].append(self.session(state).last_run_seconds)
        self.optim(state, tr, step)
        amanda.new_iteration()
        return np.array(loss.data)

    @staticmethod
    def bucket(state):
        # read-only look at the single guard bucket: its graph and session
        # are what the analysis timings and graph.run_ms describe
        (bucket,) = state["captured"]._buckets.values()
        return bucket

    def session(self, state):
        return self.bucket(state).session

    def snapshot(self, state):
        state["params"] = {name: p.data.copy() for name, p
                           in state["model"].named_parameters()}

    def check(self, state, losses):
        k = ORACLE_STEPS
        ref_losses, ref = self.plain_reference(k)
        oracles.check_equal("captured-train losses vs plain eager",
                            ref_losses, losses[:k])
        oracles.check_params("captured-train parameters vs plain eager",
                             {n: p.data for n, p
                              in ref["model"].named_parameters()},
                             state["params"])
        captured = state["captured"]
        if captured.capture_count != 1 or captured.fallback_count != 0:
            raise oracles.Divergence(
                "captured-train capture", "end of run",
                f"capture_count={captured.capture_count}, fallback_count="
                f"{captured.fallback_count} "
                f"({captured.last_fallback_reason}); expected 1 and 0")

    def analysis_target(self, state):
        bucket = self.bucket(state)
        args = self.ring[0]
        shapes = {ph: np.shape(getattr(args[key], "data", args[key]))
                  for _, key, ph in bucket.feeds}
        return bucket.graph, bucket.fetches, shapes


class GraphRematTrain:
    """Graph-builder InceptionV3 training under an activation-memory budget."""

    name = "graph-remat-train"
    batch = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.ring = [(rng.standard_normal((self.batch, 32, 32, 3)),
                      rng.integers(0, 4, self.batch)) for _ in range(RING)]

    def build(self, stack: ExitStack, budget=BUDGET):
        # train_op writes the builder's variable store in place, so every
        # run (and every reference) starts from a fresh build
        gm = GM.build_inception_v3(learning_rate=LR, training=True,
                                   seed=self.seed)
        stack.enter_context(amanda.memory_budget(budget))
        return {"gm": gm, "session": gm.session(), "runs": []}

    def step(self, state, batch, tr, step):
        gm, sess = state["gm"], state["session"]
        x, y = batch
        with _span(tr, "session.run", "graph", step) as span:
            loss, _ = sess.run([gm.loss, gm.train_op],
                               {gm.inputs: x, gm.labels: y})
        if tr is not None:
            state["runs"].append(span.end - span.start)
        return np.array(loss)

    def snapshot(self, state):
        pass

    def check(self, state, losses):
        k = ORACLE_STEPS
        with ExitStack() as stack:
            ref = self.build(stack, budget=0)
            ref_losses = [self.step(ref, self.ring[i % RING], None, i)
                          for i in range(k)]
        oracles.check_equal("graph-remat-train losses vs unbudgeted run",
                            ref_losses, losses[:k])
        remat = state["session"].last_compiled.remat
        if remat is None or remat.num_recomputes <= 0:
            raise oracles.Divergence(
                "graph-remat-train remat", "last compiled plan",
                "the budget did not bind (no recomputes)")
        if state["peak_bytes"] > BUDGET_BYTES:
            raise oracles.Divergence(
                "graph-remat-train peak", "timed phase",
                f"tracker peak {state['peak_bytes']} B over the "
                f"{BUDGET_BYTES} B budget")

    def analysis_target(self, state):
        gm = state["gm"]
        x, y = self.ring[0]
        return (gm.graph, [gm.loss, gm.train_op],
                {gm.inputs.op.name: x.shape, gm.labels.op.name: y.shape})


WORKLOADS = {w.name: w for w in (EagerTools, CapturedTrain, GraphRematTrain)}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _timed(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return measure.median(times)


ANALYSIS_KEYS = ("graph.fusion_ms", "analysis.verify_ms",
                 "analysis.effects_ms", "analysis.liveness_ms",
                 "analysis.remat_ms")


def analysis_times(graph, fetches, feed_shapes) -> dict:
    """Seconds of direct timed calls of each compile pass on ``graph``."""
    roots = [t.op for t in fetches]
    protected = {op.name for op in roots}
    return {
        "graph.fusion_ms": _timed(lambda: fuse_graph(graph, protected)),
        "analysis.verify_ms": _timed(
            lambda: verify_graph(graph, feed_shapes=feed_shapes)),
        "analysis.effects_ms": _timed(lambda: analyze_plan(topo_plan(roots))),
        "analysis.liveness_ms": _timed(
            lambda: estimate_liveness(graph, fetches,
                                      feed_shapes=feed_shapes)),
        "analysis.remat_ms": _timed(
            lambda: plan_remat_for_graph(graph, fetches, BUDGET_BYTES,
                                         feed_shapes=feed_shapes)),
    }


def _plan_counts() -> tuple[int, int]:
    stats = amanda.manager.plan_stats()
    return (stats["compiled"],
            sum(op["replays"] for op in stats["ops"].values()))


def _tracked_total() -> int:
    return sum(alloc.tracker.snapshot()["total"].values())


class TimedPhase:
    """Warm steps of one closed loop, with per-step counters when traced.

    ``steps`` are raw wall times; ``normalized`` rescales each by the
    calibration slice run right after it (:class:`measure.Calibration`).
    """

    def __init__(self) -> None:
        self.steps: list[float] = []
        self.normalized: list[float] = []
        self.slices: list[float] = []
        self.losses: list = []
        self.failed = 0
        self.traced: list[float] = []
        self.untraced: list[float] = []
        self.per_step: list[dict] = []


def timed_phase(wl, state, seconds: float, first: int, tr=None,
                clock=time.perf_counter, calibrate=None) -> TimedPhase:
    """Run steps ``first, first + 1, ...`` for ``seconds`` (at least
    ``MIN_STEPS`` that complete, unless as many fail).  A step that raises
    is counted and the loop goes on.

    With a recorder ``tr``, blocks of ``TRACE_BLOCK`` steps alternate between
    untraced and traced, so one run also gives the tracing overhead.
    """
    out = TimedPhase()
    meter = KernelMeter()
    calibrate = calibrate or measure.Calibration()
    gc.collect()
    gc.disable()
    try:
        deadline = clock() + seconds
        i = first
        while clock() < deadline or (len(out.steps) < MIN_STEPS
                                     and out.failed < MIN_STEPS):
            tracing = tr is not None and (i // TRACE_BLOCK) % 2 == 1
            step_tr = tr if tracing else None
            if tracing:
                kernel_runtime.subscribe(meter)
                timers = dict(amanda.manager.timers)
                churn = _tracked_total()
                kernels = meter.read()
            t0 = clock()
            try:
                with _span(step_tr, "step", "bench", i):
                    loss = wl.step(state, wl.ring[i % RING], step_tr, i)
                    gc.collect(0)
            except Exception:
                out.failed += 1
                if out.failed == 1:
                    traceback.print_exc(file=sys.stderr)
            else:
                elapsed = clock() - t0
                out.slices.append(calibrate())
                scaled = measure.normalized(elapsed, out.slices[-1])
                out.steps.append(elapsed)
                out.normalized.append(scaled)
                out.losses.append(loss)
                (out.traced if tracing else out.untraced).append(scaled)
            if tracing:
                launches, busy, nbytes = meter.read()
                kernel_runtime.unsubscribe(meter)
                out.per_step.append({
                    "framework": amanda.manager.timers["framework"]
                    - timers["framework"],
                    "tool": amanda.manager.timers["tool"] - timers["tool"],
                    "launches": launches - kernels[0],
                    "busy": busy - kernels[1],
                    "bytes": nbytes - kernels[2],
                    "churn": _tracked_total() - churn,
                })
            i += 1
    finally:
        gc.enable()
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        trace_path: str | None) -> dict:
    wl = WORKLOADS[name](seed)
    clock = time.perf_counter
    tr = SpanRecorder() if trace else None
    calibrate = measure.Calibration()
    setups, setups_raw = [], []
    for attempt in range(SETUPS):
        gc.collect()  # no set-up pays for an earlier one's garbage
        stack = ExitStack()
        last = attempt == SETUPS - 1
        start = clock()
        state = wl.build(stack)
        # the traced run records the kept set-up's first step as step 0
        first = wl.step(state, wl.ring[0], tr if last else None, 0)
        setups_raw.append(clock() - start)
        setups.append(measure.normalized(setups_raw[-1],
                                         calibrate(SETUP_SLICES)))
        if not last:
            stack.close()
    losses = [first]
    with stack:
        for i in range(1, ORACLE_STEPS):
            losses.append(wl.step(state, wl.ring[i % RING], None, i))
        wl.snapshot(state)
        gc.collect()
        alloc.tracker.reset()
        if trace:
            counts_before = _plan_counts()
            misses = GraphMisses(amanda.manager)
            misses.start()
        phase = timed_phase(wl, state, seconds, ORACLE_STEPS, tr,
                            calibrate=calibrate)
        state["peak_bytes"] = sum(alloc.tracker.snapshot()["peak"].values())
        if trace:
            counts = [a - b for a, b in zip(_plan_counts(), counts_before)]
            counts.append(misses.total())
            layer_state = _layer_state(wl, state)
    losses += phase.losses
    bad = [j for j, loss in enumerate(losses) if not np.isfinite(loss)]
    if bad:
        raise oracles.Divergence(f"{name} losses", f"step {bad[0]}",
                                 "loss is not finite")
    wl.check(state, losses)

    steps = phase.steps
    result = {"attempted": len(steps) + phase.failed, "failed": phase.failed,
              "samples": len(steps)}
    if trace:
        result["metrics"] = _layer_metrics(tr, phase, counts, layer_state)
        tr.dump(trace_path)
        return result
    norm = phase.normalized
    result["metrics"] = {
        "setup_s": (measure.median(setups), "s"),
        "samples_per_s": (wl.batch * len(norm) / sum(norm), "1/s"),
        "latency_ms_p50": (measure.reported(norm, 50) * 1e3, "ms"),
        "peak_mb": (state["peak_bytes"] / MB, "MB"),
    }
    result["lines"] = [
        f"# latency_ms_p90={measure.reported(norm, 90) * 1e3} "
        f"(normalized; over {len(norm)} steps; reported, not gated)",
        f"# raw wall clock: setup_s={measure.median(setups_raw)} "
        f"samples_per_s={wl.batch * len(steps) / sum(steps)} "
        f"latency_ms_p50={measure.reported(steps, 50) * 1e3} "
        f"latency_ms_p90={measure.reported(steps, 90) * 1e3}",
        f"# host: calibration slice median "
        f"{measure.median(phase.slices) * 1e3:.3f} ms (reference "
        f"{measure.CALIBRATION_REF_S * 1e3:g} ms)",
    ]
    return result


def _layer_state(wl, state) -> dict:
    """What the per-layer metrics read from the program after the loop."""
    runs = state.get("runs", [])
    out = {"first_run": runs[0] if runs else 0.0, "runs": runs[1:]}
    if isinstance(wl, GraphRematTrain):
        remat = state["session"].last_compiled.remat
        out["recomputes"] = remat.num_recomputes if remat else 0
        out["planned_peak"] = remat.peak_bytes if remat else 0
    if isinstance(wl, CapturedTrain):
        captured = state["captured"]
        calls = (captured.capture_count + captured.replay_count
                 + captured.fallback_count)
        out["replay_ratio"] = captured.replay_count / calls
    if hasattr(wl, "analysis_target"):
        out.update(analysis_times(*wl.analysis_target(state)))
    return out


def _layer_metrics(tr, phase: TimedPhase, counts, layer_state) -> dict:
    def med(values):
        return measure.median(values) if values else 0.0

    def span_ms(span_name, first=False):
        durations = [s.duration for s in tr.spans if s.name == span_name
                     and (s.step == 0) == first]
        return med(durations) * 1e3

    per_step = phase.per_step

    def per(key):
        return med([s[key] for s in per_step])

    runs = layer_state["runs"]
    steps = len(phase.steps)
    return {
        "eager.forward_ms": (span_ms("forward"), "ms"),
        "eager.backward_ms": (span_ms("backward"), "ms"),
        "eager.optim_ms": (span_ms("optim"), "ms"),
        "core.framework_ms": (per("framework") * 1e3, "ms"),
        "tools.callback_ms": (per("tool") * 1e3, "ms"),
        "core.plans_compiled": (counts[0], "count"),
        "core.plan_replays": (counts[1] / steps, "count"),
        "backends.graph_cache_misses": (counts[2], "count"),
        "kernels.launches": (per("launches"), "count"),
        "kernels.busy_ms": (per("busy") * 1e3, "ms"),
        "kernels.mbytes": (per("bytes") / MB, "MB"),
        "graph.run_ms": (med(runs) * 1e3, "ms"),
        "graph.framework_ms": (med([r - s["busy"] for r, s
                                    in zip(runs, per_step)]) * 1e3, "ms"),
        "graph.first_run_ms": (layer_state["first_run"] * 1e3, "ms"),
        **{key: (layer_state.get(key, 0.0) * 1e3, "ms")
           for key in ANALYSIS_KEYS},
        "remat.recomputes": (layer_state.get("recomputes", 0), "count"),
        "remat.planned_peak_mb": (layer_state.get("planned_peak", 0) / MB,
                                  "MB"),
        "alloc.churn_mb": (per("churn") / MB, "MB"),
        "capture.first_call_ms": (span_ms("captured_call", first=True),
                                  "ms"),
        "capture.call_ms": (span_ms("captured_call"), "ms"),
        "capture.replay_ratio": (layer_state.get("replay_ratio", 0.0),
                                 "ratio"),
        "trace.overhead_pct": ((med(phase.traced) / med(phase.untraced) - 1)
                               * 100, "%"),
    }
