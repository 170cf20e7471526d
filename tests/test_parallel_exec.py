"""The graph session's one executor: the retired worker-count knob, the
plan cache, graph fingerprints and instrumented runs.

The session runs every plan on one serial executor.  ``amanda.num_workers``
and ``AMANDA_NUM_WORKERS`` survive only so older callers keep working: under
either, a run produces bit-identical outputs and kernel-event streams and
starts no thread.  Effect-conflicting op pairs run in plan order, which the
race analysis reports as findings.
"""

import contextlib
import threading

import numpy as np
import pytest

import repro.amanda as amanda
import repro.eager as E
import repro.graph as G
import repro.models.eager as M
import repro.models.graph as GM
from repro.amanda.tools import KernelProfilingTool
from repro.analysis.effects import analyze_plan
from repro.analysis.liveness import estimate_liveness
from repro.eager import alloc
from repro.graph import builder as gb
from repro.graph.core import topo_plan
from repro.graph.session import CompiledPlan
from repro.kernels.runtime import runtime as kernel_runtime

WORKER_COUNTS = (1, 2, 4)


def _run(sess, fetches, feed, workers):
    with amanda.num_workers(workers):
        return sess.run(fetches, feed)


def _observed_run(sess, fetches, feed):
    """Outputs, kernel-event stream and thread set of one run."""
    events = []
    kernel_runtime.subscribe(events.append)
    try:
        threads_before = set(threading.enumerate())
        outputs = sess.run(fetches, feed)
        threads_after = set(threading.enumerate())
    finally:
        kernel_runtime.unsubscribe(events.append)
    stream = [(e.name, e.correlation_tag, e.bytes_accessed, e.meta)
              for e in events]
    return outputs, stream, threads_after - threads_before


def _assert_knob_is_inert(build, feed_of, fetches_of, monkeypatch):
    """Under ``num_workers(4)`` and under ``AMANDA_NUM_WORKERS=4`` a fresh
    model matches the default run bit for bit, emits the same kernel events
    in the same order, and starts no thread."""
    def observe(scope):
        gm = build()  # a fresh model per run: no plan is shared
        with gm.session() as sess, scope():
            return _observed_run(sess, fetches_of(gm), feed_of(gm))

    monkeypatch.delenv("AMANDA_NUM_WORKERS", raising=False)
    want, want_stream, _ = observe(contextlib.nullcontext)
    default = vars(amanda.Config())
    monkeypatch.setenv("AMANDA_NUM_WORKERS", "4")
    assert vars(amanda.Config()) == default
    for scope in (contextlib.nullcontext, lambda: amanda.num_workers(4)):
        got, stream, started = observe(scope)
        for expected, actual in zip(want, got):
            np.testing.assert_array_equal(np.asarray(expected),
                                          np.asarray(actual))
        assert stream == want_stream
        assert not started


class TestBitEquivalence:
    """The retired worker-count knob never changes a run."""

    @pytest.mark.parametrize("builder,input_shape", [
        (GM.build_mlp, (8, 16)),
        (GM.build_vgg, (2, 16, 16, 3)),
        (GM.build_resnet, (2, 16, 16, 3)),
        (GM.build_mobilenet_v2, (2, 16, 16, 3)),
        (GM.build_inception_v3, (2, 16, 16, 3)),
    ])
    def test_models_bitwise_equal_across_worker_counts(self, rng, builder,
                                                       input_shape,
                                                       monkeypatch):
        x = rng.standard_normal(input_shape)
        y = rng.integers(0, 4, input_shape[0])
        _assert_knob_is_inert(
            builder, lambda gm: {gm.inputs: x, gm.labels: y},
            lambda gm: [gm.logits, gm.loss], monkeypatch)

    def test_bert_bitwise_equal(self, rng, monkeypatch):
        x = rng.integers(0, 32, (2, 16))
        y = np.zeros((2, 16), dtype=int)
        _assert_knob_is_inert(
            GM.build_bert, lambda gm: {gm.inputs: x, gm.labels: y},
            lambda gm: [gm.logits, gm.loss], monkeypatch)

    def test_eager_models_unaffected_by_knob(self, rng):
        """num_workers only touches the graph Session; eager stays eager."""
        model = M.LeNet(rng=rng)
        x = E.tensor(rng.standard_normal((2, 3, 16, 16)))
        baseline = model(x).data
        with amanda.num_workers(4):
            np.testing.assert_array_equal(model(x).data, baseline)


class TestFallbackRules:
    def test_training_trajectory_identical_under_knob(self, rng):
        """The knob never changes training numerics (race-directed order)."""
        x = rng.standard_normal((16, 16))
        y = rng.integers(0, 4, 16)

        def losses(workers):
            gm = GM.build_mlp(learning_rate=0.3, seed=7)
            sess = gm.session()
            with amanda.num_workers(workers):
                return [np.asarray(sess.run(
                    [gm.loss, gm.train_op],
                    {gm.inputs: x, gm.labels: y})[0]) for _ in range(5)]

        np.testing.assert_array_equal(losses(1), losses(4))

class TestRaceDirectedParallel:
    """Plans with genuine conflicts run the pair in plan order, whatever
    the knob says, and the race analysis reports exactly that pair."""

    @staticmethod
    def _write_write_graph():
        """Two independent writers of one variable — one write-write pair."""
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            v = gb.variable(np.zeros(4), name="v")
            a = gb.assign_add(v, gb.relu(x), name="writer_a")
            b = gb.assign_add(v, gb.tanh(x), name="writer_b")
            step = gb.group([a, b], name="step").outputs[0]
            out = gb.identity(gb.relu(x), name="out")
        return g, x, step, out

    def test_single_write_write_pair_bit_identical(self, rng):
        x_val = rng.standard_normal(4)

        def run(workers):
            g, x, step, out = self._write_write_graph()
            sess = G.Session(g)
            fetched = _run(sess, [out, step], {x: x_val}, workers)[0]
            return sess, np.asarray(fetched), g.variables.read("v")

        sess, base_out, base_store = run(1)
        for workers in WORKER_COUNTS[1:]:
            sess, got_out, got_store = run(workers)
            report = analyze_plan(sess.last_compiled.ops)
            # exactly the one conflicting pair is reported, nothing else
            assert len(report.conflicts) == 1
            conflict = report.conflicts[0]
            assert conflict.kind == "write-write"
            assert conflict.keys == ("v",)
            assert {conflict.first, conflict.second} == {"writer_a",
                                                         "writer_b"}
            np.testing.assert_array_equal(got_out, base_out)
            np.testing.assert_array_equal(got_store, base_store)

    @staticmethod
    def _shared_bn_graph():
        """Two training BatchNorms updating the same running statistics."""
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            gamma = gb.constant(np.ones(3), name="gamma")
            beta = gb.constant(np.zeros(3), name="beta")
            g.variables.create("shared_mean", np.zeros(3))
            g.variables.create("shared_var", np.ones(3))
            y1 = gb.fused_batch_norm(x, gamma, beta, "shared_mean",
                                     "shared_var", training=True, name="bn1")
            y2 = gb.fused_batch_norm(x, gamma, beta, "shared_mean",
                                     "shared_var", training=True, name="bn2")
            out = gb.identity(y1 + y2, name="out")
        return g, x, out

    def test_training_batchnorm_pair_bit_identical(self, rng):
        x_val = rng.standard_normal((8, 4, 4, 3))

        def run(workers):
            g, x, out = self._shared_bn_graph()
            sess = G.Session(g)
            fetched = _run(sess, out, {x: x_val}, workers)
            return sess, np.asarray(fetched), \
                g.variables.read("shared_mean"), \
                g.variables.read("shared_var")

        _, base_out, base_mean, base_var = run(1)
        for workers in WORKER_COUNTS[1:]:
            sess, got_out, got_mean, got_var = run(workers)
            report = analyze_plan(sess.last_compiled.ops)
            assert len(report.conflicts) == 1
            assert report.conflicts[0].kind == "write-write"
            assert set(report.conflicts[0].keys) == {"shared_mean",
                                                     "shared_var"}
            np.testing.assert_array_equal(got_out, base_out)
            np.testing.assert_array_equal(got_mean, base_mean)
            np.testing.assert_array_equal(got_var, base_var)

class TestCompiledPlan:
    def test_release_excludes_fetched_ops(self):
        gm = GM.build_mlp(learning_rate=None)
        plan = topo_plan([gm.logits.op])
        compiled = CompiledPlan(plan, (gm.logits.op.name,))
        released = [compiled.ops[index].name
                    for step in compiled.release_after_step
                    for index in step]
        # every other op is freed exactly once, the fetched one never
        assert sorted(released) == sorted(
            op.name for op in plan if op is not gm.logits.op)

    def test_plan_cache_prunes_stale_versions(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}
        sess.run(gm.logits, feed)
        assert len(sess._plan_cache) == 1
        # a driver-style internal rewrite bumps the version; the next plan
        # compile must evict the now-unreachable entry instead of growing
        for _ in range(3):
            gm.graph._internal_mutation = True
            try:
                gm.graph.add_op("NoOp", name="epoch_marker")
            finally:
                gm.graph._internal_mutation = False
            sess.run(gm.logits, feed)
            assert len(sess._plan_cache) == 1

    def test_distinct_fetch_sets_share_the_cache(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16)),
                gm.labels: rng.integers(0, 4, 4)}
        sess.run(gm.logits, feed)
        sess.run(gm.loss, feed)
        sess.run(gm.logits, feed)
        assert len(sess._plan_cache) == 2


class TestFingerprint:
    def test_fingerprint_memoized_until_version_moves(self):
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            gb.relu(x)
        first = g.fingerprint()
        assert g.fingerprint() is first  # memo hit: same tuple object
        g.add_op("NoOp")
        second = g.fingerprint()
        assert second != first
        assert second[1] == g.version

    def test_structurally_equal_graphs_share_digest_not_identity(self):
        def build():
            with G.default_graph() as g:
                x = gb.placeholder(name="x")
                gb.relu(x)
            return g

        a, b = build(), build()
        assert a.fingerprint()[2] == b.fingerprint()[2]
        assert a.fingerprint() != b.fingerprint()


class TestMemoryRelease:
    def test_unknown_schedule_mode_rejected(self):
        gm = GM.build_mlp(learning_rate=None)
        for mode in ("diagonal", "wavefront"):
            with pytest.raises(ValueError, match="schedule_mode"):
                estimate_liveness(gm.graph, fetches=[gm.logits],
                                  schedule_mode=mode)

    def test_no_leaked_accounting_after_parallel_run(self, rng):
        gm = GM.build_mlp(learning_rate=None)
        sess = gm.session()
        alloc.tracker.reset()
        _run(sess, gm.logits, {gm.inputs: rng.standard_normal((4, 16))}, 4)
        assert alloc.tracker.live["dnn"] == 0


class TestInstrumentedParallel:
    def test_profiler_attribution_bit_identical(self, rng):
        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}

        def profile(workers):
            tool = KernelProfilingTool()
            with amanda.num_workers(workers), amanda.apply(tool):
                sess.run(gm.logits, feed)
            # durations are wall-clock; compare the deterministic parts:
            # aggregation structure, per-kernel event counts (in delivery
            # order) and byte totals
            shape = [(op, kernel, len(durations))
                     for op, kernels in tool.kernel_times.items()
                     for kernel, durations in kernels.items()]
            return shape, dict(tool.kernel_bytes)

        serial_shape, serial_bytes = profile(1)
        for workers in WORKER_COUNTS[1:]:
            shape, kernel_bytes = profile(workers)
            assert shape == serial_shape
            assert kernel_bytes == serial_bytes

    def test_quarantined_tool_falls_back_to_vanilla_in_parallel(self, rng):
        class BoomTool(amanda.Tool):
            def __init__(self):
                super().__init__()
                self.add_inst_for_op(self.analysis)

            def analysis(self, context):
                if context.get("type") == "Relu":
                    context.insert_before_op(self._boom, inputs=[])

            @staticmethod
            def _boom(*arrays):
                raise RuntimeError("boom mid-run")

        gm = GM.build_mlp(learning_rate=None, depth=3)
        sess = gm.session()
        feed = {gm.inputs: rng.standard_normal((4, 16))}
        baseline = _run(sess, gm.logits, feed, workers=1)

        tool = BoomTool()
        with amanda.num_workers(4), amanda.error_policy("quarantine"), \
                amanda.apply(tool) as mgr:
            out1 = sess.run(gm.logits, feed)  # raises mid-run
            assert tool.name in mgr.quarantined
            out2 = sess.run(gm.logits, feed)  # recompiled without the tool
        np.testing.assert_array_equal(np.asarray(out1), np.asarray(baseline))
        np.testing.assert_array_equal(np.asarray(out2), np.asarray(baseline))
        assert alloc.tracker.live["dnn"] == 0  # failed run fully unwound


class TestConfig:
    def test_env_parsing(self, monkeypatch):
        from repro.core.config import Config
        monkeypatch.delenv("AMANDA_SERVE_WORKERS", raising=False)
        default = vars(Config())
        # AMANDA_NUM_WORKERS is ignored: no knob reads it
        monkeypatch.setenv("AMANDA_NUM_WORKERS", "8")
        assert vars(Config()) == default
        assert not hasattr(Config(), "num_workers")
        # the serving worker count parses like the old executor knob did
        monkeypatch.setenv("AMANDA_SERVE_WORKERS", "8")
        assert Config().serve_workers == 8
        monkeypatch.setenv("AMANDA_SERVE_WORKERS", "not-a-number")
        assert Config().serve_workers == 2
        monkeypatch.setenv("AMANDA_SERVE_WORKERS", "-3")
        assert Config().serve_workers == 1
        monkeypatch.setenv("AMANDA_SERVE_WORKERS", "auto")
        assert Config().serve_workers >= 1

    def test_scoped_override_restores(self):
        before = dict(vars(amanda.config))
        with amanda.num_workers(6) as cfg:
            assert cfg is amanda.config
            assert vars(amanda.config) == before
        assert vars(amanda.config) == before
