"""Slot-table execution and release at last use: equivalence + accounting.

The slot-table executor must be invisible except for speed and memory:
compiled, replayed from the plan cache, instrumented or quarantined, the
results are bit-identical.  Every intermediate is freed at its
statically-computed last use, so the tracker-measured peak stays within the
static liveness estimate, and every tracked byte comes back out at the end
of a run — also when a compute raises halfway through the plan.
"""

import numpy as np
import pytest

import repro.amanda as amanda
import repro.graph as G
import repro.models.graph as GM
from repro.amanda.tools import ExecutionTraceTool
from repro.analysis.liveness import estimate_liveness
from repro.eager import alloc
from repro.graph import builder as gb
from repro.tools.faulty import FaultyTool

ZOO = [
    (GM.build_mlp, (8, 16)),
    (GM.build_vgg, (2, 16, 16, 3)),
    (GM.build_resnet, (2, 16, 16, 3)),
    (GM.build_mobilenet_v2, (2, 16, 16, 3)),
    (GM.build_inception_v3, (2, 16, 16, 3)),
]


def _zoo_feed(gm, rng, input_shape):
    return {gm.inputs: rng.standard_normal(input_shape),
            gm.labels: rng.integers(0, 4, input_shape[0])}


def _assert_same(expected, actual):
    for want, got in zip(expected, actual):
        np.testing.assert_array_equal(np.asarray(want), np.asarray(got))


class TestBitEquivalence:
    """Compiled, replayed and recompiled runs agree bit-for-bit."""

    @pytest.mark.parametrize("builder,input_shape", ZOO)
    def test_zoo_bitwise_equal_across_modes(self, rng, builder, input_shape):
        gm = builder()
        feed = _zoo_feed(gm, rng, input_shape)
        with gm.session() as sess:
            baseline = sess.run([gm.logits, gm.loss], feed)
            # a second run replays the cached plan
            _assert_same(baseline, sess.run([gm.logits, gm.loss], feed))
        with gm.session() as fresh:  # a new session recompiles
            _assert_same(baseline, fresh.run([gm.logits, gm.loss], feed))

    def test_bert_bitwise_equal_across_modes(self, rng):
        gm = GM.build_bert()
        feed = {gm.inputs: rng.integers(0, 32, (2, 16)),
                gm.labels: np.zeros((2, 16), dtype=int)}
        with gm.session() as sess:
            baseline = sess.run([gm.logits, gm.loss], feed)
            _assert_same(baseline, sess.run([gm.logits, gm.loss], feed))

    def test_instrumented_run_bitwise_equal(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess:
            baseline = sess.run([gm.logits, gm.loss], feed)
            with amanda.apply(ExecutionTraceTool()):
                for _ in range(2):  # compile, then replay the cached plan
                    _assert_same(baseline,
                                 sess.run([gm.logits, gm.loss], feed))

    def test_quarantined_run_bitwise_equal(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess:
            baseline = sess.run([gm.logits, gm.loss], feed)
            tool = FaultyTool(always=True)
            with amanda.error_policy("quarantine"), amanda.apply(tool) as mgr:
                got = sess.run([gm.logits, gm.loss], feed)
                assert tool.name in mgr.quarantined
            _assert_same(baseline, got)


class TestReleaseAtLastUse:
    """Intermediates die at their last use; the tracker always balances."""

    @pytest.mark.parametrize("builder", [GM.build_inception_v3,
                                         GM.build_resnet])
    def test_serial_peak_within_static_estimate(self, rng, builder):
        gm = builder()
        feed = _zoo_feed(gm, rng, (2, 16, 16, 3))
        fetches = [gm.logits, gm.loss]
        with gm.session() as sess:
            sess.run(fetches, feed)
        peak = alloc.tracker.peak["dnn"]
        # the tracker never charges Variable reads (the store owns them)
        report = estimate_liveness(
            gm.graph, fetches=fetches, exclude_types=("Variable",),
            feed_shapes={"input": (2, 16, 16, 3), "labels": (2,)})
        assert peak <= report.peak_bytes
        assert peak < alloc.tracker.total_allocated["dnn"]
        assert alloc.tracker.live["dnn"] == 0

    def test_failed_run_after_releases_balances_tracker(self):
        with G.default_graph() as g:
            x = gb.placeholder(name="x")
            h = gb.square(gb.square(gb.square(x)))

            def boom(value):
                raise RuntimeError("compute failed mid-plan")

            out = gb.py_call(boom, [h]).outputs[0]
        sess = G.Session(g)
        with pytest.raises(RuntimeError, match="mid-plan"):
            sess.run(out, {x: np.ones(64)})
        compiled = sess.last_compiled
        failed_at = compiled.position[out.op.name]
        # precondition: earlier steps had already freed some intermediates
        assert any(compiled.release_after_step[:failed_at])
        assert alloc.tracker.total_allocated["dnn"] > 0
        assert alloc.tracker.live["dnn"] == 0
        sess.close()


class TestSessionLifecycle:
    """close() drops the plan cache, is idempotent, and leaves the session
    usable."""

    def test_close_is_idempotent(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        sess = gm.session()
        want = sess.run([gm.logits, gm.loss], feed)
        assert sess._plan_cache
        sess.close()
        assert not sess._plan_cache
        assert alloc.tracker.live["dnn"] == 0
        sess.close()  # idempotent
        _assert_same(want, sess.run([gm.logits, gm.loss], feed))
        sess.close()

    def test_context_manager_closes(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess:
            sess.run([gm.logits, gm.loss], feed)
        assert alloc.tracker.live.get("dnn", 0) == 0
        assert len(sess._plan_cache) == 0

    def test_variable_aliased_outputs_not_double_counted(self, rng):
        # an Identity of a Variable returns the variable's own array: the
        # executor must not charge it to the run's allocation accounting
        with G.default_graph() as g:
            v = gb.variable(rng.standard_normal((64,)), name="v")
            out = gb.identity(v)
        before = alloc.tracker.live.get("dnn", 0)
        sess = G.Session(g)
        value = sess.run(out)
        assert alloc.tracker.live.get("dnn", 0) == before
        np.testing.assert_array_equal(value, g.variables.read("v"))
        sess.close()


class TestPlanCacheLRU:
    """The plan cache is bounded: cycling fetch sets cannot grow it."""

    def test_cache_evicts_beyond_bound(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        fetch_sets = [[gm.logits], [gm.loss], [gm.logits, gm.loss],
                      [gm.loss, gm.logits]]
        with gm.session() as sess, amanda.plan_cache_size(2):
            for _ in range(3):  # cycle to exercise eviction + re-admission
                for fetches in fetch_sets:
                    sess.run(fetches, feed)
                    assert len(sess._plan_cache) <= 2

    def test_lru_keeps_hot_entry(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess, amanda.plan_cache_size(2):
            sess.run(gm.logits, feed)
            hot = next(iter(sess._plan_cache))
            sess.run(gm.loss, feed)
            sess.run(gm.logits, feed)  # refresh the hot entry
            sess.run([gm.logits, gm.loss], feed)  # evicts the cold one
            assert hot in sess._plan_cache

    def test_results_identical_after_eviction(self, rng):
        gm = GM.build_mlp()
        feed = _zoo_feed(gm, rng, (8, 16))
        with gm.session() as sess:
            want = sess.run(gm.logits, feed)
            with amanda.plan_cache_size(1):
                sess.run(gm.loss, feed)  # evicts the logits plan
                got = sess.run(gm.logits, feed)  # recompiles
            np.testing.assert_array_equal(np.asarray(want), np.asarray(got))

    def test_env_knob_parsed(self, monkeypatch):
        monkeypatch.setenv("AMANDA_PLAN_CACHE_SIZE", "7")
        cfg = amanda.Config()
        assert cfg.plan_cache_size == 7
        monkeypatch.setenv("AMANDA_PLAN_CACHE_SIZE", "0")
        cfg.refresh_from_env()
        assert cfg.plan_cache_size == 1  # clamped to a sane floor

