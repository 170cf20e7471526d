"""Self-tests of the benchmark's own code (no model is built).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import gc
import json
import math
import threading

import numpy as np
import pytest

import measure
import oracles
import run
import training
from spans import SpanRecorder, covered


# -- percentiles ---------------------------------------------------------------

def test_nearest_rank_percentile_is_an_observed_value():
    values = list(range(1, 11))
    assert measure.percentile(values, 50) == 5
    assert measure.percentile(values, 90) == 9
    assert measure.percentile(values, 100) == 10
    assert measure.percentile([3.5, 1.0, 2.0], 50) == 2.0
    assert measure.percentile(list(range(1, 101)), 90) == 90


def test_reported_percentile_needs_ten_samples_beyond_it():
    assert measure.min_samples(50) == 20
    assert measure.min_samples(90) == 100
    assert measure.min_samples(99) == 1000
    assert measure.supported(100, 90) and not measure.supported(99, 90)
    assert measure.reported(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="p90 needs 100 samples, have 99"):
        measure.reported(list(range(99)), 90)
    with pytest.raises(ValueError):
        measure.percentile([], 50)


# -- host-speed normalization -------------------------------------------------

def test_normalized_time_is_scaled_to_the_reference_host():
    ref = measure.CALIBRATION_REF_S
    # a host running the slice twice as slow as the reference halves times
    assert measure.normalized(0.030, 2 * ref) == pytest.approx(0.015)
    assert measure.normalized(0.030, ref) == pytest.approx(0.030)
    ticks = iter([1.0, 1.01])
    calibrate = measure.Calibration()
    assert calibrate(4, clock=lambda: next(ticks)) == pytest.approx(0.0025)


# -- open-loop schedule and due-time latency ----------------------------------

def test_poisson_schedule_is_seeded_and_has_the_rate():
    a = measure.poisson_schedule(np.random.default_rng(7), 100, 50)
    b = measure.poisson_schedule(np.random.default_rng(7), 100, 50)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) > 0) and a[-1] < 50
    assert abs(len(a) - 5000) < 5000 * 0.05
    assert len(measure.poisson_schedule(np.random.default_rng(0), 0, 5)) == 0


def test_fixed_count_schedule_offers_the_exact_load():
    a = measure.fixed_count_schedule(np.random.default_rng(3), 100, 10.5)
    assert len(a) == 1050 and np.all(np.diff(a) >= 0)
    assert 0 <= a[0] and a[-1] < 10.5
    np.testing.assert_array_equal(
        a, measure.fixed_count_schedule(np.random.default_rng(3), 100, 10.5))


class FakeClock:
    """Time moves only when the generator sleeps; one sleep overshoots."""

    def __init__(self, stall_at: float, stall: float) -> None:
        self.now = 0.0
        self._stall_at, self._stall = stall_at, stall
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self.now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds
            if self._stall_at is not None and self.now >= self._stall_at:
                self.now += self._stall  # the generator was descheduled
                self._stall_at = None


class Resolved:
    def __init__(self, value=None, error=None) -> None:
        self._value, self._error = value, error

    def exception(self, timeout=None):
        return self._error

    def result(self, timeout=None):
        return self._value


def test_latency_is_timed_from_the_due_time_through_a_stall():
    clock = FakeClock(stall_at=0.35, stall=0.5)
    offsets = np.arange(1, 11) * 0.1  # due at 0.1, 0.2, ..., 1.0 s
    phase = measure.run_open_loop(
        lambda i: Resolved(i), lambda i: ("lane", (i,), i), offsets, 10,
        clock=clock, sleep=clock.sleep)
    lags = phase.lags
    # sends before the stall leave exactly on time
    assert lags[:3] == [0.0, 0.0, 0.0]
    # requests due during the stall (0.4 .. 0.8 s) all leave at 0.9 s: a
    # send-time clock would report no delay, the due-time clock reports it
    for i, due in zip(range(3, 8), (0.4, 0.5, 0.6, 0.7, 0.8)):
        assert lags[i] == pytest.approx(0.9 - due)
    assert lags[8:] == [0.0, 0.0]
    for record in phase.sent:
        assert record.latency >= record.sent - record.due >= 0
        assert record.value == record.index
    assert phase.failed == 0


def test_failed_request_counts_and_never_meets_a_limit():
    clock = FakeClock(stall_at=None, stall=0.0)

    def submit(i):
        if i == 2:
            raise RuntimeError("queue refused")
        return Resolved(error=ValueError("bad") if i == 4 else None)

    phase = measure.run_open_loop(
        submit, lambda i: (i % 2, (i,), i), np.arange(6) * 0.01, 100,
        clock=clock, sleep=clock.sleep)
    assert len(phase.sent) == 6 and phase.failed == 2
    latencies = phase.latencies()
    assert math.isinf(latencies[2]) and math.isinf(latencies[4])
    assert sum(math.isinf(x) for x in latencies) == 2


def test_closed_loop_resends_on_each_resolution():
    clock = FakeClock(stall_at=None, stall=0.0)
    submitted = []

    def submit(i):
        clock.sleep(0.001)  # each send costs a fake millisecond
        submitted.append(i)
        if i == 5:
            raise RuntimeError("queue refused")
        return Resolved(value=i)

    phase = measure.run_closed_loop(submit, lambda i: ("lane", (i,), i),
                                    clients=4, duration=0.02, clock=clock)
    assert submitted == list(range(len(phase.sent)))
    assert len(phase.sent) >= 20 and phase.failed == 1
    for record in phase.sent:
        assert record.due == record.sent  # closed loop: due when sent
        if record.error is None:
            assert record.value == record.index


def test_windows_hold_consecutive_requests():
    sent = [measure.Sent(i, "a", 0.0, 0.0, float(i)) for i in range(7)]
    sent[2].error = RuntimeError("failed")
    phase = measure.PhaseResult(100, sent, [], 0)
    # 7 sends in windows of 3: the remainder joins the last window
    assert phase.windows(3) == [[0.0, 1.0], [3.0, 4.0, 5.0, 6.0]]
    assert phase.windows(10) == [[0.0, 1.0, 3.0, 4.0, 5.0, 6.0]]


class Flaky:
    ring = [None] * training.RING

    def step(self, state, batch, tr, index):
        if index == 7:
            raise RuntimeError("step failed")
        return np.array(float(index))


def test_failed_step_counts_and_the_loop_goes_on():
    phase = training.timed_phase(Flaky(), {}, 0.0, first=4)
    assert phase.failed == 1
    assert len(phase.steps) == len(phase.losses) == training.MIN_STEPS
    assert 7.0 not in phase.losses and 8.0 in phase.losses
    assert gc.isenabled()


def test_a_loop_of_failing_steps_ends():
    class Broken(Flaky):
        def step(self, state, batch, tr, index):
            raise RuntimeError("always")

    phase = training.timed_phase(Broken(), {}, 0.0, first=0)
    assert phase.failed == training.MIN_STEPS and not phase.steps


# -- backlog growth -----------------------------------------------------------

def test_backlog_growth_detection():
    steady = [1, 3, 0, 2, 5, 1, 2, 4, 0, 3] * 20
    assert not measure.backlog_growing(steady, slack=8)
    growing = list(range(200))
    assert measure.backlog_growing(growing, slack=8)
    # a rise within the slack (a few open micro-batches) is not growth
    assert not measure.backlog_growing([0] * 50 + [6] * 50, slack=8)
    assert measure.backlog_growing([0] * 50 + [40] * 50, slack=8)
    assert not measure.backlog_growing([], slack=8)


# -- oracles reject a perturbed output ----------------------------------------

def _bump(value):
    return np.nextafter(np.asarray(value), np.inf)


def test_losses_oracle_names_the_first_diverging_step():
    losses = [np.array(1.5), np.array(1.25), np.array(1.0), np.array(0.75)]
    oracles.check_equal("losses", losses, [x.copy() for x in losses])
    perturbed = list(losses)
    perturbed[2] = _bump(losses[2])
    with pytest.raises(oracles.Divergence) as info:
        oracles.check_equal("losses", losses, perturbed)
    assert info.value.where == "step 2"
    with pytest.raises(oracles.Divergence):
        oracles.check_equal("losses", losses, losses[:3])


def test_bitwise_comparison_sees_sign_of_zero_and_dtype():
    assert not oracles.same_bits(np.array(0.0), np.array(-0.0))
    assert not oracles.same_bits(np.array([1.0]), np.array([1.0], np.float32))
    assert oracles.same_bits(np.array([np.nan]), np.array([np.nan]))


def test_instrumentation_must_change_the_loss():
    plain = [np.array(2.0)]
    oracles.check_differs("pruning", plain, [np.array(1.9)])
    with pytest.raises(oracles.Divergence):
        oracles.check_differs("pruning", plain, [np.array(2.0)])


def test_params_oracle_names_the_parameter():
    params = {"w": np.ones((2, 2)), "b": np.zeros(2)}
    oracles.check_params("params", params,
                         {k: v.copy() for k, v in params.items()})
    perturbed = dict(params, b=_bump(params["b"]))
    with pytest.raises(oracles.Divergence) as info:
        oracles.check_params("params", params, perturbed)
    assert info.value.where == "parameter b"


def test_profile_oracle_names_the_op_row():
    rows = [("conv2d", [(8, 3, 16, 16)], [(8, 4, 16, 16)], 4, 100),
            ("relu", [(8, 4, 16, 16)], [(8, 4, 16, 16)], 4, 10)]
    oracles.check_profile("profile", rows, list(rows))
    perturbed = [rows[0], rows[1][:4] + (11,)]
    with pytest.raises(oracles.Divergence) as info:
        oracles.check_profile("profile", rows, perturbed)
    assert info.value.where == "op row 1 (relu)"


def test_response_oracle_names_the_request():
    refs = {0: np.arange(4.0), 1: -np.arange(4.0)}
    sent = []
    for i in range(6):
        record = measure.Sent(i, "lane", 0.0, 0.0, tag=i % 2)
        record.value = refs[i % 2].copy()
        sent.append(record)
    oracles.check_responses("responses", sent, refs.__getitem__)
    sent[3].value = _bump(sent[3].value)
    with pytest.raises(oracles.Divergence) as info:
        oracles.check_responses("responses", sent, refs.__getitem__)
    assert info.value.where == "request 3 (1)"


def test_sampling_split_oracle():
    good = {"submitted": 41, "sample_rate": 20, "sampled": 3, "vanilla": 38}
    oracles.check_split("split", good)
    with pytest.raises(oracles.Divergence):
        oracles.check_split("split", dict(good, sampled=2, vanilla=39))


# -- spans ----------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    assert covered((0, 10), [(1, 3), (2, 5), (8, 12), (20, 30)]) == 6
    ticks = iter([0.0, 0.0, 1.0, 3.0, 4.0, 6.0, 10.0])  # origin first
    tr = SpanRecorder(clock=lambda: next(ticks))
    with tr.span("step", "bench", step=7) as root:
        with tr.span("forward", "eager", step=7):
            pass
        with tr.span("backward", "eager", step=7):
            pass
    own = tr.self_times()
    assert root.duration == 10.0 and own[root.id] == 10.0 - 2.0 - 2.0
    events = json.loads(json.dumps({"traceEvents": tr.chrome_events()}))
    child = events["traceEvents"][1]
    assert child["ph"] == "X" and child["args"]["parent"] == root.id
    assert child["args"]["step"] == 7 and child["args"]["layer"] == "eager"


# -- result line ---------------------------------------------------------------

def test_result_metrics_follow_the_declared_list():
    e2e = {m["name"]: (1.0, m["unit"]) for m in run.declared_metrics(False)}
    out = run.result_metrics(dict(e2e), trace=False)
    assert list(out) == [m["name"] for m in run.declared_metrics(False)]
    missing = dict(e2e)
    missing.pop("setup_s")
    with pytest.raises(RuntimeError, match="setup_s"):
        run.result_metrics(missing, trace=False)
    with pytest.raises(RuntimeError, match="undeclared"):
        run.result_metrics(dict(e2e, extra=(1, "s")), trace=False)
    with pytest.raises(RuntimeError, match="declared in s"):
        run.result_metrics(dict(e2e, setup_s=(1, "ms")), trace=False)
    # a layer the workload does not use reads 0
    layers = run.result_metrics({}, trace=True)
    assert all(m["value"] == 0 for m in layers.values())
