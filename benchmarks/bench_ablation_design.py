"""Ablations of the reproduction's design choices (beyond the paper's
figures; called out in DESIGN.md).

1. **Convolution algorithm selection** — the cuDNN-style heuristic in
   :func:`repro.kernels.nn.select_conv_algorithm` picks among im2col-GEMM,
   Winograd F(2x2,3x3), FFT and 1x1-GEMM.  Measured per shape class, the
   chosen algorithm should not lose badly to the alternatives.
2. **Vanilla fast path** — the per-op action cache lets un-instrumented
   operators skip context construction entirely.  Compared against a tool
   that forces a (trivial) action on *every* op, the fast path must be
   cheaper.
3. **Context mapping cost** — the MappingTool transformation runs on every
   analyzed context; its cost is analysis-time-only (amortized by the cache),
   so steady-state overhead with and without the mapping dependency must be
   comparable.
"""

import numpy as np

import repro.amanda as amanda
import repro.eager as E
import repro.models.eager as M
from repro.amanda import Tool
from repro.amanda.tools import standard_mapping_tool
from repro.kernels import nn as K

from _common import report, wall_time


def conv_algorithm_ablation():
    rng = np.random.default_rng(0)
    cases = [
        ("3x3 s1 (winograd-eligible)", (4, 8, 32, 32), (8, 8, 3, 3),
         (1, 1), (1, 1), ("winograd", "im2col", "fft")),
        ("1x1 (gemm-eligible)", (4, 16, 32, 32), (16, 16, 1, 1),
         (1, 1), (0, 0), ("gemm_1x1", "im2col")),
        ("7x7 s1 (fft-eligible)", (2, 4, 32, 32), (4, 4, 7, 7),
         (1, 1), (3, 3), ("fft", "im2col")),
    ]
    rows = []
    for label, x_shape, w_shape, stride, pad, algorithms in cases:
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        chosen = K.select_conv_algorithm(x_shape, w_shape, stride, pad)
        times = {}
        for algorithm in algorithms:
            times[algorithm] = wall_time(
                lambda a=algorithm: K.conv2d_forward(x, w, stride, pad, a),
                repeats=5, warmup=2)
        rows.append((label, chosen, times))
    return rows


def fast_path_ablation():
    rng = np.random.default_rng(0)
    model = M.resnet18()
    x = E.tensor(rng.standard_normal((4, 3, 16, 16)))

    # selective tool: instruments conv2d only -> every other op fast-paths
    selective = Tool("selective")
    selective.add_inst_for_op(
        lambda ctx: ctx.insert_before_op(lambda w: w, inputs=[1])
        if ctx["type"] == "conv2d" else None)
    # saturating tool: a trivial action on EVERY op -> no fast path anywhere
    saturating = Tool("saturating")
    saturating.add_inst_for_op(
        lambda ctx: ctx.insert_before_op(lambda *a: None, inputs=[]))

    def timed(tool):
        with amanda.apply(tool):
            return wall_time(lambda: model(x), repeats=5, warmup=2)

    # interleaved rounds, so a drift in host speed hits both sides alike
    rounds = [(timed(selective), timed(saturating)) for _ in range(5)]
    with_fast_path, without_fast_path = np.median(rounds, axis=0)
    return float(with_fast_path), float(without_fast_path)


def mapping_cost_ablation():
    rng = np.random.default_rng(0)
    model = M.resnet18()
    x = E.tensor(rng.standard_normal((4, 3, 16, 16)))

    def observing_tool(with_mapping: bool) -> Tool:
        tool = Tool("observer")
        if with_mapping:
            tool.depends_on(standard_mapping_tool())
        tool.add_inst_for_op(
            lambda ctx: ctx.insert_before_op(lambda w: w, inputs=[1])
            if ctx.get("type") == "conv2d" else None)
        return tool

    with amanda.apply(observing_tool(False)):
        raw = wall_time(lambda: model(x), repeats=5, warmup=2)
    with amanda.apply(observing_tool(True)):
        mapped = wall_time(lambda: model(x), repeats=5, warmup=2)
    return raw, mapped


def test_ablation_design(benchmark):
    conv_rows, fast, mapping = benchmark.pedantic(
        lambda: (conv_algorithm_ablation(), fast_path_ablation(),
                 mapping_cost_ablation()),
        rounds=1, iterations=1)

    lines = ["Conv algorithm selection (ms per call; * = heuristic's choice):"]
    for label, chosen, times in conv_rows:
        entries = ", ".join(
            f"{'*' if a == chosen else ''}{a}={1e3 * t:.2f}"
            for a, t in times.items())
        lines.append(f"  {label:<28} {entries}")
    with_fp, without_fp = fast
    lines.append(f"Fast path: selective tool {1e3 * with_fp:.2f} ms vs "
                 f"all-op actions {1e3 * without_fp:.2f} ms "
                 f"({without_fp / with_fp:.2f}x)")
    raw, mapped = mapping
    lines.append(f"Mapping dependency (steady state): raw {1e3 * raw:.2f} ms "
                 f"vs mapped {1e3 * mapped:.2f} ms "
                 f"({mapped / raw:.2f}x)")
    _, _, eligible = conv_rows[0]
    lines.append(f"note: on the 3x3 stride-1 shape, GEMM-form Winograd takes "
                 f"{eligible['winograd'] / eligible['im2col']:.2f}x "
                 f"im2col's time; the heuristic mirrors cuDNN's GPU cost "
                 f"model, which Fig. 8 depends on for a realistic algorithm "
                 f"mix.")
    report("ablation_design", lines)

    # 1. the heuristic's choice is within a small constant of the best
    #    numpy implementation on its shape class (see note above)
    for label, chosen, times in conv_rows:
        best = min(times.values())
        assert times[chosen] <= 4.0 * best, (label, times)
    # 2. saturating every op with actions costs more than the fast path
    assert without_fp > with_fp
    # 3. the mapping transformation is amortized by the cache (±40% noise)
    assert mapped < raw * 1.4
