"""Output checks: each compares the measured run against an untimed reference.

Every check is bit-for-bit (shape, dtype and bytes) and raises
:class:`Divergence` naming the first step, parameter, op or request that
differs, so a failed run says where it went wrong.
"""

from __future__ import annotations

import math

import numpy as np


class Divergence(Exception):
    """An output that differs from its oracle."""

    def __init__(self, check: str, where: str, detail: str) -> None:
        super().__init__(f"{check}: first divergence at {where}: {detail}")
        self.check = check
        self.where = where


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _show(value) -> str:
    arr = np.asarray(value)
    if arr.size <= 4:
        return repr(arr.tolist())
    return f"array{arr.shape} {arr.dtype}"


def check_equal(check: str, expected, got, label: str = "step") -> None:
    """Two sequences of arrays must match element by element."""
    for i, (want, have) in enumerate(zip(expected, got)):
        if not same_bits(want, have):
            raise Divergence(check, f"{label} {i}",
                             f"expected {_show(want)}, got {_show(have)}")
    if len(expected) != len(got):
        raise Divergence(check, f"{label} {min(len(expected), len(got))}",
                         f"expected {len(expected)} values, got {len(got)}")


def check_differs(check: str, baseline, got, label: str = "step") -> None:
    """The first value must differ: proof that a mutating tool took hold."""
    if same_bits(baseline[0], got[0]):
        raise Divergence(check, f"{label} 0",
                         f"equals the uninstrumented value {_show(got[0])}")


def check_params(check: str, expected: dict, got: dict) -> None:
    """Named parameter arrays must match bit-for-bit."""
    if list(expected) != list(got):
        raise Divergence(check, "parameter list",
                         f"expected {list(expected)[:3]}..., "
                         f"got {list(got)[:3]}...")
    for name, want in expected.items():
        if not same_bits(want, got[name]):
            raise Divergence(check, f"parameter {name}",
                             "bytes differ from the reference")


def profile_digest(tool) -> list[tuple]:
    """A ``FlopsProfilingTool`` profile as rows in first-execution order.

    Op ids are not compared: they are drawn from one process-wide stream,
    so a second activation of the same model receives different ids.
    """
    return [(p.op_type, [tuple(s) for s in p.input_shapes],
             [tuple(s) for s in p.output_shapes], p.calls, p.flops)
            for p in tool.profiles.values()]


def check_profile(check: str, expected: list[tuple],
                  got: list[tuple]) -> None:
    for i, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            raise Divergence(check, f"op row {i} ({want[0]})",
                             f"expected {want[1:]}, got {have[1:]}")
    if len(expected) != len(got):
        raise Divergence(check, f"op row {min(len(expected), len(got))}",
                         f"expected {len(expected)} ops, got {len(got)}")


def check_responses(check: str, sent, reference) -> None:
    """Every resolved request must equal ``reference(tag)``.

    ``sent`` holds :class:`measure.Sent` records in request order; failed
    requests are counted by the error accounting, not here.
    """
    for record in sent:
        if record.error is not None:
            continue
        want = reference(record.tag)
        if not same_bits(want, record.value):
            raise Divergence(check, f"request {record.index} ({record.tag})",
                             "response differs from the direct run")


def check_split(check: str, stats: dict) -> None:
    """``tenant.stats()`` must show the deterministic 1-in-N split."""
    submitted, rate = stats["submitted"], stats["sample_rate"]
    sampled = math.ceil(submitted / rate) if rate else 0
    if (stats["sampled"], stats["vanilla"]) != (sampled, submitted - sampled):
        raise Divergence(check, f"{submitted} submitted",
                         f"expected {sampled} sampled, got "
                         f"{stats['sampled']} sampled / "
                         f"{stats['vanilla']} vanilla")
