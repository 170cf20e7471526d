"""Repository benchmark: run one workload at one seed, print one result line.

Run from the repository root::

    python3 e2ebench/run.py --workload eager-tools --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric and writes the run's spans as
Chrome-trace JSON under ``e2ebench/out/``.  The last line of standard output
is the JSON result.  A failed output check exits with code 1 and names the
first diverging step or request; a missing program exits with code 2.
Self-tests: ``PYTHONPATH=src python3 -m pytest -q e2ebench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: every knob that can change what the program does, set explicitly so
#: ambient variables cannot; BLAS stays single-threaded so the load is one
#: generator or training thread plus at most one serving worker
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "AMANDA_NUM_WORKERS": "1",
    "AMANDA_EFFECT_ANALYSIS": "1",
    "AMANDA_ARENA": "0",
    "AMANDA_PLAN_CACHE_SIZE": "64",
    "AMANDA_CAPTURE": "1",
    "AMANDA_SERVE_WORKERS": "1",
    "AMANDA_SAMPLE_RATE": "20",
    "AMANDA_BATCH_DEADLINE_MS": "2.0",
    "AMANDA_SERVE_BATCH": "8",
    "AMANDA_MEMORY_BUDGET": "0",
    "REPRO_VERIFY_GRAPHS": "0",
}
WORKLOADS = ("eager-tools", "captured-train", "graph-remat-train",
             "serve-sampled")


def pin_environment() -> list[str]:
    """Apply ``PINNED``; clear other program knobs. Returns cleared names."""
    cleared = sorted(key for key in os.environ
                     if key.startswith(("AMANDA_", "REPRO_"))
                     and key not in PINNED)
    for key in cleared:
        del os.environ[key]
    os.environ.update(PINNED)
    return cleared


def environment_header(args, cleared) -> list[str]:
    import numpy as np

    import measure
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]
        blas = " ".join(f"{k}={v.get('name')}/{v.get('version')}"
                        for k, v in config.items() if k in ("blas", "lapack"))
    except (TypeError, KeyError):
        blas = "unknown"
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return [
        f"# workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# nproc={os.cpu_count()} affinity={affinity} "
        f"python={platform.python_version()} numpy={np.__version__} {blas}",
        "# pinned " + " ".join(f"{k}={v}" for k, v in PINNED.items()),
        "# cleared " + (" ".join(cleared) if cleared else "(none)"),
        f"# host: calibration slice {measure.Calibration()(8) * 1e3:.3f} ms "
        f"(reference {measure.CALIBRATION_REF_S * 1e3:g} ms)",
    ]


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def result_metrics(measured: dict, trace: bool) -> dict:
    """Measured values in ``BENCHMARK.json`` order, units checked.

    A per-layer metric of a layer the workload does not use reads 0; an
    end-to-end metric must always be measured.
    """
    out = {}
    for spec in declared_metrics(trace):
        name, unit = spec["name"], spec["unit"]
        if name not in measured:
            if not trace:
                raise RuntimeError(f"end-to-end metric {name} not measured")
            measured[name] = (0, unit)
        value, got_unit = measured.pop(name)
        if got_unit != unit:
            raise RuntimeError(f"{name}: measured in {got_unit}, "
                               f"declared in {unit}")
        out[name] = {"value": value, "unit": unit}
    if measured:
        raise RuntimeError(f"undeclared metrics {sorted(measured)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cleared = pin_environment()
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        # never fall back to an installed copy: the checkout is measured
        print(f"e2ebench: the program is missing under {source}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    import repro.amanda as amanda
    import oracles
    if args.workload == "serve-sampled":
        import serving as module
    else:
        import training as module

    for line in environment_header(args, cleared):
        print(line, flush=True)
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        trace_path = os.path.join(
            HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    try:
        with amanda.num_workers(1):
            result = module.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), trace_path)
    except oracles.Divergence as exc:
        print(f"e2ebench: OUTPUT CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    metrics = result_metrics(result["metrics"], bool(args.trace))
    for line in result.get("lines", []):
        print(line)
    failed, attempted = result["failed"], result["attempted"]
    print(f"# samples={result['samples']} attempted={attempted} "
          f"failed={failed} error_rate={failed / attempted:g}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    if trace_path:
        print(f"# chrome trace: {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
