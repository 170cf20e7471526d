"""Graph execution: Session, execution plans, and session hooks.

``Session.run(fetches, feed_dict)`` compiles (and caches) an execution plan —
the dependency closure of the fetches in topological order — then evaluates it
with the runtime compute functions.  Mirrors the TF-1 details the paper leans
on:

* the graph *finalizes* on first submission (user mutations then raise);
* :class:`SessionRunHook` offers the ``before_run``/``after_run`` interface —
  the session-hook instrumentation baseline, which can only attach extra
  fetches, not rewrite the graph;
* the Amanda graph driver intercepts ``Session.run`` via the class-level
  ``run_interceptor`` seam to swap in an instrumented graph (graph switching,
  Sec. 5.3).

Two executors share the compiled plan (see DESIGN.md, "Parallel execution"
and "Slot-table execution and release at last use"):

* the **serial** executor walks the topological plan in order and frees
  every intermediate right after the step of its last consumer
  (``CompiledPlan.release_after_step``) — the reference semantics;
* the **wavefront** executor (``amanda.config.num_workers > 1``, env
  ``AMANDA_NUM_WORKERS``) partitions the plan into dependency levels and runs
  each level across a thread pool (numpy/BLAS release the GIL on the hot
  kernels), releasing every intermediate at its statically-computed last-use
  level.

Either way the runtime memory peak tracks the static liveness estimate of
the matching schedule.  Under a memory budget the rematerialization pass only
supplies a different schedule and different last uses; the executors are
unchanged.  Both executors move values through an integer-indexed **slot
table** assigned at plan-compile time (one stable slot id per op output)
instead of name-keyed dicts, so the per-op framework overhead is a couple of
list indexings.

Parallel eligibility is decided by the static effect system
(:mod:`repro.analysis.effects`): plan compilation runs the race detector,
injects serialization edges between (only) the effect-conflicting op pairs,
and the plan runs wavefronted with those pairs barrier-separated — ordering
each pair by plan position reproduces the serial executor's per-key state
access sequence, so results stay bit-identical.  Only two conditions still
force the whole plan serial: an effect-*opaque* op (a ``PyCall`` whose tool
declared no effects) and a kernel subscriber demanding in-order delivery.
``Session.last_serialization_report`` records, per run, which executor ran,
why a fallback happened, and every serialized op with its conflict reason.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.config import config
from ..eager import alloc
from ..kernels.runtime import runtime as kernel_runtime
from .builder import COMPUTE
from .core import (Graph, GraphTensor, Operation, VariableStore, plan_levels,
                   topo_plan)

__all__ = ["Session", "SessionRunHook", "RunContext", "CompiledPlan",
           "SerializationReport"]


class SessionRunHook:
    """TF-style session hook: observe runs and request extra fetches."""

    def before_run(self, run_context: "RunContext"):
        """Return extra fetches (list of GraphTensor) or None."""
        return None

    def after_run(self, run_context: "RunContext", run_values) -> None:
        pass


@dataclass
class RunContext:
    session: "Session"
    fetches: list
    feed_dict: dict
    extra_results: dict = field(default_factory=dict)


class _Runtime:
    """Per-run evaluation state handed to compute functions."""

    def __init__(self, feeds: dict[str, np.ndarray], variables: VariableStore):
        self.feeds = feeds
        self.variables = variables


@dataclass(frozen=True)
class SerializationReport:
    """Structured record of the most recent run's executor decision.

    ``executor`` is ``"wavefront"`` or ``"serial"``; ``fallback_reason``
    names the construct that forced a serial run despite ``num_workers > 1``
    (None for a plain single-worker run or a successful wavefront run);
    ``conflicts`` lists the effect-conflicting op pairs a wavefront run
    serialized via injected edges.
    """

    executor: str
    fallback_reason: str | None = None
    conflicts: tuple = ()  # repro.analysis.effects.Conflict pairs

    @property
    def parallel(self) -> bool:
        return self.executor == "wavefront"

    @property
    def serialized_ops(self) -> dict[str, list[str]]:
        """Every op serialized by an injected edge -> its conflict reasons."""
        ops: dict[str, list[str]] = {}
        for conflict in self.conflicts:
            ops.setdefault(conflict.first, []).append(
                conflict.describe(conflict.first))
            ops.setdefault(conflict.second, []).append(
                conflict.describe(conflict.second))
        return ops

    def __str__(self) -> str:
        if self.fallback_reason is not None:
            return f"serial executor: {self.fallback_reason}"
        if not self.parallel:
            return "serial executor (single worker)"
        if not self.conflicts:
            return "wavefront executor, no conflicting op pairs"
        lines = [f"wavefront executor, {len(self.conflicts)} conflicting "
                 f"op pair(s) serialized:"]
        lines += [f"  {conflict}" for conflict in self.conflicts]
        return "\n".join(lines)


class CompiledPlan:
    """A cached execution plan: topo order, wavefront levels, lifetimes.

    Compiled once per ``(graph fingerprint, fetches)`` and replayed by every
    later ``run()``.  Compilation runs the static race analysis
    (:func:`repro.analysis.effects.analyze_plan`) and computes the wavefront
    levels *with the analysis' serialization edges injected*, so
    effect-conflicting op pairs land in different levels and the barrier
    between levels orders them like the serial executor would.

    Compilation also lowers the plan onto an integer-indexed **slot table**:
    every op output gets a stable slot id (``slot_base[name] + output
    index``), ``input_slots[i]`` holds the slot ids op ``i`` reads and
    ``output_base[i]`` where it publishes, so the executors never touch a
    name-keyed dict on the hot path.

    ``release_after_level[L]`` lists the ops whose outputs see their last
    consumer in level ``L`` (fetched ops are never listed), so the wavefront
    executor can free each intermediate at its statically computed last use;
    ``release_levels``/``release_after_step`` are the same lifetimes lowered
    to op indices — per wavefront level and per serial *step*; the serial
    executor frees each step's list right after running that step.
    ``serial_only_reason`` names the first effect-opaque op (which makes the
    analysis — and therefore parallel execution — unsound), or ``None`` when
    the plan is wavefront-eligible.

    The classification and the race analysis happen once here; the per-op
    effect signatures are additionally memoized on the ops themselves (and
    survive the driver's graph cloning), so plan recompilation after a
    ``tool_epoch`` bump never redoes the per-op effect scan.
    """

    __slots__ = ("ops", "levels", "position", "release_after_level",
                 "races", "serial_only_reason",
                 "num_slots", "slot_base", "input_slots", "output_base",
                 "computes", "level_indices", "release_levels",
                 "release_after_step", "remat", "remat_error")

    def __init__(self, ops: list[Operation], fetch_ops: tuple[str, ...],
                 memory_budget: int = 0,
                 feed_shapes: dict[str, tuple] | None = None):
        # lazy import: the analysis package sits above the graph core in the
        # layering (same pattern as the graph driver's verifier import)
        from ..analysis.effects import analyze_plan
        self.ops = ops
        self.races = analyze_plan(ops)
        self.levels = plan_levels(ops, extra_deps=self.races.extra_edges)
        self.position = {op.name: i for i, op in enumerate(ops)}
        level_of = {op.name: i for i, level in enumerate(self.levels)
                    for op in level}
        last_level = dict(level_of)
        for op in ops:
            for edge in op.inputs:
                last_level[edge.op.name] = max(last_level[edge.op.name],
                                               level_of[op.name])
        fetched = set(fetch_ops)
        self.release_after_level: list[list[str]] = [[] for _ in self.levels]
        for op in ops:
            if op.name not in fetched:
                self.release_after_level[last_level[op.name]].append(op.name)
        self.serial_only_reason = self.races.serial_only_reason

        # -- slot table: one stable integer slot per op output --------------
        self.slot_base: dict[str, int] = {}
        next_slot = 0
        for op in ops:
            self.slot_base[op.name] = next_slot
            next_slot += len(op.outputs)
        self.num_slots = next_slot
        self.input_slots: list[tuple[int, ...]] = [
            tuple(self.slot_base[edge.op.name] + edge.index
                  for edge in op.inputs)
            for op in ops]
        self.output_base: list[int] = [self.slot_base[op.name] for op in ops]
        # compute callables resolved once at compile time; a None entry
        # (op type registered after this plan compiled) falls back to a
        # registry lookup at execution
        self.computes: list = [COMPUTE.get(op.type) for op in ops]
        self.level_indices: list[tuple[int, ...]] = [
            tuple(self.position[op.name] for op in level)
            for level in self.levels]
        self.release_levels: list[tuple[int, ...]] = [
            tuple(self.position[name] for name in names)
            for names in self.release_after_level]
        # serial last-use steps: an op's outputs die once the last op that
        # reads them has executed (its own step when nothing reads them)
        last_step = {op.name: i for i, op in enumerate(ops)}
        for i, op in enumerate(ops):
            for edge in op.inputs:
                if last_step[edge.op.name] < i:
                    last_step[edge.op.name] = i
        steps: list[list[int]] = [[] for _ in ops]
        for op in ops:
            if op.name not in fetched:
                steps[last_step[op.name]].append(self.position[op.name])
        self.release_after_step: list[tuple[int, ...]] = [
            tuple(step) for step in steps]

        # -- memory-budgeted lowering (amanda.config.memory_budget) ----------
        # with a budget the static rematerialization pass replaces the
        # executable arrays above with a per-*instance* schedule: evicted
        # intermediates are freed at their scheduled last use and republished
        # by recompute instances (extra slot-table entries over the same
        # slots) before later consumers run
        self.remat = None
        self.remat_error: str | None = None
        if memory_budget > 0 and ops:
            try:
                self._lower_remat(ops, fetch_ops, memory_budget, feed_shapes)
            except Exception as exc:  # budgeting must never break execution
                self.remat = None
                self.remat_error = f"{type(exc).__name__}: {exc}"

    def _lower_remat(self, ops: list[Operation], fetch_ops: tuple[str, ...],
                     budget: int, feed_shapes: dict | None) -> None:
        from ..analysis.remat import op_costs, plan_remat
        bytes_of, flops_of, _unknown = op_costs(
            ops, ops[0].graph, feed_shapes=feed_shapes)
        schedule = plan_remat(ops, fetch_ops, budget, bytes_of, flops_of,
                              extra_deps=self.races.extra_edges)
        self.remat = schedule
        # slot table and base positions are untouched: a recompute instance
        # republishes the *same* slots its op always owned
        inst_ops = [ops[i] for i in schedule.instances]
        self.ops = inst_ops
        self.computes = [COMPUTE.get(op.type) for op in inst_ops]
        self.input_slots = [
            tuple(self.slot_base[edge.op.name] + edge.index
                  for edge in op.inputs)
            for op in inst_ops]
        self.output_base = [self.slot_base[op.name] for op in inst_ops]
        self.level_indices = [tuple(level) for level in schedule.levels]
        self.release_levels = [tuple(level) for level in schedule.release_levels]
        self.release_after_step = list(schedule.release_after_step)
        self.levels = [[inst_ops[t] for t in level]
                       for level in schedule.levels]
        self.release_after_level = [[inst_ops[t].name for t in level]
                                    for level in schedule.release_levels]

    @property
    def parallel_safe(self) -> bool:
        return self.serial_only_reason is None

    def __repr__(self) -> str:
        remat = ""
        if self.remat is not None:
            remat = (f", remat={self.remat.num_recomputes} recomputes"
                     f"/{self.remat.budget}B budget")
        return (f"CompiledPlan({len(self.ops)} ops, {len(self.levels)} levels, "
                f"parallel_safe={self.parallel_safe}, "
                f"{len(self.races.conflicts)} serialized pairs{remat})")


class Session:
    """Executes a graph; holds the plan cache and registered hooks."""

    #: class-level interception seam used by the Amanda graph driver:
    #: ``run_interceptor(session, fetches, feed_dict, run_impl) -> results``
    run_interceptor: Callable | None = None

    def __init__(self, graph: Graph, hooks: list[SessionRunHook] | None = None):
        self.graph = graph
        self.hooks: list[SessionRunHook] = list(hooks or [])
        #: LRU-ordered plan cache, bounded by ``config.plan_cache_size``
        self._plan_cache: OrderedDict[tuple, CompiledPlan] = OrderedDict()
        #: plan-cache key -> tenant that compiled it (None outside serving)
        self._plan_owner: dict[tuple, str | None] = {}
        #: set by the serving runtime before each batch: entries compiled
        #: while set are charged to this tenant, and eviction respects
        #: per-tenant quotas (a tenant cycling budget-variant plans evicts
        #: its own entries before touching another tenant's hot plans)
        self.cache_tenant: str | None = None
        #: guards the plan cache and lazily-created executor: ``run()``
        #: is safe to call from concurrent threads on a shared session (the
        #: serving runtime's hammer case) — LRU reorder, eviction and
        #: single-instance creation all happen under this lock
        self._state_lock = threading.RLock()
        self._executor: ThreadPoolExecutor | None = None
        self._executor_workers = 0
        #: instrumentation opt-out consulted by the Amanda graph driver: an
        #: exempt session always runs its vanilla graph even while tools are
        #: active.  The serving runtime marks its vanilla-lane pooled
        #: sessions exempt so an open instrumentation lease for one tenant
        #: can never leak into another tenant's un-sampled requests.
        self.instrumentation_exempt = False
        self.run_count = 0
        self.last_run_seconds = 0.0
        #: whether the most recent run used the wavefront executor
        self.last_run_parallel = False
        #: structured executor decision of the most recent run: executor
        #: kind, fallback reason, and every serialized op with its
        #: effect-conflict reason
        self.last_serialization_report: SerializationReport | None = None
        #: the plan the most recent run executed — diagnostic access to the
        #: rematerialization schedule (``last_compiled.remat``) under a
        #: memory budget
        self.last_compiled: CompiledPlan | None = None

    @property
    def last_fallback_reason(self) -> str | None:
        """Why the most recent run stayed serial despite ``num_workers > 1``.

        Derived alias over :attr:`last_serialization_report` (which also
        lists the per-op conflicts a wavefront run serialized).
        """
        report = self.last_serialization_report
        return report.fallback_reason if report is not None else None

    def add_hook(self, hook: SessionRunHook) -> None:
        self.hooks.append(hook)

    # -- public entry ---------------------------------------------------------
    def run(self, fetches, feed_dict: dict | None = None):
        if not self.graph.finalized:
            self.graph.finalize()
        single = not isinstance(fetches, (list, tuple))
        fetch_list = [fetches] if single else list(fetches)
        feed = self._normalize_feed(feed_dict or {})

        context = RunContext(self, fetch_list, feed)
        extra: list[GraphTensor] = []
        for hook in self.hooks:
            requested = hook.before_run(context)
            if requested:
                extra.extend(requested)

        all_fetches = fetch_list + extra
        if Session.run_interceptor is not None:
            results = Session.run_interceptor(self, all_fetches, feed,
                                              self._run_impl)
        else:
            results = self._run_impl(self.graph, all_fetches, feed)

        main = results[:len(fetch_list)]
        if extra:
            context.extra_results = dict(zip((t.name for t in extra),
                                             results[len(fetch_list):]))
        for hook in self.hooks:
            hook.after_run(context, main)
        with self._state_lock:
            self.run_count += 1
        return main[0] if single else main

    # -- execution ------------------------------------------------------------
    def _normalize_feed(self, feed_dict: dict) -> dict[str, np.ndarray]:
        feed: dict[str, np.ndarray] = {}
        for key, value in feed_dict.items():
            name = key.op.name if isinstance(key, GraphTensor) else str(key)
            arr = np.asarray(value)
            if np.issubdtype(arr.dtype, np.floating):
                arr = arr.astype(np.float64)
            feed[name] = arr
        return feed

    def _plan(self, graph: Graph, fetch_ops: tuple[str, ...],
              memory_budget: int = 0,
              feed_shapes: dict[str, tuple] | None = None) -> CompiledPlan:
        # the whole lookup-or-compile is one critical section: unlocked, a
        # concurrent get/move_to_end/insert/evict on the OrderedDict corrupts
        # the LRU order (or double-evicts) the first time two run() calls
        # share a session — the serving runtime's baseline workload
        key = graph.fingerprint() + (fetch_ops,)
        if memory_budget > 0:
            # the remat schedule depends on the budget and on the feed shapes
            # (byte costs), so budget variants get distinct cache entries; the
            # fingerprint stays in key[:3] so stale-version eviction below
            # keeps working unchanged
            shapes_key = (tuple(sorted(feed_shapes.items()))
                          if feed_shapes else ())
            key = key + (memory_budget, shapes_key)
        with self._state_lock:
            compiled = self._plan_cache.get(key)
            if compiled is not None:
                self._plan_cache.move_to_end(key)
                return compiled
            # evict plans compiled for earlier versions of this same graph:
            # the rewriter mutates instrumented copies across tool epochs, and
            # stale entries would otherwise accumulate without bound
            stale = [cached for cached in self._plan_cache
                     if cached[0] == key[0] and cached[:3] != key[:3]]
            for cached in stale:
                del self._plan_cache[cached]
                self._plan_owner.pop(cached, None)
            plan = topo_plan([graph.get_operation(name) for name in fetch_ops])
            compiled = CompiledPlan(plan, fetch_ops,
                                    memory_budget=memory_budget,
                                    feed_shapes=feed_shapes)
            self._plan_cache[key] = compiled
            self._plan_owner[key] = self.cache_tenant
            # distinct fetch tuples (and distinct graphs) are evicted
            # LRU-first: a long-lived session cycling fetch sets stays bounded
            bound = max(1, config.plan_cache_size)
            while len(self._plan_cache) > bound:
                victim = self._cache_victim(bound)
                del self._plan_cache[victim]
                self._plan_owner.pop(victim, None)
            return compiled

    def _cache_victim(self, bound: int) -> tuple:
        """The plan-cache key to evict: quota-aware LRU.

        With multiple tenants charged (serving), each gets an equal share of
        the bound; the oldest entry of any tenant *over* its share goes
        first, so one tenant churning through plan variants (e.g. per-budget
        remat schedules) cannot evict another tenant's hot plans.  With one
        or no tenants this degrades to plain LRU.
        """
        owners = {owner for owner in self._plan_owner.values()
                  if owner is not None}
        if len(owners) > 1:
            quota = max(1, bound // len(owners))
            counts: dict[str, int] = {}
            for owner in self._plan_owner.values():
                if owner is not None:
                    counts[owner] = counts.get(owner, 0) + 1
            for key in self._plan_cache:  # OrderedDict: oldest first
                owner = self._plan_owner.get(key)
                if owner is not None and counts.get(owner, 0) > quota:
                    return key
        return next(iter(self._plan_cache))

    def _run_impl(self, graph: Graph, fetches: list[GraphTensor],
                  feed: dict[str, np.ndarray]) -> list[np.ndarray]:
        start = time.perf_counter()
        budget = config.memory_budget
        feed_shapes = ({name: value.shape for name, value in feed.items()}
                       if budget > 0 else None)
        compiled = self._plan(graph, tuple(t.op.name for t in fetches),
                              memory_budget=budget, feed_shapes=feed_shapes)
        self.last_compiled = compiled
        runtime = _Runtime(feed, graph.variables)
        workers = config.num_workers
        self.last_run_parallel = False
        report = SerializationReport("serial")
        if workers > 1:
            reason = compiled.serial_only_reason
            if reason is not None:
                report = SerializationReport("serial", fallback_reason=reason)
            elif kernel_runtime.has_ordered_subscribers:
                report = SerializationReport(
                    "serial", fallback_reason=
                    "kernel subscriber demands in-order delivery")
            else:
                self.last_run_parallel = True
                report = SerializationReport(
                    "wavefront", conflicts=compiled.races.conflicts)
        self.last_serialization_report = report
        try:
            if self.last_run_parallel:
                return self._run_wavefront(compiled, fetches, runtime, workers)
            return self._run_serial(compiled, fetches, runtime)
        finally:
            self.last_run_seconds = time.perf_counter() - start

    # -- serial executor (reference semantics) --------------------------------
    def _run_serial(self, compiled: CompiledPlan, fetches: list[GraphTensor],
                    runtime: _Runtime) -> list[np.ndarray]:
        slots: list = [None] * compiled.num_slots
        live: list[tuple[int, str] | None] = [None] * len(compiled.ops)
        variables = runtime.variables
        tag_kernels = kernel_runtime.has_subscribers
        # the per-op body and the per-step release are inlined (and their
        # locals hoisted): a serial run pays this loop once per op, and the
        # call overhead alone outweighs the slot table's win on small kernels
        ops = compiled.ops
        computes = compiled.computes
        input_slots = compiled.input_slots
        output_base = compiled.output_base
        release_after_step = compiled.release_after_step
        allocate = alloc.tracker.allocate
        release = alloc.tracker.release
        try:
            for index, op in enumerate(ops):
                compute = computes[index]
                if compute is None:
                    compute = COMPUTE.get(op.type)
                    if compute is None:
                        raise NotImplementedError(
                            f"no compute for op type {op.type!r}")
                    computes[index] = compute
                inputs = [slots[slot] for slot in input_slots[index]]
                if tag_kernels:
                    kernel_runtime.push_tag(f"{op.type}|{op.name}")
                    try:
                        outputs = compute(op, inputs, runtime)
                    finally:
                        kernel_runtime.pop_tag()
                else:
                    outputs = compute(op, inputs, runtime)
                base = output_base[index]
                input_ids = {id(value) for value in inputs}
                nbytes = 0
                for offset, value in enumerate(outputs):
                    slots[base + offset] = value
                    if id(value) in input_ids or variables.owns(value):
                        continue  # aliased pass-throughs are not fresh
                    nbytes += np.asarray(value).nbytes
                scope = allocate(nbytes, scope=op.tags.get("alloc_scope"))
                live[index] = (nbytes, scope)
                # free every op whose last consumer ran at this step
                for released in release_after_step[index]:
                    entry = live[released]
                    if entry is not None:
                        release(*entry)
                        live[released] = None
                    start = output_base[released]
                    for slot in range(start,
                                      start + len(ops[released].outputs)):
                        slots[slot] = None
            results = self._extract(compiled, fetches, slots)
        except BaseException:
            # an op failure (e.g. a raising instrumentation callback inside a
            # PyCall) must not leak the run's live-tensor accounting
            self._release_remaining(compiled, slots, live)
            raise
        # only the fetched outputs are still accounted
        for entry in live:
            if entry is not None:
                release(*entry)
        return results

    # -- wavefront executor (level-parallel, liveness-driven release) ----------
    def _run_wavefront(self, compiled: CompiledPlan,
                       fetches: list[GraphTensor], runtime: _Runtime,
                       workers: int) -> list[np.ndarray]:
        slots: list = [None] * compiled.num_slots
        live: list[tuple[int, str] | None] = [None] * len(compiled.ops)
        tag_kernels = kernel_runtime.has_subscribers
        # deferred kernel events, indexed by plan position: delivered post-run
        # sorted by plan position, so profiler output is bit-identical to a
        # serial run regardless of worker count
        event_lists: list[list] | None = \
            [None] * len(compiled.ops) if tag_kernels else None
        executor = self._ensure_executor(workers)
        try:
            for index, indices in enumerate(compiled.level_indices):
                if len(indices) == 1:
                    outcomes = [self._execute_op(indices[0], compiled, slots,
                                                 runtime, tag_kernels,
                                                 defer=True)]
                else:
                    outcomes = list(executor.map(
                        lambda i: self._execute_op(i, compiled, slots,
                                                   runtime, tag_kernels,
                                                   defer=True),
                        indices))
                # bookkeeping is sequential, on the submitting thread: value
                # publication, allocation accounting and early release never
                # race with the workers (which only compute)
                for op_index, (outputs, nbytes, events) in zip(indices,
                                                               outcomes):
                    op = compiled.ops[op_index]
                    base = compiled.output_base[op_index]
                    for offset, value in enumerate(outputs):
                        slots[base + offset] = value
                    scope = alloc.tracker.allocate(
                        nbytes, scope=op.tags.get("alloc_scope"))
                    live[op_index] = (nbytes, scope)
                    if events is not None:
                        event_lists[op_index] = events
                for op_index in compiled.release_levels[index]:
                    self._release_op(op_index, compiled, slots, live)
            if event_lists is not None:
                kernel_runtime.deliver(
                    [event for events in event_lists if events
                     for event in events])
            return self._extract(compiled, fetches, slots)
        finally:
            self._release_remaining(compiled, slots, live)

    # -- shared executor plumbing ----------------------------------------------
    @staticmethod
    def _release_op(index: int, compiled: CompiledPlan, slots: list,
                    live: list) -> None:
        """Free op ``index``'s accounting entry and slot values."""
        entry = live[index]
        if entry is not None:
            alloc.tracker.release(*entry)
            live[index] = None
        base = compiled.output_base[index]
        for slot in range(base, base + len(compiled.ops[index].outputs)):
            slots[slot] = None

    def _release_remaining(self, compiled: CompiledPlan, slots: list,
                           live: list) -> None:
        for index in range(len(compiled.ops)):
            self._release_op(index, compiled, slots, live)

    @staticmethod
    def _extract(compiled: CompiledPlan, fetches: list[GraphTensor],
                 slots: list) -> list[np.ndarray]:
        return [slots[compiled.slot_base[t.op.name] + t.index]
                for t in fetches]

    def _execute_op(self, index: int, compiled: CompiledPlan, slots: list,
                    runtime: _Runtime, tag_kernels: bool, defer: bool):
        """Run one op; returns ``(outputs, fresh bytes, deferred events)``.

        Thread-safe for parallel-eligible plans: reads of ``slots`` only
        touch entries published by earlier levels, the kernel runtime's tag
        stack is per-thread, and with ``defer`` the op's kernel events are
        captured instead of delivered inline.
        """
        op = compiled.ops[index]
        compute = compiled.computes[index]
        if compute is None:
            compute = COMPUTE.get(op.type)
            if compute is None:
                raise NotImplementedError(
                    f"no compute for op type {op.type!r}")
            compiled.computes[index] = compute
        inputs = [slots[slot] for slot in compiled.input_slots[index]]
        events: list | None = None
        if tag_kernels:
            kernel_runtime.push_tag(f"{op.type}|{op.name}")
            try:
                if defer:
                    events = []
                    with kernel_runtime.capture(events):
                        outputs = compute(op, inputs, runtime)
                else:
                    outputs = compute(op, inputs, runtime)
            finally:
                kernel_runtime.pop_tag()
        else:
            outputs = compute(op, inputs, runtime)
        input_ids = {id(v) for v in inputs}
        variables = runtime.variables
        nbytes = 0
        for o in outputs:
            if id(o) in input_ids or variables.owns(o):
                # aliased pass-throughs and store-backed reads (a Variable
                # compute returns the stored array itself) are not fresh
                continue
            nbytes += np.asarray(o).nbytes
        return outputs, nbytes, events

    def _ensure_executor(self, workers: int) -> ThreadPoolExecutor:
        """The session's (lazily created, size-keyed) worker pool.

        Lock-guarded so concurrent runs on a shared session create exactly
        one pool.  (Concurrent runs requesting *different* worker counts
        would still tear down a pool the other run is using — callers that
        share a session across threads should pin ``num_workers``.)
        """
        with self._state_lock:
            if self._executor is None or self._executor_workers != workers:
                if self._executor is not None:
                    self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="amanda-wavefront")
                self._executor_workers = workers
            return self._executor

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool and cached plans.

        Idempotent; the session stays usable afterwards (the pool is
        recreated lazily on the next run).  Prefer the context-manager
        form: ``with Session(graph) as sess: ...``.
        """
        with self._state_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
                self._executor_workers = 0
            self._plan_cache.clear()
            self._plan_owner.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            # interpreter teardown may have dismantled our dependencies
            pass
