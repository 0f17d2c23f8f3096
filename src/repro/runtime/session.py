"""Compile-once / run-many execution sessions.

A :class:`Session` holds one compiled (model, framework, device) triple:
the optimized graph, its lowered
:class:`~repro.runtime.program.ExecutionProgram` and its cost-model
config.  Compilation
goes through the bench harness's process-wide compile/cost cell cache
(PR 1), which is content-addressed: compiling the same triple twice -
by name or as a structurally identical rebuilt graph - or costing it in
a benchmark and then serving it reuses one compile *and* one lowering.
Everything that is a function of graph content (the program and its
``backend_cache``, the materialized parameters, the cost report) lives
on that shared cell, read-only; a session owns only what is per-session
(statistics, fault injector, worker pool).

The session itself is now only request admission + statistics: every
request a front door serves (``CompiledModel.run`` / ``run_batch``, the
:class:`~repro.api.Service` scheduler) is validated by :func:`_admit`
against the graph's declared inputs, merged over the session's
materialized parameters, and handed to the one in-process runner
(:class:`~repro.runtime.codegen_backend.NumPyBackend`) or, on a
``"parallel"`` session, to its worker pool - the per-node
interpretation (kernel lookups, view resolution, liveness bookkeeping)
was all moved to compile time by
:func:`~repro.runtime.program.lower`:

* parameters are materialized once per compiled cell and shared
  read-only by its sessions, not drawn per session or per request;
* buffer liveness is a static slot plan computed once from
  :func:`repro.memory.pool.liveness_schedule`; its accounting is a fact
  of the program (:attr:`~repro.runtime.program.ExecutionProgram.report`),
  reported as ``RunStats.pool`` by every request - the first included -
  and never replayed at run time;
* dead intermediate ndarrays are dropped mid-run, bounding true process
  memory by the live set rather than the whole graph;
* a micro-batch executes through one backend invocation - and, when the
  program is batch-stackable
  (:func:`repro.runtime.batching.analyze`), through ONE kernel pass for
  the whole micro-batch: inputs stacked along the batch axis, the
  bucket's cached stacked variant run once at the batch's exact size,
  outputs split per request.
  Non-stackable programs fall back to the sequential per-request loop
  inside the single invocation.

    >>> model = repro.compile("Swin")
    >>> out = model.run(model.make_request(seed=0)).outputs
    >>> model.stats.runs[-1].pool is model.program.report
    True
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..api.errors import AdmissionError, InvalidOptions
from ..ir.graph import Graph
from ..ir.symbolic import SYM, is_placeholder
from ..memory.pool import PoolReport
from .batching import analyze, bucket, mark_unstackable, rebatch, symbolize
from .codegen_backend import canonical_backend, compile_program, get_backend
from .device import DeviceSpec, SD8GEN2
from .executor import make_inputs, make_params
from .faults import FaultPlan
from .parallel_backend import WorkerPool, parallel_supported
from .program import ExecutionProgram, lower

logger = logging.getLogger("repro.runtime.session")

_RUNNER = get_backend()
"""The one in-process runner every backend name executes on."""


@dataclass
class RunStats:
    """Accounting for one ``run()`` request."""

    request: int
    wall_s: float
    est_latency_ms: float
    pool: PoolReport
    """The static slot-plan report of the program or variant that served
    the request (:attr:`~repro.runtime.program.ExecutionProgram.report`,
    one shared object per program): a fact of the plan, in bytes of the
    graph's dtypes - not what the allocator did.  ``allocations`` is 0
    and ``reuses`` the plan's ``allocs_per_run`` on every request."""
    backend: str = ""
    """Canonical name of the backend the request was served through: the
    session's configured backend.  A ``"parallel"`` request keeps that
    name when the pool runs it in-process (mixed extents, or a shard
    rescued past its respawn budget - the last counted in
    :attr:`SessionStats.fallbacks`)."""
    batched: bool = False
    """True when the request was served by a stacked pass.  The
    pass is one execution of the variant and one wall-clock interval for
    the whole micro-batch, so :attr:`pool` is the variant's report,
    *shared* with the batchmates, and :attr:`wall_s` carries this
    request's even share of the stacked execution time plus its own
    admission time."""


@dataclass
class SessionStats:
    """Aggregate accounting across a session's lifetime.

    ``runs`` keeps only the most recent requests (bounded deque): a
    long-lived serving session must not grow memory linearly with
    request count, while the aggregate counters cover the lifetime.
    """

    requests: int = 0
    total_wall_s: float = 0.0
    fallbacks: int = 0
    """Shards the process pool rescued in-process after their worker
    was lost more often than its respawn budget allows."""
    runs: deque[RunStats] = field(
        default_factory=lambda: deque(maxlen=256))

    @property
    def mean_wall_s(self) -> float:
        return self.total_wall_s / self.requests if self.requests else 0.0


@dataclass(frozen=True)
class SymbolicServing:
    """A session's symbolic-shape contract, fixed at compile time.

    ``base_extent`` is the leading extent the graph was built at (the
    concrete fast path); ``max_extent`` bounds the extents admission
    accepts (1..max_extent, sizing the largest bucket's slot plan,
    scratch, and shm layouts); ``inputs`` is the frozen set of
    graph-input names carrying the symbolic leading dim (all of them -
    the batch axis is shared by construction).
    """

    base_extent: int
    max_extent: int
    inputs: frozenset[str]

    def factor(self, extent: int) -> int:
        """The bucket serving a runtime extent: the power of two
        covering ``ceil(extent / base_extent)``."""
        return bucket(max(1, -(-extent // self.base_extent)))


def _refusal(door, body: str, sep: str = ": ") -> AdmissionError:
    """The error one admission refusal raises: the message leads with the
    request, whose id the error also carries."""
    session, request_id = door
    who = "request" if request_id is None else f"request {request_id!r}"
    return AdmissionError(f"{who}{sep}{body}", request_id=request_id,
                          model=session.model or session.graph.name)


def _admit(session: "Session", inputs,
           request_id=None) -> dict[str, np.ndarray]:
    """Validate one request and merge it over the session parameters.

    The one admission function: a request names exactly the graph's
    declared inputs - empty requests, unknown names and missing inputs
    are refused - and every tensor is checked against its spec, so a
    wrong-shape or wrong-dtype request fails here with an
    :class:`~repro.api.errors.AdmissionError` naming the tensor instead
    of deep inside a kernel.  Messages lead with the request, which
    ``request_id`` also attaches to the error.  Under a symbolic compile
    the leading dim of the graph inputs admits any extent in
    ``1..max_extent``, shared across the request's inputs.  Parameters
    are the session's own, packed once per cell: a request never
    overrides one.
    """
    sym = session.symbolic
    specs = session._input_specs
    door = session, request_id  # what decorates a refusal
    if not inputs:
        raise _refusal(
            door, f"has no input tensors; expected {sorted(specs)}", sep=" ")
    values = dict(session._params)
    extent = extent_name = None
    for name, value in inputs.items():
        spec = specs.get(name)
        if spec is None:
            raise _refusal(
                door, f"unknown input tensor {name!r}; this model takes "
                f"{sorted(specs)}")
        expected, dtype = spec
        if not isinstance(value, np.ndarray):
            value = np.asarray(value)
        if sym is not None:
            shape = tuple(value.shape)
            if len(shape) != len(expected) or shape[1:] != expected[1:]:
                raise _refusal(
                    door, f"input {name!r}: got shape {shape}, expected "
                    f"{expected} (symbolic leading extent, served bucket "
                    f"range 1..{sym.max_extent})")
            if not 1 <= shape[0] <= sym.max_extent:
                raise _refusal(
                    door, f"input {name!r}: leading extent {shape[0]} is "
                    f"outside the served bucket range 1..{sym.max_extent}")
            if extent is None:
                extent, extent_name = shape[0], name
            elif shape[0] != extent:
                raise _refusal(
                    door, f"input {name!r}: leading extent {shape[0]} "
                    f"disagrees with input {extent_name!r} (extent "
                    f"{extent}); a request's inputs share one symbolic "
                    f"extent")
        elif value.shape != expected:
            raise _refusal(
                door, f"input {name!r}: got shape {tuple(value.shape)}, "
                f"expected {expected}")
        if value.dtype != dtype:
            raise _refusal(
                door, f"input {name!r}: got dtype {value.dtype}, expected "
                f"{dtype}")
        values[name] = value
    if len(inputs) != len(specs):
        missing = [n for n in specs if n not in inputs]
        raise _refusal(door, f"missing input tensors {missing}")
    return values


class Session:
    """One compiled module, ready to serve repeated requests.

    The session is request admission + stats; execution is the lowered
    program's emitted runner, in-process (``"numpy"``, also selected as
    ``"codegen"``; the default) or across a worker pool
    (``"parallel"``)."""

    def __init__(self, graph: Graph, plan, config, device: DeviceSpec,
                 framework: str = "Ours", model: str = "",
                 cell=None, program: ExecutionProgram | None = None,
                 backend: str = "numpy",
                 faults: FaultPlan | None = None,
                 workers: int = 1,
                 signature=None, max_extent: int = 0) -> None:
        self.graph = graph
        self.plan = plan
        self.config = config
        self.device = device
        self.framework = framework
        self.model = model
        self.backend = canonical_backend(backend)
        self._cell = cell
        self._report = None
        # Priced once per cell, at compile time: the cost model (1-2 ms)
        # never runs on a request's response path.
        self._est_latency_ms: float | None = \
            cell.report.latency_ms if cell is not None else None
        # The lowered program this session serves.  The ``Ours``
        # pipeline lowers as its final pass, so the program usually
        # arrives with the compile-cache result; other frameworks lower
        # here (memoized on the graph, hence still shared across
        # sessions of the same compiled graph).
        self.program = program if program is not None else lower(graph)
        # Emitted now, so an emission bug fails the compile: no request
        # has anything to degrade to.
        compile_program(self.program)
        self._param_values: dict[str, np.ndarray] | None = None
        self._input_cache: dict[int, dict[str, np.ndarray]] = {}
        self.stats = SessionStats()
        # A service runs two passes at once: the stats they record go
        # through this lock (the passes themselves share nothing).
        self._stats_lock = threading.Lock()
        # Fault injection: an explicit plan wins; otherwise the ambient
        # chaos plan (REPRO_FAULT_SEED) applies, injecting only faults
        # the reliability layer is required to absorb.
        if faults is None:
            faults = FaultPlan.from_env()
        self.faults = faults
        self._injector = faults.injector() if faults is not None else None
        self._fingerprint: str | None = None
        # Parallel-backend state: the worker-process pool is created
        # lazily (or eagerly by the Service front door, which owns the
        # fork-before-threads timing) and only for "parallel" sessions.
        self.workers = max(1, int(workers))
        self.parallel_capacity = 16
        self._parallel_pool = None
        # Symbolic serving contract; None for concrete sessions.
        self.symbolic: SymbolicServing | None = None
        if signature is not None:
            self._init_symbolic(signature, max_extent)
        # What admission checks the declared inputs against.
        self._input_specs = self.serving_signature

    @property
    def _params(self) -> dict[str, np.ndarray]:
        """Parameters (and interior constants): the compiled cell's
        shared read-only arrays, or - for a session built without a
        cell - a private materialization on the first request."""
        if self._param_values is None:
            cell = self._cell
            self._param_values = cell.params if cell is not None \
                else make_params(self.graph)
        return self._param_values

    # -- costing -----------------------------------------------------------

    @property
    def report(self):
        """Cost-model report for this module (computed once)."""
        if self._report is None:
            if self._cell is not None:
                self._report = self._cell.report
            else:
                from .cost_model import estimate
                self._report = estimate(self.graph, self.device, self.plan,
                                        self.config)
        return self._report

    @property
    def est_latency_ms(self) -> float:
        return self.report.latency_ms

    # -- admission ---------------------------------------------------------

    def make_inputs(self, seed: int = 0) -> dict[str, np.ndarray]:
        """Deterministic random values for the graph inputs only.

        Memoized per seed: repeated seeded requests (load generators,
        tests) do not re-pay input generation.
        """
        found = self._input_cache.get(seed)
        if found is None:
            full = make_inputs(self.graph, seed=seed)
            found = {name: full[name] for name in self.graph.inputs}
            for value in found.values():
                value.setflags(write=False)  # cached values are shared
            if len(self._input_cache) >= 32:  # bound memory for wild seeds
                self._input_cache.pop(next(iter(self._input_cache)))
            self._input_cache[seed] = found
        return dict(found)

    def _init_symbolic(self, signature, max_extent: int) -> None:
        """Validate and install the symbolic-shape contract.

        Refusals here mirror :func:`repro.runtime.batching.analyze`: a
        model whose program is not batch-scalable cannot serve a
        symbolic leading dim, and the refusal carries the analysis's
        recorded reason.  Raises
        :class:`~repro.api.errors.InvalidOptions` - this is an options
        problem (the model/signature pair), not a per-request one.
        """
        who = self.model or self.graph.name
        if not isinstance(max_extent, int) or max_extent < 1:
            raise InvalidOptions(
                f"symbolic signature for {who!r} needs max_extent >= 1, "
                f"got {max_extent!r}")
        items = signature.items() if isinstance(signature, dict) \
            else signature
        tensors = self.graph.tensors
        inputs = frozenset(self.graph.inputs)
        for name, shape in items:
            if name not in inputs:
                raise InvalidOptions(
                    f"symbolic signature names {name!r}, which is not a "
                    f"graph input of {who!r}; inputs are {sorted(inputs)}")
            dims = tuple(shape)
            spec_shape = tuple(tensors[name].shape)
            if not dims or not is_placeholder(dims[0]):
                raise InvalidOptions(
                    f"symbolic signature: input {name!r} must lead with a "
                    f"placeholder (None/SYM), got {dims!r}")
            if any(is_placeholder(d) for d in dims[1:]):
                raise InvalidOptions(
                    f"symbolic signature: input {name!r}: only the leading "
                    f"dim may be symbolic, got {dims!r}")
            if len(dims) != len(spec_shape) \
                    or tuple(int(d) for d in dims[1:]) != spec_shape[1:]:
                raise InvalidOptions(
                    f"symbolic signature: input {name!r} declares "
                    f"{(SYM,) + tuple(dims[1:])}, but the compiled graph "
                    f"expects {(SYM,) + spec_shape[1:]}")
        analysis = analyze(self.program)
        if not analysis.stackable:
            raise InvalidOptions(
                f"{who!r} cannot serve a symbolic leading extent: "
                f"{analysis.reason}")
        self.symbolic = SymbolicServing(
            base_extent=analysis.batch_extent,
            max_extent=max_extent,
            inputs=inputs)

    @property
    def serving_signature(self) -> dict[str, tuple]:
        """``{input name: (shape, dtype)}`` this session admits.

        Symbolic sessions spell the leading dim with
        :data:`~repro.ir.symbolic.SYM` (rendered ``?``); concrete
        sessions return the exact graph shapes.
        """
        tensors = self.graph.tensors
        out = {}
        for name in self.graph.inputs:
            spec = tensors[name]
            shape = tuple(spec.shape)
            if self.symbolic is not None:
                shape = (SYM,) + shape[1:]
            out[name] = (shape, np.dtype(spec.dtype.numpy_dtype))
        return out

    # -- serving -----------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """The served graph's content fingerprint (memoized) - the
        per-program key in error context."""
        if self._fingerprint is None:
            self._fingerprint = self.graph.fingerprint()
        return self._fingerprint

    def execute_values(self, values_list, backend=None):
        """Run admitted value dicts through one backend invocation.

        Every execution path of the serving stack funnels through here -
        ``CompiledModel.run[_batch]`` and the :class:`~repro.api.Service`
        scheduler - so fault injection and the stacked-batch routing
        apply uniformly.  Returns ``(results, backend_name, batched)``
        where results is the ``run_many``-shaped list of
        ``(outputs, report, wall_s)``, ``backend_name`` names the
        backend the invocation went through (``backend.name``, else the
        session's), and ``batched`` reports whether the requests were
        stacked into one kernel pass per step.

        A ``"parallel"`` session offers the invocation to its worker
        pool (:meth:`ensure_parallel_pool`), which shards it and stacks
        *inside* each worker's shard; what the pool declines (mixed
        symbolic extents) runs in-process.  Passing ``backend``
        (:func:`~repro.runtime.codegen_backend.get_backend`) forces the
        in-process route (:meth:`_route`).

        Injected session-level faults (:attr:`faults`) fire before the
        invocation runs.  Nothing here retries: the process pool
        recovers its own lost workers
        (:class:`~repro.runtime.parallel_backend.WorkerPool`), and any
        error it cannot absorb - a pool that fails to start included -
        propagates once.
        """
        name = self.backend if backend is None else backend.name
        injector = self._injector
        if injector is not None:
            injector.on_invocation(len(values_list), name, {
                "model": self.model or self.graph.name,
                "fingerprint": self.fingerprint})
        if backend is None and name == "parallel":
            sharded = self.ensure_parallel_pool().run(values_list)
            if sharded is not None:
                return sharded[0], name, sharded[1]
        rows, batched = self._route(values_list)
        return rows, name, batched

    def _route(self, vlist):
        """``(rows, batched)`` for one invocation on the in-process
        runner - also what the worker pool's warm-up, its workers and
        its in-process rescue run.

        Requests are grouped by leading extent - a concrete session is
        the one-group case - and rows scatter back in request order.  A
        base-extent group of several requests runs as one stacked pass
        of the bucket's stacked variant (``run_stacked``) when analysis
        licenses it (:func:`repro.runtime.batching.analyze`), the
        sequential ``run_many`` loop otherwise; both are byte-identical
        per request.  Any other extent runs its bucket's exact variant
        (:meth:`SymbolicServing.factor`) per request, which keeps outputs
        byte-identical to a fresh concrete compile at that extent.  A
        variant that fails to build demotes the program for good: a
        wrong stacked result is never acceptable, a sequential one
        always is.
        """
        program = self.program
        first = program.input_names[0]
        sym = self.symbolic
        groups: dict[int | None, list[int]] = {}
        for index, values in enumerate(vlist):
            extent = None if sym is None else values[first].shape[0]
            groups.setdefault(extent, []).append(index)
        rows = [None] * len(vlist)
        batched = False
        for extent, indices in groups.items():
            sub = [vlist[i] for i in indices]
            serving, variant = program, None
            if extent is not None and extent != sym.base_extent:
                serving = symbolize(program, sym.factor(extent))
            elif len(sub) > 1 and analyze(program).stackable:
                factor = bucket(len(sub))
                try:
                    variant = rebatch(program, factor)
                except Exception as err:  # noqa: BLE001 - never risk it
                    logger.exception(
                        "building the bucket-%d stacked variant of %r "
                        "failed; demoting to the sequential path",
                        factor, self.model or self.graph.name)
                    mark_unstackable(
                        program, f"rebatch({factor}) failed: {err}")
            if variant is None:
                served = _RUNNER.run_many(serving, sub)
            else:
                served = _RUNNER.run_stacked(program, variant, sub)
                batched = True
            for index, row in zip(indices, served):
                rows[index] = row
        return rows, batched

    # -- parallel worker pool ----------------------------------------------

    def ensure_parallel_pool(self):
        """The session's worker-process pool, started on first need.

        Only meaningful for a ``"parallel"`` session.  A pool that fails
        to start raises to the caller, and the next call starts one
        again.  The :class:`~repro.api.Service` front door calls this
        eagerly before starting its scheduler thread, so the fork
        happens while the parent is still effectively single-threaded.
        """
        pool = self._parallel_pool
        if pool is None or not pool.alive:
            pool = self._parallel_pool = WorkerPool(
                self, workers=self.workers,
                capacity=self.parallel_capacity)
        return pool

    @property
    def parallel_restarts(self) -> int:
        """Worker-process respawns performed by this session's pool."""
        pool = self._parallel_pool
        return pool.restarts if pool is not None else 0

    def close(self) -> None:
        """Release process-external resources (worker processes and
        shared-memory segments).  Idempotent; the session remains usable
        afterwards - a later sharded invocation simply recreates the
        pool."""
        pool = self._parallel_pool
        if pool is not None:
            self._parallel_pool = None
            pool.close()

    def _serve(self, requests, admit=None):
        """Recorded execution: admit, :meth:`execute_values`, then one
        :class:`RunStats` per request; returns ``[(outputs, RunStats)]``
        in request order.

        The one admit-execute-record loop behind
        ``CompiledModel.run[_batch]`` and the
        :class:`~repro.api.Service` scheduler.  With ``admit`` (a front
        door's admission function) each request is admitted here and its
        admission time counts into its recorded wall; without it
        ``requests`` are already-admitted value dicts (the scheduler
        admits in the submitting thread).  The batch is all-or-nothing
        for *statistics*: a request failing admission or mid-batch
        propagates before any of the batch is recorded.
        """
        admit_walls = None
        if admit is not None:
            perf = time.perf_counter
            admit_walls = []
            admitted = []
            for request in requests:
                start = perf()
                admitted.append(admit(request))
                admit_walls.append(perf() - start)
            requests = admitted
        results, served_by, batched = self.execute_values(requests)
        est = self._est_latency_ms
        if est is None:  # a session built without a cell prices once
            est = self._est_latency_ms = self.est_latency_ms
        stats = self.stats
        served = []
        with self._stats_lock:
            for index, (outputs, report, wall_s) in enumerate(results):
                if admit_walls is not None:
                    wall_s += admit_walls[index]
                stats.requests += 1
                stats.total_wall_s += wall_s
                run = RunStats(
                    request=stats.requests,
                    wall_s=wall_s,
                    est_latency_ms=est,
                    pool=report,
                    backend=served_by,
                    batched=batched,
                )
                stats.runs.append(run)
                served.append((outputs, run))
        return served


def _compile_session(model: str | Graph, framework: str = "Ours",
                     device: DeviceSpec = SD8GEN2, batch: int = 1,
                     check_memory: bool = False, backend: str = "numpy",
                     faults: FaultPlan | None = None, workers: int = 1,
                     signature=None, max_extent: int = 0,
                     **fw_kwargs) -> Session:
    """Compile a (model, framework, device) triple into a fresh Session.

    Compilation is served by the bench harness's content-addressed
    cell cache: repeated calls for the same triple - a name, the same
    graph, or a structurally identical rebuilt one - (or a benchmark
    that already costed it), concurrent ones included, share one
    compile, one lowering with its ``backend_cache``, one parameter
    materialization and one cost report.  The Session is fresh: stats,
    fault injector, input memo and worker pool are never shared.
    Raises ``RuntimeError`` when the framework does not support the
    model (capability or memory limits).

    Internal workhorse behind :func:`repro.api.compile` and
    :func:`repro.api.serve`.
    """
    # Imported lazily: the harness sits above the runtime layer.
    from ..bench.harness import run_cell

    # Refuse a bad backend before compiling.
    if canonical_backend(backend) == "parallel" and not parallel_supported():
        raise InvalidOptions("backend 'parallel' needs the fork start "
                             "method, which this platform lacks")
    if batch != 1 and not isinstance(model, str):
        raise ValueError(
            "batch only applies to registry-name models; build the Graph "
            "at the desired batch size instead")
    cell = run_cell(model, framework, device, check_memory=check_memory,
                    batch=batch, **fw_kwargs)
    if not cell.supported:
        raise RuntimeError(
            f"{framework} cannot serve this model: {cell.reason}")
    result = cell.result
    return Session(
        graph=result.graph, plan=result.plan, config=result.config,
        device=device, framework=framework,
        model=model if isinstance(model, str) else model.name,
        cell=cell, program=result.program, backend=backend,
        faults=faults, workers=workers,
        signature=signature, max_extent=max_extent,
    )


def stable_model_key(model: str | Graph):
    """Content identity of a model argument for compile caching.

    Registry names key by value; graphs key by *content fingerprint*
    (memoized per graph generation), so a user rebuilding an identical
    graph object hits the same cache entry instead of recompiling, while
    a mutated graph misses.  The one key function of the compile path:
    the bench harness's cell and core caches use it.
    """
    if isinstance(model, Graph):
        return ("graph", model.fingerprint())
    return ("name", model)
