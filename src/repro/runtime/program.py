"""Lowered execution programs.

SmartMem's central claim is that decisions made once at compile time pay
off on every inference.  The serving layer used to undercut that by
re-interpreting the :class:`~repro.ir.graph.Graph` per request: per-node
kernel dict lookups, per-node view resolution, per-run liveness dict
bookkeeping.  :func:`lower` moves all of that to compile time, producing
an :class:`ExecutionProgram`:

* a flat tuple of :class:`Step`\\ s - one per node, in execution order -
  with the kernel callable pre-bound via
  :func:`~repro.runtime.kernels.get_kernel`, non-identity input views
  captured, and output shapes pre-fetched from the tensor specs;
  a ``dense`` over a parameter weight is bound to that weight *packed*
  into the GEMM's ``(K, N)`` layout (:func:`~repro.runtime.kernels.pack`),
  which the compiled cell's parameters materialise once - no layout
  transformation is left on the request path; and a ``unary`` /
  ``binary`` / ``batchnorm`` step that owns an input array
  (:func:`_owned_operand`) is bound to the kernel writing into it, so
  no request allocates that step's output;
* a static :class:`SlotPlan` - register allocation of pool buffers over
  exact size classes, computed once from
  :func:`~repro.memory.pool.liveness_schedule`.  It slots exactly the
  graph inputs and the values the compiler's fusion groups materialize
  (:func:`~repro.memory.pool.is_materialized`) - the same decision the
  cost model and ``simulate_pool`` read, which the program reports back
  as :attr:`ExecutionProgram.fused_chains`.  The slot plan fixes the
  per-step live-byte timeline, the peak footprint, and the total
  allocation traffic statically: they are identical for every request
  by construction, so the program states them once, as
  :attr:`ExecutionProgram.report`, and no request replays them.

Programs are memoized on the graph's analysis cache (keyed by graph
generation), so the executor, the verifier, and every
:class:`~repro.runtime.session.Session` serving the same compiled graph
share one lowering - and the PR-1 compile-core cache, which pins graph
objects, carries the program across sessions for free.

The one in-process runner,
:class:`~repro.runtime.codegen_backend.NumPyBackend`, executes each
program as one emitted Python function; ``Session``,
``executor.execute`` and ``verify_equivalence`` all drive it through the
same program path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..api.errors import ExecutionError
from ..ir.graph import Graph
from ..ir.symbolic import is_symbolic_shape
from ..ir.view import ViewChain
from ..memory.pool import PoolEvent, PoolReport, liveness_schedule
from .kernels import (
    bind_conv2d, bind_in_place, dense_packed, get_kernel,
    layout_convert_elided, pack, returns_fresh,
)
from . import native
from .traffic import roofline_summary, step_traffic

_PROGRAM_CACHE_KEY = "execution_program"

_FILLING: dict = {}
"""``(id(cache), key)`` -> the lock that key's in-flight build holds."""
_FILLING_LOCK = threading.Lock()
"""Guards :data:`_FILLING`; held only to read or write it, never across
a build."""


def fill_once(cache: dict, key, build: Callable, *args):
    """``cache[key]``, built by ``build(*args)`` once per key.

    The one build-once primitive: compile cells, lowerings, codegen
    modules, batch variants and analyses, the native library and its
    certificates all fill through it.  A hit takes no lock.  A miss
    re-checks and builds under that key's own in-flight lock, so
    concurrent callers of one key get one object, built once, and no
    lock is held across a build for any other key.  A ``build`` that
    raises caches nothing; a caller that waited on it then builds the
    key itself.

    A build may fill other keys: they nest in call order (cell -> core
    -> lower -> native; variant -> analysis), never in a cycle, so they
    cannot deadlock.  A build that fills its *own* key deadlocks.  A
    forked worker starts with a fresh table
    (``parallel_backend._worker_main``): a key a parent thread was
    building at the fork would stay locked in the child forever.
    """
    found = cache.get(key)
    if found is not None:
        return found
    slot = (id(cache), key)
    while True:
        with _FILLING_LOCK:
            filling = _FILLING.setdefault(slot, threading.Lock())
        with filling:
            try:
                found = cache.get(key)  # built while this thread waited
                if found is not None:
                    return found
                with _FILLING_LOCK:
                    owner = _FILLING.get(slot) is filling
                if owner:
                    found = cache[key] = build(*args)
                    return found
            finally:
                with _FILLING_LOCK:
                    if _FILLING.get(slot) is filling:
                        del _FILLING[slot]
        # The build this thread waited on raised: take the key afresh.


# ---------------------------------------------------------------------------
# lowered program
# ---------------------------------------------------------------------------


def _compile_view(chain: ViewChain) -> Callable[[np.ndarray], np.ndarray]:
    """Pre-resolve a ViewChain into one applier closure.

    Each relayout step becomes a direct ndarray method call (slice index
    tuples prebuilt), skipping the chain's per-apply shape check and step
    dispatch on the hot path.
    """
    fns: list[Callable[[np.ndarray], np.ndarray]] = []
    for step in chain.steps:
        if step.kind == "reshape":
            fns.append(lambda a, _shape=step.arg: a.reshape(_shape))
        elif step.kind == "transpose":
            fns.append(lambda a, _perm=step.arg: a.transpose(_perm))
        else:  # slice
            index = tuple(slice(lo, hi, st) for lo, hi, st in step.arg)
            fns.append(lambda a, _index=index: a[_index])
    if len(fns) == 1:
        return fns[0]

    def applier(array: np.ndarray, _fns=tuple(fns)) -> np.ndarray:
        for fn in _fns:
            array = fn(array)
        return array

    return applier


@dataclass(frozen=True)
class Step:
    """One pre-resolved node execution: everything a backend needs,
    fetched once at lowering time."""

    node_id: str
    op_type: str
    kernel: Callable
    arg_names: tuple[str, ...]
    """Value names the kernel reads, in argument order: the node's input
    tensors, except that a ``dense`` bound to its packed weight names
    the pack (see :attr:`ExecutionProgram.packs`)."""
    views: tuple[tuple[int, ViewChain], ...]
    """(input position, ViewChain) for every non-identity input view -
    the lowering-time capture the emitted runner and the timing walk
    read, never the live graph."""
    attrs: dict
    """The node's attrs dict, shared by reference (treat as read-only)."""
    out_names: tuple[str, ...]
    out_shapes: tuple[tuple[int, ...], ...]
    drops: tuple[str, ...]
    """Value names whose backing ndarrays die at this step (fusion-group
    internals included), bounding process memory by the live set."""
    bytes_read: int = 0
    """Static algorithmic input traffic (argument tensor bytes)."""
    bytes_written: int = 0
    """Static algorithmic output traffic (output tensor bytes)."""
    flops: int = 0
    """Static floating-point work dispatched by this step."""
    scratch_bytes: int = 0
    """Reusable scratch owned by this step's bound kernel (a conv's
    zero-halo padded buffer), sized statically at lowering; 0 for
    scratchless steps."""
    arena_bytes: int = 0
    """Column bytes this step borrows from the per-thread im2col arena
    while it runs (every conv2d step; 0 otherwise)."""
    owned: int | None = None
    """The argument position whose array this step owns - ``kernel``
    writes its result into it and returns it (see
    :func:`_owned_operand`; a ``binary`` allocates instead when that
    array is not C-ordered) - or None: the kernel allocates."""


@dataclass(frozen=True)
class SlotPlan:
    """Static buffer-slot assignment: register allocation over exact size
    classes - a dying tensor's slot serves the next same-size request.
    Built once per program by :func:`_assign_slots`; no request replays
    it."""

    slot_sizes: tuple[int, ...]
    """Byte size of each slot; index is the slot id."""
    tensor_slot: dict[str, int]
    """Pool-visible tensor -> its slot (read-only by convention)."""
    timeline_live: tuple[int, ...]
    """Live pool bytes after each step's allocations - static, identical
    for every request."""
    peak_bytes: int
    total_allocated_bytes: int
    allocs_per_run: int
    """Pool allocation events per run (a slot freed mid-run can serve a
    later same-size tensor, so this can exceed the slot count)."""
    scratch_sizes: tuple[int, ...] = ()
    """Reusable-scratch classes (one per scratch-owning step, in step
    order): bytes held across runs by bound kernels (padded conv
    inputs).  Unlike slots these are never allocated or released per
    request - they are part of the program's resident footprint."""
    arena_bytes: int = 0
    """The program's demand on the per-thread im2col arena: its largest
    conv column matrix.  The arena is shared by every conv step of every
    program a thread runs, so steps contribute their max, not their sum."""

    @property
    def num_slots(self) -> int:
        return len(self.slot_sizes)

    @property
    def scratch_bytes(self) -> int:
        """What one thread holds to run this program: every step-owned
        buffer plus an arena big enough for the widest conv."""
        return sum(self.scratch_sizes) + self.arena_bytes

    def with_scratch(self, steps: "tuple[Step, ...]") -> "SlotPlan":
        """This plan with the scratch accounting of ``steps``."""
        return replace(
            self,
            scratch_sizes=tuple(
                s.scratch_bytes for s in steps if s.scratch_bytes),
            arena_bytes=max((s.arena_bytes for s in steps), default=0))


def _compile_step(step: Step) -> Callable[..., None]:
    """Fold one step into a single closure: the per-step timing walk.

    Serving never runs these - every request runs the program's emitted
    function (:func:`~repro.runtime.codegen_backend.compile_program`).
    Timing one step at a time needs the steps as separate callables, so
    :attr:`ExecutionProgram.op_list` builds these on first read.  The
    closure reads its inputs from / writes its outputs to a values dict,
    applies the step's views (compiled here from :attr:`Step.views`),
    calls the bound kernel and checks every output's full shape.  An
    output whose spec leads with :data:`~repro.ir.symbolic.SYM` (a
    batched value of a bucket variant) is checked with the pass's live
    leading extent ``n``; concrete specs ignore ``n``.  The error text
    matches the emitted runner's character for character.
    """
    kernel = step.kernel
    names = step.arg_names
    attrs = step.attrs
    appliers = tuple((idx, _compile_view(view)) for idx, view in step.views)
    out_names = step.out_names
    specs = tuple((is_symbolic_shape(shape), tuple(shape[1:]), shape)
                  for shape in step.out_shapes)
    op_type = step.op_type
    node_id = step.node_id

    if len(out_names) > 1:
        def execute(values: dict, n: int | None = None) -> None:
            args = [values[name] for name in names]
            for idx, apply in appliers:
                args[idx] = apply(args[idx])
            for name, (symbolic, tail, shape), value in zip(
                    out_names, specs, kernel(args, attrs)):
                want = (n, *tail) if symbolic else shape
                if value.shape != want:
                    raise ExecutionError(
                        f"kernel {op_type} ({node_id}) produced shape "
                        f"{value.shape}, spec says {want}")
                values[name] = value
        return execute

    out = out_names[0]
    (symbolic, tail, shape), = specs

    def execute(values: dict, n: int | None = None) -> None:
        args = [values[name] for name in names]
        for idx, apply in appliers:
            args[idx] = apply(args[idx])
        result = kernel(args, attrs)
        if type(result) in (tuple, list):
            result = result[0]
        want = (n, *tail) if symbolic else shape
        if result.shape != want:
            raise ExecutionError(
                f"kernel {op_type} ({node_id}) produced shape "
                f"{result.shape}, spec says {want}")
        values[out] = result

    return execute


class ExecutionProgram:
    """A graph lowered for repeated execution on a pluggable backend."""

    __slots__ = ("graph", "steps", "slot_plan", "input_names",
                 "output_names", "input_signature",
                 "report", "backend_cache", "fused_chains",
                 "fused_step_count", "symbolic_extent",
                 "packs", "__weakref__")

    def __init__(self, graph: Graph, steps: tuple[Step, ...],
                 slot_plan: SlotPlan,
                 input_signature: tuple | None = None,
                 fused_chains: tuple[tuple[int, ...], ...] = (),
                 symbolic_extent: int | None = None,
                 packs: tuple[tuple[str, str, bool], ...] = ()) -> None:
        self.graph = graph
        self.steps = steps
        self.slot_plan = slot_plan
        # ``(packed name, source name, source_read)`` per distinct
        # ``dense`` weight ``lower()`` bound to its GEMM layout: steps
        # read the packed name, and the pack *replaces* the ``(N, K)``
        # source in the cell's parameters unless something else still
        # reads it.  Variants share the base program's packs.
        self.packs = packs
        # The compiler's fusion groups of two or more members, as tuples
        # of step indices: what the slot plan's unslotted interiors come
        # from.  Bucket variants inherit them verbatim - step indices
        # are stable across variants.
        self.fused_chains = fused_chains
        self.fused_step_count = sum(
            len(chain) - 1 for chain in fused_chains)
        self.input_names = tuple(graph.inputs)
        self.output_names = tuple(graph.outputs)
        # Batch-compatibility metadata: the exact request shape this
        # program admits - (name, shape, dtype) per graph input.  The
        # service scheduler validates every request against it and only
        # coalesces requests admitted under an equal :attr:`batch_key`
        # into one backend invocation.  Bucket variants built by
        # :mod:`repro.runtime.batching` pass their symbolic signature
        # explicitly; base lowerings derive it from the graph.
        if input_signature is not None:
            self.input_signature = input_signature
        else:
            self.input_signature = tuple(
                (name, tuple(graph.shape(name)),
                 str(np.dtype(graph.tensors[name].dtype.numpy_dtype)))
                for name in graph.inputs)
        # Bucket (extent-polymorphic) variants: the *bound* - the
        # largest leading extent this variant's slot plan, scratch, and
        # shm layouts are sized for.  The variant executes any pass
        # whose leading extent is <= the bound at that exact extent (no
        # padding); None for base lowerings.
        self.symbolic_extent = symbolic_extent
        # The slot plan's accounting, stated once: every request this
        # program serves reports this object as its ``RunStats.pool``.
        # The values are facts of the plan (bytes in the graph's
        # dtypes), not allocator counters: every slot is a reuse of the
        # plan and nothing stays live between requests.  The timeline is
        # a tuple so no consumer can mutate the shared report.
        self.report = PoolReport(
            peak_bytes=slot_plan.peak_bytes,
            peak_copy_bytes=0,
            final_bytes=0,
            timeline=tuple(
                PoolEvent(i, live, 0)
                for i, live in enumerate(slot_plan.timeline_live)),
            allocations=0,
            reuses=slot_plan.allocs_per_run,
            total_allocated_bytes=slot_plan.total_allocated_bytes,
        )
        # Artifacts built once from the program (the emitted runner's
        # module, bucket variants, analyses, the timing walk's closures),
        # keyed by name.  Living on the program - itself memoized per
        # graph generation by :func:`lower` - gives them the same
        # lifetime and invalidation as the lowering they were built from.
        self.backend_cache: dict[str, object] = {}

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def op_list(self) -> tuple:
        """``(step closure, dying value names)`` per step, built on first
        read: the per-step timing walk (:func:`_compile_step`), never a
        request's path."""
        return fill_once(self.backend_cache, "op_list", _op_list, self.steps)

    def roofline(self) -> dict[str, dict]:
        """Per-kernel-family static traffic summary (memoized)."""
        return fill_once(self.backend_cache, "roofline", roofline_summary,
                         self.steps)

    def bind_packs(self, values: dict) -> dict:
        """Add every packed operand ``values`` lacks.  A dict merged over
        the cell's parameters carries them all; one keyed by the graph's
        own names (``executor.execute``, the verifier) gets each packed
        per call, by the same :func:`~repro.runtime.kernels.pack` that
        built the cell's - so the two cannot differ."""
        for packed, source, _ in self.packs:
            if packed not in values:
                values[packed] = pack(values[source])
        return values

    @property
    def batch_key(self):
        """Coalescing contract token.

        Requests are batch-compatible - eligible for one backend
        invocation - only when admitted against programs whose
        ``batch_key`` compares equal.  Equality is necessary, not
        sufficient: a scheduler guarantees sufficiency by admitting all
        coalesced requests against a single program (which is what
        :class:`repro.api.Service` does).

        Compatibility says nothing about *how* the coalesced batch
        executes.  Whether the requests can additionally be stacked
        along the leading batch axis into one kernel pass per step is a
        separate, per-program property proved by
        :func:`repro.runtime.batching.analyze`: elementwise / matmul /
        norm / NCHW chains qualify, while ops that reduce, reshape,
        transpose, concat, or gather across the batch axis do not.
        Non-stackable programs still coalesce - they just execute the
        batch sequentially inside the single invocation, never a wrong
        stacked result.  Bucket variants built from this program are
        cached on :attr:`backend_cache` keyed by ``(bucket, flavour)`` -
        the variant cache lives on the key's referent.
        """
        return (self.graph.name, self.input_signature)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ExecutionProgram({self.graph.name!r}, steps={len(self.steps)}, "
                f"slots={self.slot_plan.num_slots})")


def _op_list(steps: tuple[Step, ...]):
    return tuple((_compile_step(step), step.drops) for step in steps)


def _assign_slots(input_names, steps, size_of) -> SlotPlan:
    """Register-allocate pool buffers over exact size classes.

    ``steps`` yields ``(slotted out-names, drops)`` per step in execution
    order; ``size_of(tensor)`` is a slotted tensor's byte size.  The
    liveness walk is replayed once: the inputs and each step's slotted
    outputs take a slot, and a dropped tensor that holds one returns it
    to its size class's free stack, where it serves the next same-size
    request.  The slot count per class equals the peak number of
    concurrently live slotted tensors of that class.  :func:`lower`
    sizes from the tensor specs, a batch variant scales its batched
    tensors - one allocator, so the two plans cannot disagree on when a
    slot is released.
    """
    slot_sizes: list[int] = []
    free: dict[int, list[int]] = {}
    tensor_slot: dict[str, int] = {}

    def take(t: str) -> int:
        size = size_of(t)
        stack = free.get(size)
        if stack:
            tensor_slot[t] = stack.pop()
        else:
            tensor_slot[t] = len(slot_sizes)
            slot_sizes.append(size)
        return size

    live = total = sum(take(t) for t in input_names)
    timeline_live: list[int] = []
    for out_names, drops in steps:
        for t in out_names:
            size = take(t)
            live += size
            total += size
        timeline_live.append(live)
        for t in drops:
            slot = tensor_slot.get(t)
            if slot is not None:  # group interiors, constants: no slot
                size = slot_sizes[slot]
                free.setdefault(size, []).append(slot)
                live -= size
    return SlotPlan(
        slot_sizes=tuple(slot_sizes),
        tensor_slot=tensor_slot,
        timeline_live=tuple(timeline_live),
        peak_bytes=max(timeline_live, default=0),
        total_allocated_bytes=total,
        allocs_per_run=len(tensor_slot),
    )


def _owned_operand(graph: Graph, node, viewed, kernel_of, consumers,
                   outputs) -> tuple[int | None, Callable | None]:
    """Decide which input array ``node``'s step may overwrite.

    Position ``p`` is owned only if its value
    - came fresh from its producer's kernel
      (:func:`~repro.runtime.kernels.returns_fresh`) - so it is no graph
      input, parameter or interior constant, which have no producer,
      and no view of another value;
    - has exactly one consumer edge, this one.  Dying here is not
      enough: a reshape/transpose view taken earlier may still be live
      and alias the array;
    - is read without a view, is no graph output, and has the output's
      static shape;
    - shares one floating dtype with every operand and the output;
    - and the kernels have an in-place recipe for the step
      (:func:`~repro.runtime.kernels.bind_in_place`).

    Returns ``(p, in-place kernel)`` or ``(None, None)``.
    """
    if len(node.outputs) != 1:
        return None, None
    out = node.outputs[0]
    shape = tuple(graph.shape(out))
    dtypes = None
    for p, t in enumerate(node.inputs):
        if (p in viewed or not returns_fresh(kernel_of.get(t))
                or len(consumers.get(t, ())) != 1 or t in outputs
                or tuple(graph.shape(t)) != shape):
            continue
        if dtypes is None:
            dtypes = {np.dtype(graph.tensors[name].dtype.numpy_dtype)
                      for name in (*node.inputs, out)}
            if len(dtypes) != 1 or next(iter(dtypes)).kind != "f":
                return None, None
        kernel = bind_in_place(node.op_type, node.attrs, p, len(shape))
        if kernel is not None:
            return p, kernel
    return None, None


def lower(graph: Graph) -> ExecutionProgram:
    """Lower ``graph`` to an :class:`ExecutionProgram`.

    Memoized per graph generation through the graph's analysis cache:
    repeated calls (the executor, the verifier, every session serving
    this graph) share one lowering until the next structural mutation.
    The memo fills through :func:`fill_once`, so two threads lowering
    the same graph at once get one program - one ``backend_cache``.
    """
    return fill_once(graph.analysis_cache(), _PROGRAM_CACHE_KEY, _lower,
                     graph)


def _lower(graph: Graph) -> ExecutionProgram:
    order = graph.topo_order()
    schedule = liveness_schedule(graph)
    groups: dict[int, list[int]] = {}
    for i, node in enumerate(order):
        if node.group is not None:
            groups.setdefault(node.group, []).append(i)
    tensors = graph.tensors
    materialized = schedule.materialized
    plan = _assign_slots(
        graph.inputs,
        (([t for t in node.outputs if t in materialized], drops)
         for node, drops in zip(order, schedule.value_drops_at)),
        lambda t: tensors[t].size_bytes)
    graph_inputs = set(graph.inputs)
    graph_outputs = set(graph.outputs)
    consumers = graph.consumer_map()
    kernel_of: dict[str, Callable] = {}  # step output -> its kernel
    packed: dict[str, str] = {}  # dense weight -> its packed value name

    def make_step(i: int, node) -> Step:
        views = tuple(
            (idx, view)
            for idx, view in sorted(node.input_views.items())
            if not view.is_identity)
        view_shapes = {idx: tuple(view.out_shape) for idx, view in views}
        arg_shapes = tuple(
            view_shapes.get(idx, tuple(graph.shape(t)))
            for idx, t in enumerate(node.inputs))
        arg_dtypes = tuple(np.dtype(tensors[t].dtype.numpy_dtype)
                           for t in node.inputs)
        arg_itemsizes = tuple(dtype.itemsize for dtype in arg_dtypes)
        out_shapes = tuple(graph.shape(t) for t in node.outputs)
        out_dtypes = tuple(np.dtype(tensors[t].dtype.numpy_dtype)
                           for t in node.outputs)
        out_itemsizes = tuple(dtype.itemsize for dtype in out_dtypes)
        reads, writes, flops = step_traffic(
            node.op_type, node.attrs, arg_shapes, arg_itemsizes,
            out_shapes, out_itemsizes)

        run_kernel = get_kernel(node.op_type)
        arg_names = tuple(node.inputs)
        scratch_bytes = arena_bytes = 0
        if node.op_type == "dense":
            # The weight's layout is decided here, not per request: a
            # parameter read as it is (no producer, not an input, no
            # view) is bound to its (K, N) GEMM operand, materialised
            # once per cell.  Anything else packs per call.
            w = arg_names[1]
            if (tensors[w].is_param and w not in graph_inputs
                    and graph.producer(w) is None and 1 not in view_shapes):
                run_kernel = dense_packed
                name = packed.setdefault(w, f"{w}@kn")
                arg_names = (arg_names[0], name) + arg_names[2:]
        elif node.op_type == "conv2d":
            # Bind the step to a statically planned im2col scratch: the
            # padded-input buffer is owned by the step (a
            # reusable-scratch class on the slot plan) and reused across
            # every run; the columns are the step's demand on the
            # per-thread arena.
            run_kernel, scratch = bind_conv2d(
                arg_shapes[0], arg_shapes[1], node.attrs, node.id)
            scratch_bytes = scratch.pad_bytes(arg_itemsizes[0])
            arena_bytes = scratch.cols_bytes(arg_itemsizes[0])
        elif node.op_type == "layout_convert":
            # Copy elision: when the converted value is a pool interior
            # dying at this very step, nothing else will ever read it -
            # pass it through if already contiguous, else compact it.
            # Graph inputs/params keep the alias-free reference kernel
            # (the caller's arrays must never be returned).
            src = node.inputs[0]
            if (src in materialized and src not in graph_inputs
                    and src in schedule.value_drops_at[i]):
                run_kernel = layout_convert_elided
        elif node.op_type in native.MAX_AFFINE:  # layernorm, rmsnorm
            # A certified native kernel, where one holds for the step's
            # exact (op, D, affine operands, eps); the reference otherwise.
            run_kernel = native.bind(node.op_type, node.attrs, arg_shapes,
                                     arg_dtypes, out_dtypes[0]) or run_kernel
        owned, in_place = _owned_operand(graph, node, view_shapes,
                                         kernel_of, consumers, graph_outputs)
        if in_place is not None:
            run_kernel = in_place
        for t in node.outputs:
            kernel_of[t] = run_kernel

        return Step(
            node_id=node.id,
            op_type=node.op_type,
            kernel=run_kernel,
            arg_names=arg_names,
            views=views,
            attrs=node.attrs,
            out_names=tuple(node.outputs),
            out_shapes=out_shapes,
            drops=tuple(schedule.value_drops_at[i]),
            bytes_read=reads,
            bytes_written=writes,
            flops=flops,
            scratch_bytes=scratch_bytes,
            arena_bytes=arena_bytes,
            owned=owned,
        )

    steps = tuple(make_step(i, node) for i, node in enumerate(order))
    still_read = set(graph.outputs).union(*(s.arg_names for s in steps))
    return ExecutionProgram(
        graph, steps, plan.with_scratch(steps),
        fused_chains=tuple(
            tuple(members) for members in groups.values()
            if len(members) >= 2),
        packs=tuple((name, w, w in still_read)
                    for w, name in packed.items()))

