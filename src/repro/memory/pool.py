"""Intermediate-tensor memory pool (Section 4.6).

"Similar to TVM, our implementation allocates intermediate results from a
memory pool allowing efficient reuse of memory resources by releasing
data copies back into the pool when they are no longer needed by any
consumers."  The pool tracks per-step usage, peak footprint, and - for
the redundant-copy analysis - the maximum concurrently-live redundant
copy bytes (the 3.0 MB / 2.3 MB numbers the paper reports for Swin/ViT).

The liveness walk is shared with the lowering
(:func:`repro.runtime.program.lower`): :func:`liveness_schedule`
precomputes, per execution step, which tensors are materialized
(the boundaries of the compiler's fusion groups) and which die, and the
lowering's static slot plan is one replay of it - a fact of the
program, identical for every request and every process, never
re-walked at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.layout_selection import LayoutPlan
from ..ir.graph import Graph


@dataclass
class PoolEvent:
    step: int
    live_bytes: int
    live_copy_bytes: int


@dataclass
class PoolReport:
    peak_bytes: int
    peak_copy_bytes: int
    final_bytes: int
    timeline: list[PoolEvent] = field(default_factory=list)
    allocations: int = 0
    reuses: int = 0
    total_allocated_bytes: int = 0
    """Sum of all allocation requests (materialized intermediate traffic);
    eliminating kernels reduces this directly (Section 4.6)."""


class MemoryPool:
    """Block-reusing allocator: freed blocks satisfy later requests."""

    def __init__(self) -> None:
        self._free: list[int] = []  # free block sizes
        self.live_bytes = 0
        self.peak_bytes = 0
        self.allocations = 0
        self.reuses = 0

    def allocate(self, size: int) -> None:
        # best-fit over free blocks (first block >= size in sorted order)
        self._free.sort()
        for i, block in enumerate(self._free):
            if block >= size:
                del self._free[i]
                self.reuses += 1
                self.live_bytes += size
                # leftover fragment returns to the pool
                if block > size:
                    self._free.append(block - size)
                self.peak_bytes = max(self.peak_bytes, self.live_bytes)
                return
        self.allocations += 1
        self.live_bytes += size
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)

    def release(self, size: int) -> None:
        self.live_bytes -= size
        self._free.append(size)


def is_materialized(graph: Graph, tensor: str) -> bool:
    """Whether ``tensor`` hits the memory pool at all.

    Only group-boundary tensors are materialized: values internal to a
    fused kernel live in registers/local memory and never touch the pool.
    This is the one fusion decision: the cost model, :func:`simulate_pool`
    and the runtime's slot plan (which slots exactly the graph inputs and
    these values) all read it.
    """
    producer = graph.producer(tensor)
    if producer is None or producer.group is None:
        return True
    if tensor in graph.outputs:
        return True
    return any(c.group != producer.group for c, _ in graph.consumers(tensor))


@dataclass
class LivenessSchedule:
    """Per-step allocation/release plan for one graph execution order."""

    num_steps: int
    materialized: frozenset[str]
    last_use: dict[str, int]
    releases_at: list[list[str]]
    """Step -> materialized non-param intermediates that die at that step
    (graph outputs excluded: their values leave the graph)."""
    value_drops_at: list[list[str]]
    """Step -> *every* non-param, non-output tensor that dies at that
    step, including fusion-group-internal values that never touch the
    pool; executors drop the backing ndarrays here so process memory is
    bounded by the live set, not the whole graph."""


def liveness_schedule(graph: Graph) -> LivenessSchedule:
    """Precompute the pool walk for ``graph``'s execution order."""
    order = graph.topo_order()
    materialized = frozenset(
        t for node in order for t in node.outputs if is_materialized(graph, t))

    last_use: dict[str, int] = {}
    for step, node in enumerate(order):
        for t in node.inputs:
            last_use[t] = step
    for t in graph.outputs:
        last_use[t] = len(order)

    releases_at: list[list[str]] = [[] for _ in order]
    value_drops_at: list[list[str]] = [[] for _ in order]
    for step, node in enumerate(order):
        # First-seen order, not a set: executors drop (and the slot plan
        # frees) in this order, so it must not depend on string hashing.
        for t in dict.fromkeys((*node.inputs, *node.outputs)):
            spec = graph.tensors.get(t)
            if spec is None or spec.is_param or t in graph.outputs:
                continue
            if last_use.get(t) != step:
                continue
            value_drops_at[step].append(t)
            if t in materialized or graph.producer(t) is None:
                releases_at[step].append(t)
    return LivenessSchedule(
        num_steps=len(order),
        materialized=materialized,
        last_use=last_use,
        releases_at=releases_at,
        value_drops_at=value_drops_at,
    )


def simulate_pool(graph: Graph, plan: LayoutPlan | None = None) -> PoolReport:
    """Walk the graph in execution order, allocating/releasing activations.

    Redundant copies from the layout plan are allocated alongside their
    primary tensor and released at the same point; their concurrent live
    footprint is tracked separately (``peak_copy_bytes``).
    """
    plan = plan or LayoutPlan()
    order = graph.topo_order()
    schedule = liveness_schedule(graph)
    materialized = schedule.materialized

    pool = MemoryPool()
    live_copy = 0
    peak_copy = 0
    total_allocated = 0
    timeline: list[PoolEvent] = []

    def copy_bytes(tensor: str) -> int:
        return graph.tensors[tensor].size_bytes * len(plan.copies.get(tensor, ()))

    for t in graph.inputs:
        pool.allocate(graph.tensors[t].size_bytes)
    for step, node in enumerate(order):
        for t in node.outputs:
            if t not in materialized:
                continue
            pool.allocate(graph.tensors[t].size_bytes + copy_bytes(t))
            total_allocated += graph.tensors[t].size_bytes + copy_bytes(t)
            live_copy += copy_bytes(t)
        peak_copy = max(peak_copy, live_copy)
        timeline.append(PoolEvent(step, pool.live_bytes, live_copy))
        for t in schedule.releases_at[step]:
            pool.release(graph.tensors[t].size_bytes + copy_bytes(t))
            live_copy -= copy_bytes(t)

    return PoolReport(
        peak_bytes=pool.peak_bytes,
        peak_copy_bytes=peak_copy,
        final_bytes=pool.live_bytes,
        timeline=timeline,
        allocations=pool.allocations,
        reuses=pool.reuses,
        total_allocated_bytes=total_allocated,
    )
