"""The computational graph: a DAG of operator nodes over named tensors.

The optimizer communicates through three kinds of graph annotations:

* ``Node.group`` - fusion group id.  Nodes sharing a group execute as one
  kernel; operator counts reported in Table 7 are *group* counts.
* ``Node.input_views`` - residual index computation (a ViewChain) attached
  to a node input after layout transformation elimination removed explicit
  Reshape/Transpose producers.
* ``Graph.tensor_layouts`` - the physical layout selected for each tensor
  by layout selection / texture mapping.

Grouping and views never change numerics: the reference executor runs the
primitive nodes one by one (applying input views first), so any optimized
graph can be verified bit-for-bit against the original.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .dtype import DType
from .layout import Layout
from .ops import get_op
from .tensor import Shape, TensorSpec
from .view import ViewChain


class GraphError(ValueError):
    """Raised when a graph is malformed or a rewrite is illegal."""


@dataclass
class Node:
    """One operator application."""

    id: str
    op_type: str
    inputs: list[str]
    outputs: list[str]
    attrs: dict = field(default_factory=dict)
    input_views: dict[int, ViewChain] = field(default_factory=dict)
    group: int | None = None

    @property
    def opdef(self):
        return get_op(self.op_type)

    def view_for(self, idx: int, in_shape: Shape) -> ViewChain:
        """The (possibly identity) view applied to input ``idx``."""
        return self.input_views.get(idx, ViewChain.identity(in_shape))


class Graph:
    """A static, single-static-assignment computational graph."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.tensors: dict[str, TensorSpec] = {}
        self.nodes: dict[str, Node] = {}
        self._order: list[str] = []
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.tensor_layouts: dict[str, Layout] = {}
        self._producer: dict[str, str] = {}
        self._id_counter = itertools.count()
        self._consumer_cache: dict[str, list[tuple[str, int]]] | None = None
        self._topo_cache: list[str] | None = None
        self._generation = 0
        self._analysis_cache: dict = {}

    # -- caching -------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic counter bumped on every structural mutation.

        Derived analyses keyed on (graph identity, generation) are safe to
        memoize: any mutation routed through :meth:`_invalidate` makes the
        old key unreachable.
        """
        return self._generation

    def _invalidate(self, *, keep_consumers: bool = False) -> None:
        """Single mutation hook: drop every derived cache.

        All structural mutations (``add_tensor``/``add_node``/
        ``remove_node``/``replace_input``/...) funnel through here, so a
        cache can never survive a mutation it should have observed.

        ``keep_consumers`` is passed only by the three mutators that patch
        the consumer map in place with the exact edge delta they applied;
        rebuilding it wholesale there would make the rewrite passes
        quadratic.
        """
        self._generation += 1
        self._topo_cache = None
        if not keep_consumers:
            self._consumer_cache = None
        if self._analysis_cache:
            self._analysis_cache.clear()

    def analysis_cache(self) -> dict:
        """Per-graph scratch space for memoized analyses.

        Entries live until the next structural mutation.  Values stored
        here must be treated as immutable by callers.
        """
        return self._analysis_cache

    def fingerprint(self) -> str:
        """Stable content hash of the graph: structure, tensor specs, and
        optimizer annotations (groups, views, layouts).

        Two graphs built the same way fingerprint identically whatever
        their object identity, so the compile cache keyed on the
        fingerprint survives a user rebuilding the same model.  Memoized
        per generation (any structural mutation recomputes it).
        """
        found = self._analysis_cache.get("fingerprint")
        if found is None:
            from .serialize import graph_to_json

            payload = json.dumps(graph_to_json(self), sort_keys=True,
                                 default=str)
            found = hashlib.sha256(payload.encode()).hexdigest()
            self._analysis_cache["fingerprint"] = found
        return found

    # -- construction --------------------------------------------------------

    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        if spec.name in self.tensors:
            raise GraphError(f"tensor {spec.name!r} already defined")
        self.tensors[spec.name] = spec
        self._invalidate()
        return spec

    def add_input(self, name: str, shape: Iterable[int], dtype: DType = DType.FP16) -> TensorSpec:
        spec = self.add_tensor(TensorSpec(name, tuple(shape), dtype))
        self.inputs.append(name)
        return spec

    def add_param(self, name: str, shape: Iterable[int], dtype: DType = DType.FP16) -> TensorSpec:
        return self.add_tensor(TensorSpec(name, tuple(shape), dtype, is_param=True))

    def mark_output(self, name: str) -> None:
        if name not in self.tensors:
            raise GraphError(f"cannot mark unknown tensor {name!r} as output")
        if name not in self.outputs:
            self.outputs.append(name)
            self._invalidate()

    def fresh_id(self, prefix: str) -> str:
        return f"{prefix}_{next(self._id_counter)}"

    def add_node(
        self,
        op_type: str,
        inputs: list[str],
        outputs: list[str],
        attrs: dict | None = None,
        node_id: str | None = None,
    ) -> Node:
        """Append a node; output tensor specs must already exist."""
        opdef = get_op(op_type)
        if not opdef.min_inputs <= len(inputs) <= opdef.max_inputs:
            raise GraphError(
                f"{op_type} takes {opdef.min_inputs}..{opdef.max_inputs} inputs, "
                f"got {len(inputs)}"
            )
        for name in inputs:
            if name not in self.tensors:
                raise GraphError(f"node input {name!r} is not defined")
        for name in outputs:
            if name not in self.tensors:
                raise GraphError(f"node output {name!r} is not defined")
            if name in self._producer:
                raise GraphError(f"tensor {name!r} already has a producer")
        node_id = node_id or self.fresh_id(op_type)
        if node_id in self.nodes:
            raise GraphError(f"node id {node_id!r} already used")
        node = Node(node_id, op_type, list(inputs), list(outputs), dict(attrs or {}))
        self.nodes[node_id] = node
        self._order.append(node_id)
        for name in outputs:
            self._producer[name] = node_id
        if self._consumer_cache is not None:
            for idx, name in enumerate(node.inputs):
                self._consumer_cache.setdefault(name, []).append((node_id, idx))
        self._invalidate(keep_consumers=True)
        return node

    # -- queries --------------------------------------------------------------

    def producer(self, tensor: str) -> Node | None:
        node_id = self._producer.get(tensor)
        return self.nodes[node_id] if node_id is not None else None

    def _consumer_map(self) -> dict[str, list[tuple[str, int]]]:
        if self._consumer_cache is None:
            cache: dict[str, list[tuple[str, int]]] = {}
            for node_id in self._order:
                for idx, name in enumerate(self.nodes[node_id].inputs):
                    cache.setdefault(name, []).append((node_id, idx))
            self._consumer_cache = cache
        return self._consumer_cache

    def consumers(self, tensor: str) -> list[tuple[Node, int]]:
        """All (node, input_index) pairs reading ``tensor``."""
        return [(self.nodes[node_id], idx)
                for node_id, idx in self._consumer_map().get(tensor, ())]

    def consumer_map(self) -> dict[str, list[tuple[str, int]]]:
        """tensor -> [(consumer node id, input index), ...] for the whole
        graph; treat as read-only.  Hot paths that visit every edge use
        this instead of per-tensor :meth:`consumers` calls."""
        return self._consumer_map()

    @property
    def producer_ids(self) -> dict[str, str]:
        """tensor -> producer node id; treat as read-only."""
        return self._producer

    def topo_order(self) -> list[Node]:
        """Nodes in dependency order (validates acyclicity).

        Computed once per graph generation with Kahn's algorithm (O(V+E))
        and cached; structural mutations invalidate the cache through
        :meth:`_invalidate`.  The order reproduces the historical
        repeated-scan order exactly: nodes are grouped by the scan round
        in which they became ready, insertion order within a round, where
        a node whose producer precedes it in insertion order becomes
        ready in the producer's own round (the scan marked outputs ready
        mid-round).
        """
        if self._topo_cache is None:
            self._topo_cache = self._compute_topo_order()
        nodes = self.nodes
        return [nodes[node_id] for node_id in self._topo_cache]

    def _compute_topo_order(self) -> list[str]:
        ready = set(self.inputs)
        # Parameters and interior constants (const_value tensors with no
        # producer) are available before any node runs.
        ready.update(
            t for t, s in self.tensors.items()
            if s.is_param or (s.const_value is not None
                              and t not in self._producer))
        # Per-occurrence dependency edges: an input that is ready from the
        # start is satisfied; one with a producer waits on that node; one
        # that is neither can never be satisfied (undefined input).
        pending: dict[str, int] = {}
        waiters: dict[str, list[str]] = {}
        pos = {node_id: i for i, node_id in enumerate(self._order)}
        for node_id in self._order:
            count = 0
            for name in self.nodes[node_id].inputs:
                if name in ready:
                    continue
                count += 1
                if name in self._producer:
                    waiters.setdefault(name, []).append(node_id)
            pending[node_id] = count
        round_of: dict[str, int] = dict.fromkeys(self._order, 0)
        queue: deque[str] = deque()
        for node_id in self._order:
            if pending[node_id] == 0:
                queue.append(node_id)
        emitted = 0
        while queue:
            node_id = queue.popleft()
            emitted += 1
            node_round = round_of[node_id]
            node_pos = pos[node_id]
            for out in self.nodes[node_id].outputs:
                if out in ready:
                    continue
                for waiter in waiters.get(out, ()):
                    pending[waiter] -= 1
                    # A waiter scanned after this producer in the same
                    # round already sees the output ready; one scanned
                    # before it must wait for the next round.
                    cand = node_round if node_pos < pos[waiter] else node_round + 1
                    if round_of[waiter] < cand:
                        round_of[waiter] = cand
                    if pending[waiter] == 0:
                        queue.append(waiter)
        if emitted < len(self._order):
            stuck = [n for n in self._order if pending[n] > 0]
            raise GraphError(f"graph has a cycle or undefined inputs near {stuck[:5]}")
        buckets: list[list[str]] = [
            [] for _ in range(max(round_of.values(), default=-1) + 1)]
        for node_id in self._order:
            buckets[round_of[node_id]].append(node_id)
        return [node_id for bucket in buckets for node_id in bucket]

    def shape(self, tensor: str) -> Shape:
        return self.tensors[tensor].shape

    def iter_nodes(self) -> Iterator[Node]:
        for node_id in self._order:
            yield self.nodes[node_id]

    @property
    def num_operators(self) -> int:
        """Operator count after grouping: one per fusion group.

        Ungrouped nodes count individually; this is the quantity the paper
        reports in Table 7.
        """
        groups = set()
        singles = 0
        for node in self.iter_nodes():
            if node.group is None:
                singles += 1
            else:
                groups.add(node.group)
        return singles + len(groups)

    @property
    def num_params(self) -> int:
        return sum(s.num_elements for s in self.tensors.values() if s.is_param)

    def total_macs(self) -> int:
        total = 0
        for node in self.iter_nodes():
            # kernels observe input shapes through their views
            ins = [node.view_for(i, self.shape(t)).out_shape
                   for i, t in enumerate(node.inputs)]
            outs = [self.shape(t) for t in node.outputs]
            total += node.opdef.macs(ins, outs, node.attrs)
        return total

    def count_op_types(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.iter_nodes():
            counts[node.op_type] = counts.get(node.op_type, 0) + 1
        return counts

    # -- rewriting --------------------------------------------------------------

    def remove_node(self, node_id: str) -> None:
        """Delete a node whose outputs are no longer referenced."""
        node = self.nodes[node_id]
        for out in node.outputs:
            for consumer, _ in self.consumers(out):
                raise GraphError(
                    f"cannot remove {node_id}: output {out!r} still read by "
                    f"{consumer.id}"
                )
            if out in self.outputs:
                raise GraphError(f"cannot remove {node_id}: {out!r} is a graph output")
        for out in node.outputs:
            del self._producer[out]
            del self.tensors[out]
            self.tensor_layouts.pop(out, None)
        del self.nodes[node_id]
        self._order.remove(node_id)
        if self._consumer_cache is not None:
            for out in node.outputs:
                self._consumer_cache.pop(out, None)
            for name in set(node.inputs):
                entries = self._consumer_cache.get(name)
                if entries is not None:
                    self._consumer_cache[name] = [
                        e for e in entries if e[0] != node_id]
        self._invalidate(keep_consumers=True)

    def replace_input(self, node: Node, idx: int, new_tensor: str) -> None:
        if new_tensor not in self.tensors:
            raise GraphError(f"replacement tensor {new_tensor!r} not defined")
        old = node.inputs[idx]
        node.inputs[idx] = new_tensor
        if self._consumer_cache is not None:
            entries = self._consumer_cache.get(old)
            if entries is not None:
                self._consumer_cache[old] = [
                    e for e in entries if e != (node.id, idx)]
            self._consumer_cache.setdefault(new_tensor, []).append((node.id, idx))
        self._invalidate(keep_consumers=True)

    def clone(self) -> "Graph":
        """Deep structural copy (annotations included)."""
        g = Graph(self.name)
        g.tensors = dict(self.tensors)
        g.inputs = list(self.inputs)
        g.outputs = list(self.outputs)
        g.tensor_layouts = dict(self.tensor_layouts)
        for node in self.iter_nodes():
            copy = Node(
                node.id, node.op_type, list(node.inputs), list(node.outputs),
                dict(node.attrs), dict(node.input_views), node.group,
            )
            g.nodes[copy.id] = copy
            g._order.append(copy.id)
            for out in copy.outputs:
                g._producer[out] = copy.id
        g._id_counter = itertools.count(
            max((int(n.rsplit("_", 1)[-1]) for n in self.nodes
                 if n.rsplit("_", 1)[-1].isdigit()), default=-1) + 1)
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Graph({self.name!r}, nodes={len(self.nodes)}, "
                f"tensors={len(self.tensors)})")
