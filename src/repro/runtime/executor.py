"""Reference executor: runs a graph with NumPy.

Purpose: *semantic verification* of optimizer rewrites.  Input views
attached by layout transformation elimination are applied before each
kernel runs; fusion groups are ignored (grouping does not change values).
The test suite runs :func:`~repro.runtime.verify.verify_equivalence` over
``(original, optimized)`` on every model.

Execution itself goes through the lowered-program path
(:mod:`repro.runtime.program`): :func:`execute` lowers the graph once per
generation and runs its emitted function - the same path the serving
session and the verifier use.  :func:`run_node` remains as the
single-node reference step: interpreting a graph node by node through it
is the independent reference the tests hold the lowering to.
"""

from __future__ import annotations

import numpy as np

from ..api.errors import ExecutionError
from ..ir.dtype import DType
from ..ir.graph import Graph, Node
from .kernels import get_kernel, pack


def make_inputs(graph: Graph, seed: int = 0) -> dict[str, np.ndarray]:
    """Deterministic random inputs (and parameters) for a graph.

    Covers graph inputs, parameters, and *interior constants*: tensors
    carrying a ``const_value`` that are neither inputs nor parameters but
    have no producer (e.g. an epsilon table spliced in by a rewrite).
    Constants are filled with ``np.full`` and never consume random state,
    so adding one to a graph does not perturb the other values.
    """
    rng = np.random.default_rng(seed)
    values: dict[str, np.ndarray] = {}
    for name, spec in graph.tensors.items():
        if spec.is_param or name in graph.inputs:
            if spec.const_value is not None:
                values[name] = np.full(spec.shape, spec.const_value,
                                       dtype=spec.dtype.numpy_dtype)
            elif spec.dtype in (DType.INT32, DType.INT64):
                values[name] = rng.integers(
                    0, 8, size=spec.shape).astype(spec.dtype.numpy_dtype)
            else:
                values[name] = rng.standard_normal(spec.shape).astype(
                    spec.dtype.numpy_dtype) * 0.1
        elif spec.const_value is not None and graph.producer(name) is None:
            values[name] = np.full(spec.shape, spec.const_value,
                                   dtype=spec.dtype.numpy_dtype)
    return values


def make_params(graph: Graph) -> dict[str, np.ndarray]:
    """The non-input half of ``make_inputs(graph, seed=0)`` - parameters
    and interior constants - as *read-only* arrays: they are shared by
    every request, and by every session of one compiled cell, so an
    in-place kernel that ever aliased one must fail loudly.

    Keyed the way the lowered program reads them: every ``dense`` weight
    ``lower()`` bound to its GEMM layout appears under its packed name,
    packed here once, and its ``(N, K)`` source is kept only when
    something else still reads it (tied weights) - the pack replaces the
    source, so the parameters cost the same bytes as before."""
    from .program import lower

    params = {name: value
              for name, value in make_inputs(graph, seed=0).items()
              if name not in graph.inputs}
    for packed, source, source_read in lower(graph).packs:
        weight = params[source] if source_read else params.pop(source)
        params[packed] = pack(weight)
    for value in params.values():
        value.setflags(write=False)
    # Re-built compact: the pops left holes, and every admission copies
    # this dict - a holey one takes CPython's per-item slow path.
    return dict(params)


def run_node(graph: Graph, node: Node, values: dict[str, np.ndarray]) -> None:
    """Execute one node: apply input views, run the kernel, store outputs."""
    args = []
    for idx, name in enumerate(node.inputs):
        value = values[name]
        view = node.input_views.get(idx)
        if view is not None:
            value = view.apply(value)
        args.append(value)
    result = get_kernel(node.op_type)(args, node.attrs)
    outputs = result if isinstance(result, (tuple, list)) else (result,)
    for out_name, out_value in zip(node.outputs, outputs):
        expected = graph.shape(out_name)
        if tuple(out_value.shape) != expected:
            raise ExecutionError(
                f"kernel {node.op_type} ({node.id}) produced shape "
                f"{out_value.shape}, spec says {expected}"
            )
        values[out_name] = out_value


def execute(graph: Graph, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Run the graph; returns values of the graph outputs.

    Lowered once per graph generation (memoized on the graph's analysis
    cache) and run on the in-process runner - the same
    :class:`~repro.runtime.program.ExecutionProgram` path the serving
    session uses.
    """
    from .codegen_backend import get_backend
    from .program import lower

    return get_backend("numpy").run(lower(graph), dict(inputs))
