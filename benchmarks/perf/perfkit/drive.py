"""How the benchmark calls the program: graphs and option objects.

Shared by the measuring windows and the layer replay so that both drive
exactly the same compiled configuration.
"""

from __future__ import annotations

import os

import numpy as np

import repro
from repro.models import build, build_smoke

from . import spec


def build_graph(model: str, config: dict | None):
    return build(model, **config) if config else build_smoke(model)


def graph_signature(graph) -> tuple:
    """``(name, shape, dtype)`` per graph input, from the graph alone."""
    return tuple(
        (name, tuple(graph.shape(name)),
         np.dtype(graph.tensors[name].dtype.numpy_dtype))
        for name in graph.inputs)


def worker_count() -> int:
    return max(1, (os.cpu_count() or 1) - 1)


def compile_options(workload: spec.Workload, graph, backend: str):
    symbolic = {}
    if workload.max_extent:
        symbolic = dict(
            signature={name: (None,) + tuple(graph.shape(name))[1:]
                       for name in graph.inputs},
            max_extent=workload.max_extent)
    return repro.CompileOptions(backend=backend, workers=worker_count(),
                                **symbolic)


def serve_options(workload: spec.Workload, graph):
    return repro.ServeOptions(
        max_batch_size=spec.MAX_BATCH_SIZE, max_wait_ms=spec.MAX_WAIT_MS,
        compile=compile_options(workload, graph, workload.backend))
