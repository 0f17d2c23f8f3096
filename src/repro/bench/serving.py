"""The ``serve`` section of ``BENCH_pipeline.json``: a static walk and a
same-process ratio.

Written by ``python -m repro.bench --all --timings``.  Neither part is
evidence for a serving-performance claim - that is ``benchmarks/perf``
(open-loop arrivals, alternating parent/change pairs):

* :func:`measure_roofline` - per smoke model and kernel family, the
  static traffic stamps ``lower()`` computed from tensor specs next to
  the measured per-step walls of one walk over the per-step closures
  (:attr:`~repro.runtime.program.ExecutionProgram.op_list`);
* :func:`measure_symbolic` - first request at a new in-bucket shape vs a
  cold concrete compile, both timed in this process, reported as a
  ratio.
"""

from __future__ import annotations

import time

from ..models import SMOKE_CONFIGS, build_smoke
from ..runtime.faults import FaultPlan
from ..runtime.session import _admit, _compile_session
from ..runtime.traffic import FAMILIES, family
from .harness import clear_cell_cache


def measure_serving() -> dict:
    """The ``serve`` section: roofline walk plus symbolic-shape ratio."""
    return {"roofline": measure_roofline(), "symbolic": measure_symbolic()}


def measure_roofline(models: tuple[str, ...] | None = None,
                     repeats: int = 5) -> dict:
    """Per-model roofline report: measured time vs static traffic per
    kernel family, for *every* smoke model.

    The measured side walks the lowered program's per-step closures
    (:attr:`~repro.runtime.program.ExecutionProgram.op_list`: serving
    runs the emitted function, which cannot be timed per step) and
    keeps the best-of-``repeats`` wall per step; the static side is
    the :meth:`~repro.runtime.program.ExecutionProgram.roofline`
    aggregation of the per-step traffic stamps ``lower()`` computed from
    tensor specs.  Together they say, per family, how much wall time
    rides on how many bytes moved at what arithmetic intensity - the
    nnfusion-Table-6-style evidence the next kernel PR is aimed with.
    ``us_per_step`` sits beside ``intensity`` because a low intensity
    alone reads "bandwidth-bound" even when the wall is Python dispatch:
    a family whose steps cost tens of microseconds while moving a few KB
    is call-bound, whatever its FLOP/byte.  ``gflops_per_s`` (static FLOPs
    over that measured wall) is the other half of the check: a family
    is BLAS-bound only if it runs near what a bare ``np.matmul`` reaches
    at the same shapes on the same host.
    Fusion/scratch counters ride along so the report also shows the
    compiler's fusion groups (``fused_chains``: groups of two or more
    steps; ``fused_steps``: their interiors) and what one thread
    holds for the GEMM conv (``scratch_kb``: every padded buffer plus
    the widest column matrix, which the shared arena serves).
    """
    perf = time.perf_counter
    if models is None:
        models = tuple(sorted(SMOKE_CONFIGS))
    per_model = {}
    for name in models:
        graph = build_smoke(name)
        session = _compile_session(graph, "Ours")
        program = session.program
        base = dict(session._params)
        base.update(session.make_inputs())
        op_list = program.op_list
        best = [float("inf")] * len(op_list)
        for _ in range(repeats + 1):  # first pass warms caches/scratch
            values = dict(base)
            for i, (execute, drops) in enumerate(op_list):
                start = perf()
                execute(values)
                wall = perf() - start
                if wall < best[i]:
                    best[i] = wall
                for t in drops:
                    values.pop(t, None)
        fam_time: dict[str, float] = {}
        for step, wall in zip(program.steps, best):
            key = family(step.op_type)
            fam_time[key] = fam_time.get(key, 0.0) + wall
        static = program.roofline()
        families = {}
        for key in FAMILIES:
            entry = static.get(key)
            if entry is None:
                continue
            moved = entry["bytes_read"] + entry["bytes_written"]
            wall = fam_time.get(key, 0.0)
            families[key] = {
                "steps": entry["steps"],
                "time_ms": round(wall * 1e3, 4),
                "mb_moved": round(moved / 1e6, 3),
                "mflops": round(entry["flops"] / 1e6, 3),
                "intensity": entry["intensity"],
                "us_per_step": round(wall * 1e6 / entry["steps"], 2),
                "gflops_per_s": round(entry["flops"] / wall / 1e9, 2)
                if wall else 0.0,
            }
        plan = program.slot_plan
        per_model[name] = {
            "steps": program.num_steps,
            "slots": plan.num_slots,
            "fused_chains": len(program.fused_chains),
            "fused_steps": program.fused_step_count,
            "scratch_kb": round(plan.scratch_bytes / 1024, 1),
            "run_ms": round(sum(best) * 1e3, 4),
            "families": families,
        }
    return {"repeats": repeats, "models": per_model}


#: Models measured by the symbolic-shape benchmark (batch-stackable
#: transformer smoke configs - the shape-polymorphic serving regime).
SYMBOLIC_MODELS = ("Pythia", "ViT")


def measure_symbolic(models: tuple[str, ...] = SYMBOLIC_MODELS,
                     max_extent: int = 8, repeats: int = 3) -> dict:
    """First-request latency at a *new* shape: symbolic vs cold compile.

    A model compiled once with a symbolic leading dim
    (``signature={input: (None, ...)}, max_extent=N``) serves any
    extent in ``1..N``; after one request warms a bucket, the first
    request at a *different* extent inside that bucket reuses the
    bucket's compiled variant and warmed pool - no lowering, no
    codegen, no pool growth.  The baseline pays what serving that shape
    without symbolic compilation costs: a fresh concrete compile (the
    content-addressed compile cache is cleared first, so it is cold)
    plus its first request.  Every per-model ``speedup`` is the >= 10x ratio
    ``tests/test_symbolic.py`` enforces.
    """
    import numpy as np

    clear_cell_cache()
    perf = time.perf_counter
    per_model = {}
    best = 0.0
    bucket_lo = max_extent // 2 + 1  # extents the top bucket serves
    for name in models:
        graph = build_smoke(name)
        signature = {
            input_name: (None,) + tuple(graph.tensors[input_name].shape)[1:]
            for input_name in graph.inputs}
        session = _compile_session(
            build_smoke(name), "Ours", faults=FaultPlan(),
            signature=signature, max_extent=max_extent)
        base = session.make_inputs(seed=0)

        def inputs_at(extent):
            return {key: np.resize(value, (extent,) + value.shape[1:])
                    for key, value in base.items()}

        # One request warms the top bucket (compiles its variant, warms
        # its pool); every later extent in the bucket is a new shape.
        session.execute_values([_admit(session, inputs_at(bucket_lo))])
        symbolic_walls = []
        for extent in range(bucket_lo + 1, max_extent + 1):
            admitted = _admit(session, inputs_at(extent))
            start = perf()
            session.execute_values([admitted])
            symbolic_walls.append(perf() - start)
        symbolic_ms = min(symbolic_walls) * 1e3

        cold_walls = []
        for index in range(repeats):
            extent = bucket_lo + 1 + index % (max_extent - bucket_lo)
            cold_graph = build_smoke(name, batch=extent)
            start = perf()
            cold = _compile_session(cold_graph, "Ours", faults=FaultPlan())
            cold.execute_values([_admit(cold, cold.make_inputs(seed=0))])
            cold_walls.append(perf() - start)
        cold_ms = min(cold_walls) * 1e3

        speedup = cold_ms / symbolic_ms if symbolic_ms else 0.0
        best = max(best, speedup)
        per_model[name] = {
            "max_extent": max_extent,
            "new_shape_request_ms": round(symbolic_ms, 4),
            "cold_compile_request_ms": round(cold_ms, 4),
            "speedup": round(speedup, 2),
            # exact-extent bucket variants only: (factor, per-request rows)
            "buckets_compiled": sum(
                not per_request_rows for _, per_request_rows in
                session.program.backend_cache.get("batching.variants", {})),
        }
    return {
        "models": per_model,
        "best_speedup": round(best, 2),
    }
