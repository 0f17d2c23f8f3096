"""Steady-state serving benchmark: lowered program vs. interpreter loop.

Measures, per smoke-scale registry model, the steady-state wall time of
``Session.run()`` (the lowered :class:`~repro.runtime.program.ExecutionProgram`
path) against a frozen replica of the PR-2 per-node interpreter loop on
the *same* compiled graph and the *same* reference kernels.  The result
lands in the ``serve`` section of ``BENCH_pipeline.json`` (written by
``python -m repro.bench --all --timings``), so the serving speedup is
tracked alongside compile-time and cache trajectories.

Both paths do the full per-request work a PR-2 session did - admission,
pool accounting, per-request stats - the interpreter pays it per node
per request, the program path paid it once at lowering time.
"""

from __future__ import annotations

import time
from collections import deque

from ..memory.pool import (
    PoolEvent, PoolReport, SizeClassPool, liveness_schedule,
)
from ..models import SMOKE_CONFIGS, build_smoke
from ..runtime.executor import make_inputs, run_node
from ..runtime.session import RunStats, _compile_session
from ..runtime.traffic import FAMILIES, family

#: Models measured by default: transformer-family smoke configs whose
#: request times are small enough that dispatch overhead is visible, plus
#: one hybrid for contrast.
SERVE_MODELS = ("Pythia", "SD-TextEncoder", "ViT", "Conformer")


class InterpreterSession:
    """Frozen replica of the PR-2 ``Session.run`` request path.

    Re-interprets the graph per request - per-node kernel dict lookups
    via :func:`run_node`, per-run liveness dict bookkeeping, per-run
    timeline/stats construction - exactly as the serving layer did before
    lowering.  Kept only as the baseline for the ``serve`` benchmark.
    """

    def __init__(self, graph, report) -> None:
        self.graph = graph
        self.pool = SizeClassPool()
        self._schedule = liveness_schedule(graph)
        self._order = graph.topo_order()
        self._params = {
            name: value for name, value in make_inputs(graph, seed=0).items()
            if name not in graph.inputs}
        self._report = report
        self.requests = 0
        self.total_wall_s = 0.0
        self.runs: deque[RunStats] = deque(maxlen=256)

    @property
    def est_latency_ms(self) -> float:
        return self._report.latency_ms

    def run(self, inputs):
        start = time.perf_counter()
        graph = self.graph
        values = dict(self._params)
        for name, value in inputs.items():
            if name in graph.tensors:
                values[name] = value
        missing = [name for name in graph.inputs if name not in values]
        if missing:
            raise ValueError(f"missing graph inputs: {missing}")

        pool = self.pool
        before = pool.stats()
        tensors = graph.tensors
        schedule = self._schedule
        materialized = schedule.materialized
        live: dict[str, int] = {}
        total_allocated = 0
        timeline: list[PoolEvent] = []
        peak_live = 0
        try:
            for t in graph.inputs:
                size = tensors[t].size_bytes
                pool.allocate(size)
                live[t] = size
                total_allocated += size
            for step, node in enumerate(self._order):
                run_node(graph, node, values)
                for t in node.outputs:
                    if t in materialized:
                        size = tensors[t].size_bytes
                        pool.allocate(size)
                        live[t] = size
                        total_allocated += size
                peak_live = max(peak_live, pool.live_bytes)
                timeline.append(PoolEvent(step, pool.live_bytes, 0))
                for t in schedule.releases_at[step]:
                    size = live.pop(t, None)
                    if size is not None:
                        pool.release(size)
                for t in schedule.value_drops_at[step]:
                    values.pop(t, None)
            outputs = {name: values[name] for name in graph.outputs}
        finally:
            for size in live.values():
                pool.release(size)
            live.clear()
        after = pool.stats()
        wall_s = time.perf_counter() - start
        run_report = PoolReport(
            peak_bytes=peak_live,
            peak_copy_bytes=0,
            final_bytes=pool.live_bytes,
            timeline=timeline,
            allocations=after["allocations"] - before["allocations"],
            reuses=after["reuses"] - before["reuses"],
            total_allocated_bytes=total_allocated,
        )
        self.requests += 1
        self.total_wall_s += wall_s
        self.runs.append(RunStats(
            request=self.requests, wall_s=wall_s,
            est_latency_ms=self.est_latency_ms, pool=run_report))
        return outputs


def measure_serving(models: tuple[str, ...] = SERVE_MODELS,
                    requests: int = 50, warmup: int = 5) -> dict:
    """Measure steady-state request wall time, program vs. interpreter.

    Each path is warmed (pool at steady state, params materialized, cost
    report priced), then timed over ``requests`` runs; the best (minimum)
    wall time per path is reported, which is the stable statistic for
    micro-scale request times.
    """
    perf = time.perf_counter
    per_model = {}
    best = 0.0
    for name in models:
        graph = build_smoke(name)
        session = _compile_session(graph, "Ours")
        interp = InterpreterSession(session.graph, session.report)
        inputs = session.make_inputs()
        for _ in range(warmup):
            session.run(inputs)
            interp.run(inputs)
        program_walls = []
        for _ in range(requests):
            start = perf()
            session.run(inputs)
            program_walls.append(perf() - start)
        interp_walls = []
        for _ in range(requests):
            start = perf()
            interp.run(inputs)
            interp_walls.append(perf() - start)
        program_ms = min(program_walls) * 1e3
        interp_ms = min(interp_walls) * 1e3
        speedup = interp_ms / program_ms if program_ms else 0.0
        best = max(best, speedup)
        per_model[name] = {
            "steps": session.program.num_steps,
            "slots": session.program.slot_plan.num_slots,
            "interpreter_run_ms": round(interp_ms, 4),
            "program_run_ms": round(program_ms, 4),
            "speedup": round(speedup, 2),
        }
    return {
        "requests": requests,
        "models": per_model,
        "best_speedup": round(best, 2),
        "scheduler": measure_scheduler(),
        "backends": measure_backends(),
        "parallel": measure_parallel(),
        "roofline": measure_roofline(),
        "symbolic": measure_symbolic(),
    }


def measure_roofline(models: tuple[str, ...] | None = None,
                     repeats: int = 5) -> dict:
    """Per-model roofline report: measured time vs static traffic per
    kernel family, for *every* smoke model.

    The measured side walks the lowered program's step closures (the
    reference per-step path, so every family is individually timeable)
    and keeps the best-of-``repeats`` wall per step; the static side is
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
    Fusion/scratch counters ride along so the report also shows what the
    codegen backend collapses (``fused_steps``) and what one thread
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
    without symbolic compilation costs: a fresh concrete compile (a
    freshly built graph, so the compile cache is cold) plus its first
    request.  The headline ``best_speedup`` is the committed >= 10x
    claim the ``check_symbolic_shapes`` CI gate enforces.
    """
    import numpy as np

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
            build_smoke(name), "Ours",
            signature=signature, max_extent=max_extent)
        base = session.make_inputs(seed=0)

        def inputs_at(extent):
            return {key: np.resize(value, (extent,) + value.shape[1:])
                    for key, value in base.items()}

        # One request warms the top bucket (compiles its variant, warms
        # its pool); every later extent in the bucket is a new shape.
        session.execute_values([session._admit(inputs_at(bucket_lo))])
        symbolic_walls = []
        for extent in range(bucket_lo + 1, max_extent + 1):
            admitted = session._admit(inputs_at(extent))
            start = perf()
            session.execute_values([admitted])
            symbolic_walls.append(perf() - start)
        symbolic_ms = min(symbolic_walls) * 1e3

        cold_walls = []
        for index in range(repeats):
            extent = bucket_lo + 1 + index % (max_extent - bucket_lo)
            cold_graph = build_smoke(name, batch=extent)
            start = perf()
            cold = _compile_session(cold_graph, "Ours")
            cold.run(cold.make_inputs(seed=0))
            cold_walls.append(perf() - start)
        cold_ms = min(cold_walls) * 1e3

        speedup = cold_ms / symbolic_ms if symbolic_ms else 0.0
        best = max(best, speedup)
        per_model[name] = {
            "max_extent": max_extent,
            "new_shape_request_ms": round(symbolic_ms, 4),
            "cold_compile_request_ms": round(cold_ms, 4),
            "speedup": round(speedup, 2),
            "buckets_compiled": len(
                session.program.backend_cache.get("batching.symbolic", {})),
        }
    return {
        "models": per_model,
        "best_speedup": round(best, 2),
    }


#: Execution backends compared head-to-head on steady-state Session.run.
COMPARED_BACKENDS = ("numpy", "codegen")


def measure_backends(models: tuple[str, ...] = SERVE_MODELS,
                     backends: tuple[str, ...] = COMPARED_BACKENDS,
                     requests: int = 50, warmup: int = 5) -> dict:
    """Steady-state ``Session.run`` wall time per execution backend.

    One session per (model, backend) over the *same* compiled graph (the
    compile cache shares one lowering), each warmed to pool steady state,
    then timed over ``requests`` runs; best (minimum) wall per backend is
    reported with the speedup of every backend over the first one
    (``numpy``, the reference).  This is the registry comparison the
    codegen backend is benchmarked through - future backends only need a
    registry name to join the table.
    """
    perf = time.perf_counter
    reference = backends[0]
    per_model = {}
    best = 0.0
    for name in models:
        graph = build_smoke(name)
        entry: dict = {}
        walls: dict[str, float] = {}
        for backend in backends:
            session = _compile_session(graph, "Ours", backend=backend)
            inputs = session.make_inputs()
            for _ in range(warmup):
                session.run(inputs)
            backend_walls = []
            for _ in range(requests):
                start = perf()
                session.run(inputs)
                backend_walls.append(perf() - start)
            walls[backend] = min(backend_walls) * 1e3
            entry[f"{backend}_run_ms"] = round(walls[backend], 4)
        ref_ms = walls[reference]
        for backend in backends[1:]:
            speedup = ref_ms / walls[backend] if walls[backend] else 0.0
            entry[f"{backend}_speedup"] = round(speedup, 2)
            best = max(best, speedup)
        per_model[name] = entry
    return {
        "requests": requests,
        "backends": list(backends),
        "models": per_model,
        "best_speedup": round(best, 2),
    }


#: Kernel-bound smoke models the multi-process backend is benchmarked
#: on - the pair the parallel-scaling CI gate watches.
PARALLEL_MODELS = ("ViT", "Conformer")


def measure_parallel(models: tuple[str, ...] = PARALLEL_MODELS,
                     workers: tuple[int, ...] = (1, 2, 4),
                     requests: int = 64, max_batch_size: int = 32,
                     repeats: int = 5) -> dict:
    """Aggregate serving throughput of the multi-process backend.

    The baseline loops ``Session.run`` over ``requests`` prebuilt inputs
    in-process - one dispatch per request, no batching.  Each measured
    point puts the same burst through ``serve(backend="parallel",
    workers=W)``: the scheduler coalesces micro-batches, the dispatcher
    shards them across the worker pool, and each worker serves its shard
    as one stacked pass read from / written to shared memory.  Bursts
    are repeated and best-of-``repeats`` aggregate RPS is reported, with
    per-request outputs checked **byte-identical** against a
    single-process reference session (``parity``); ``codegen_parity``
    runs one burst through ``"parallel-codegen"`` and checks the same.
    """
    from ..api import InferenceRequest, ServeOptions, serve

    perf = time.perf_counter
    per_model = {}
    best = 0.0
    for name in models:
        graph = build_smoke(name)
        reference = _compile_session(graph, "Ours")
        inputs = [reference.make_inputs(seed=seed) for seed in range(requests)]
        expected = [reference.run(dict(values)) for values in inputs]
        for _ in range(8):
            reference.run(dict(inputs[0]))
        sequential_walls = []
        for _ in range(repeats):
            start = perf()
            for values in inputs:
                reference.run(dict(values))
            sequential_walls.append(perf() - start)
        sequential_s = min(sequential_walls)
        sequential_rps = requests / sequential_s if sequential_s else 0.0

        burst = [InferenceRequest(inputs=values) for values in inputs]
        parallel_rps: dict[str, float] = {}
        parity = True
        stacked = restarts = 0
        for count in workers:
            service = serve(graph, ServeOptions(
                backend="parallel", workers=count,
                max_batch_size=max_batch_size))
            try:
                walls = []
                responses = None
                for _ in range(repeats):
                    start = perf()
                    futures = [service.submit(r) for r in burst]
                    responses = [f.result() for f in futures]
                    walls.append(perf() - start)
                report = service.report()
                for response, outputs in zip(responses, expected):
                    for key, value in outputs.items():
                        if response.outputs[key].tobytes() != value.tobytes():
                            parity = False
            finally:
                service.close()
            wall_s = min(walls)
            parallel_rps[str(count)] = \
                round(requests / wall_s, 1) if wall_s else 0.0
            stacked, restarts = report.stacked_batches, report.worker_restarts

        service = serve(graph, ServeOptions(
            backend="parallel-codegen", workers=2,
            max_batch_size=max_batch_size))
        try:
            responses = [f.result()
                         for f in [service.submit(r) for r in burst]]
            codegen_parity = all(
                response.outputs[key].tobytes() == value.tobytes()
                for response, outputs in zip(responses, expected)
                for key, value in outputs.items())
        finally:
            service.close()

        top = max(parallel_rps.values())
        speedup = top / sequential_rps if sequential_rps else 0.0
        best = max(best, speedup)
        per_model[name] = {
            "sequential_rps": round(sequential_rps, 1),
            "parallel_rps": parallel_rps,
            "speedup": round(speedup, 2),
            "stacked_batches": stacked,
            "worker_restarts": restarts,
            "parity": parity,
            "codegen_parity": codegen_parity,
        }
    return {
        "requests": requests,
        "max_batch_size": max_batch_size,
        "workers": list(workers),
        "models": per_model,
        "best_speedup": round(best, 2),
    }


#: Dispatch-bound smoke models (tiny tensors, many steps): the regime the
#: scheduler's coalescing is built for.
SCHEDULER_MODELS = ("Pythia", "SD-TextEncoder")


def measure_scheduler(models: tuple[str, ...] = SCHEDULER_MODELS,
                      requests: int = 128, max_batch_size: int = 16,
                      repeats: int = 5, warmup: int = 8) -> dict:
    """Stacked micro-batch throughput vs. sequential ``Session.run``.

    The sequential baseline loops ``Session.run`` over ``requests``
    prebuilt inputs - the PR 3 idiom, one dispatch per request.  The
    scheduler path submits the same burst to a :class:`repro.api.Service`
    and waits for every future: the worker coalesces the queue into
    micro-batches of up to ``max_batch_size`` and - both models here
    being batch-stackable - serves each through ONE kernel pass per
    program step on a cached batch-N program variant (inputs stacked
    along the leading axis, outputs split per request).  Per-request
    dispatch AND per-request kernel invocation are paid per *batch*;
    ``stacked_batches`` in the per-model entry counts the passes that
    took the stacked path.  Both paths are warmed to pool steady state
    (warm-up also compiles the bucket variants) and best-of-``repeats``
    walls are reported.
    """
    from ..api import InferenceRequest, ServeOptions, serve

    perf = time.perf_counter
    per_model = {}
    best = 0.0
    for name in models:
        graph = build_smoke(name)
        session = _compile_session(graph, "Ours")
        inputs = session.make_inputs()
        for _ in range(warmup):
            session.run(inputs)
        sequential_walls = []
        for _ in range(repeats):
            start = perf()
            for _ in range(requests):
                session.run(inputs)
            sequential_walls.append(perf() - start)

        service = serve(graph, ServeOptions(
            max_batch_size=max_batch_size))
        burst = [InferenceRequest(inputs=inputs) for _ in range(requests)]
        for future in [service.submit(r) for r in burst[:max_batch_size]]:
            future.result()  # warm the service's private pool
        scheduler_walls = []
        for _ in range(repeats):
            start = perf()
            futures = [service.submit(r) for r in burst]
            for future in futures:
                future.result()
            scheduler_walls.append(perf() - start)
        report = service.report()
        service.close()

        sequential_s = min(sequential_walls)
        scheduler_s = min(scheduler_walls)
        speedup = sequential_s / scheduler_s if scheduler_s else 0.0
        best = max(best, speedup)
        per_model[name] = {
            "sequential_rps":
                round(requests / sequential_s, 1) if sequential_s else 0.0,
            "scheduler_rps":
                round(requests / scheduler_s, 1) if scheduler_s else 0.0,
            "speedup": round(speedup, 2),
            "mean_batch": round(report.mean_batch_size, 2),
            "stacked_batches": report.stacked_batches,
        }
    return {
        "requests": requests,
        "max_batch_size": max_batch_size,
        "models": per_model,
        "best_speedup": round(best, 2),
    }
