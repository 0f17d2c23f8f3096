"""Per-layer metrics of a traced run (layer = module name).

Three sources, none of them inside ``src/``: the load generator's own
round records, the per-request fields the program already returns
(harvested in :mod:`perfkit.measure` from the traced windows), and a
single-threaded *replay* of seeded requests through each layer's public
function, every call wrapped in a span.
"""

from __future__ import annotations

import builtins
import time
from statistics import mean, median

import repro
from repro.runtime import (
    ShardLayout, active_segments, emit_program_source, get_backend,
)
from repro.runtime.batching import analyze, bucket, rebatch
from repro.runtime.shm import SharedSegment
from repro.runtime.traffic import family

from . import drive, loadgen, spec
from .trace import Tracer

REPLAY_REQUESTS = 16
"""Seeded requests replayed through each layer (also the batch size of
the ``batch16`` measurements: one full scheduler micro-batch)."""
REPEATS = 9


class Harvest:
    """Per-request fields the program already returns, kept from the
    traced windows, and the request spans derived from them.

    ``steady`` says the harvested requests hit warm pools, so their pool
    counters are the steady-state ones (``cold_start`` requests are each
    the first on a fresh pool; its pool numbers come from the replay).
    """

    def __init__(self, tracer: Tracer, steady: bool) -> None:
        self.tracer = tracer
        self.steady = steady
        self.queued_ms: list[float] = []
        self.exec_share_ms: list[float] = []
        self.overhead_ms: list[float] = []
        self.allocations = 0
        self.reuses = 0.0
        self.peak_bytes = 0
        self.padded_rows = 0.0
        self.executed_rows = 0.0
        self.variants: set = set()

    @property
    def rows(self) -> int:
        return len(self.queued_ms)

    def take(self, response, sent: float, done: float, root: int,
             request, extent: int | None = None) -> None:
        """One served request: ``sent``/``done`` bracket it as the client
        saw it, ``root`` is its request span."""
        stats = response.stats
        queued = response.queued_ms
        share = stats.wall_s * 1e3
        self.queued_ms.append(queued)
        self.exec_share_ms.append(share)
        self.overhead_ms.append((done - sent) * 1e3 - queued - share)
        n = response.batch_size
        # A stacked pass shares one PoolReport among its n requests.
        per_request = 1.0 / n if stats.batched else 1.0
        self.allocations += stats.pool.allocations
        self.reuses += stats.pool.reuses * per_request
        self.peak_bytes = max(self.peak_bytes, stats.pool.peak_bytes)
        if stats.batched:
            self.variants.add(("stacked", bucket(n)))
            self.padded_rows += (bucket(n) - n) / n
            self.executed_rows += bucket(n) / n
        else:
            self.executed_rows += 1
            if extent is not None and extent != 1:
                self.variants.add(("symbolic", bucket(extent)))
        queue_end = sent + queued / 1e3
        self.tracer.add("api.queue_wait", sent, queue_end, root, request)
        self.tracer.add("api.execute_and_resolve", queue_end, done, root,
                        request)

    def window(self, window: loadgen.Window, responses: list, first_id: int,
               extents: list) -> None:
        add = self.tracer.add
        for i, response in enumerate(responses):
            if response is None:
                continue
            sent, done = window.sent[i], window.done[i]
            request = first_id + i
            if window.due:
                root = add("request", window.due[i], done, None, request)
                add("loadgen.lateness", window.due[i], sent, root, request)
            else:
                root = add("request", sent, done, None, request)
            self.take(response, sent, done, root, request,
                      extents[window.which[i]])

    def metrics(self) -> dict:
        found = {
            "api.queue_wait_p50_ms": loadgen.percentile(self.queued_ms, 50),
            "api.queue_wait_p95_ms": loadgen.percentile(self.queued_ms, 95),
            "api.exec_share_ms": loadgen.percentile(self.exec_share_ms, 50),
            "api.overhead_ms": loadgen.percentile(self.overhead_ms, 50),
            "runtime.batching.variants": len(self.variants),
            "runtime.batching.pad_share":
                self.padded_rows / self.executed_rows,
        }
        if self.steady:
            found.update({
                "memory.pool.steady_allocs": self.allocations,
                "memory.pool.reuses_per_req": self.reuses / self.rows,
                "memory.pool.peak_kb": self.peak_bytes / 1024,
            })
        return found


class ServiceTotals:
    """``ServiceReport`` counters and stand-up/close walls, summed over
    the services a run stood up (one for a serving workload, one per
    operation for ``cold_start``)."""

    def __init__(self) -> None:
        self.standup_ms: list[float] = []
        self.close_ms: list[float] = []
        self.requests = self.batches = self.stacked = 0
        self.queue_depth_peak = self.retries = self.isolated = 0
        self.expired = self.failed = self.worker_restarts = 0

    def add(self, report, standup_ms: float, close_ms: float) -> None:
        self.standup_ms.append(standup_ms)
        self.close_ms.append(close_ms)
        self.requests += report.requests
        self.batches += report.batches
        self.stacked += report.stacked_batches
        self.queue_depth_peak = max(self.queue_depth_peak,
                                    report.queue_depth_peak)
        self.retries += report.retries
        self.isolated += report.isolated
        self.expired += report.expired
        self.failed += report.failed
        self.worker_restarts += report.worker_restarts

    def metrics(self) -> dict:
        batches = max(self.batches, 1)
        return {
            "api.standup_ms": median(self.standup_ms),
            "api.close_ms": median(self.close_ms),
            "api.batch_size_mean": self.requests / batches,
            "api.stacked_share": self.stacked / batches,
            "api.batches": self.batches,
            "api.queue_depth_peak": self.queue_depth_peak,
            "api.retries": self.retries,
            "api.isolated": self.isolated,
            "api.expired": self.expired,
            "api.failed": self.failed,
            "runtime.parallel.worker_restarts": self.worker_restarts,
        }


def timed(tracer: Tracer, name: str, parent, call, *args, **kwargs):
    """``(result, milliseconds)`` of one call into a layer, as a span."""
    with tracer.span(name, parent) as index:
        result = call(*args, **kwargs)
    _, start, end, _, _ = tracer.spans[index]
    return result, (end - start) * 1e3


def replay_model(workload: spec.Workload, model: str, config, seed: int,
                 tracer: Tracer, coverage: list) -> dict:
    """One model's layer-by-layer numbers."""
    m: dict[str, float] = {}
    with tracer.span(f"replay.{model}") as root:
        # -- models, core: the compile side, cold -------------------------
        graph, m["models.build_ms"] = timed(
            tracer, "models.build", root, drive.build_graph, model, config)
        result, _ = timed(tracer, "core.optimize", root, repro.optimize, graph)
        walls = result.pass_timings
        for name in spec.PASSES:
            m[f"core.{name}_ms"] = walls.get(name, 0.0) * 1e3
        m["core.ops_in"] = result.source_operator_count
        m["core.ops_out"] = result.operator_count
        m["core.layout_transforms_left"] = result.remaining_layout_transforms

        # -- runtime.program, runtime.codegen ------------------------------
        program = result.program
        m["runtime.program.steps"] = program.num_steps
        m["runtime.program.slots"] = program.slot_plan.num_slots
        m["runtime.program.fused_chains"] = len(program.fused_chains)
        m["runtime.program.scratch_kb"] = \
            program.slot_plan.scratch_bytes / 1024
        (source, _), m["runtime.codegen.emit_ms"] = timed(
            tracer, "runtime.codegen.emit", root, emit_program_source,
            program)
        m["runtime.codegen.source_lines"] = source.count("\n")
        _, m["runtime.codegen.compile_ms"] = timed(
            tracer, "runtime.codegen.compile", root, builtins.compile,
            source, "<perf-replay>", "exec")

        # -- runtime.batching: one cold batch-16 variant --------------------
        stackable = analyze(program).stackable
        m["runtime.batching.stackable"] = float(stackable)
        m["runtime.batching.variant_build_ms"] = timed(
            tracer, "runtime.batching.rebatch", root, rebatch, program,
            spec.MAX_BATCH_SIZE)[1] if stackable else 0.0

        # -- api, runtime.session: the request path, warm -------------------
        compiled = repro.compile(graph, drive.compile_options(
            workload, graph, workload.backend))
        session = compiled.session
        signature = drive.graph_signature(graph)
        rng = loadgen.stream(seed, 3)
        extents = loadgen.balanced_extents(rng, workload.max_extent,
                                           REPLAY_REQUESTS)
        shaped = [repro.InferenceRequest(inputs=tensors) for tensors in
                  loadgen.request_pool(signature, rng, extents)]
        base = [repro.InferenceRequest(inputs=tensors) for tensors in
                loadgen.request_pool(signature, rng,
                                     [None] * REPLAY_REQUESTS)]
        for request in shaped:  # warm every variant and the pool
            compiled.run(request)
        session.execute_values([compiled.admit(r) for r in shaped])

        admit_ms, solo_ms, run_ms = [], [], []
        allocations = reuses = peak_bytes = 0
        for index, request in enumerate(shaped):
            # The replayed end-to-end request: its layer spans should
            # cover its wall (trace.span_coverage_pct).
            with tracer.span("replay.request", root, f"replay-{index}") as r:
                values, wall = timed(tracer, "api.admit", r,
                                     compiled.admit, request)
                admit_ms.append(wall)
                solo_ms.append(timed(
                    tracer, "runtime.session.execute_values", r,
                    session.execute_values, [values])[1])
            _, start, end, _, _ = tracer.spans[r]
            coverage.append((admit_ms[-1] + solo_ms[-1], (end - start) * 1e3))
            response, wall = timed(tracer, "api.run", root,
                                   compiled.run, request)
            run_ms.append(wall)
            allocations += response.stats.pool.allocations
            reuses += response.stats.pool.reuses
            peak_bytes = max(peak_bytes, response.stats.pool.peak_bytes)
        m["api.admit_us"] = median(admit_ms) * 1e3
        m["api.run_ms"] = median(run_ms)
        m["runtime.session.solo_ms"] = median(solo_ms)
        m["memory.pool.steady_allocs"] = allocations
        m["memory.pool.reuses_per_req"] = reuses / len(shaped)
        m["memory.pool.peak_kb"] = peak_bytes / 1024
        batch_ms = [
            timed(tracer, "runtime.session.execute_values.batch16", root,
                  session.execute_values,
                  [compiled.admit(r) for r in shaped])[1]
            for _ in range(REPEATS)]
        m["runtime.session.batch16_ms"] = median(batch_ms)
        m["runtime.session.per_req_in_batch_ms"] = \
            median(batch_ms) / len(shaped)
        m["runtime.session.fallbacks"] = session.stats.fallbacks

        # -- runtime.kernels: the step closures, one by one -----------------
        steps, op_list = compiled.program.steps, compiled.program.op_list
        perf = time.perf_counter
        step_walls = [[] for _ in steps]
        loop_ms = []
        for repeat in range(REPEATS + 1):  # the first pass warms scratch
            values = compiled.admit(base[0])
            with tracer.span("runtime.kernels.walk", root) as walk:
                for i, (execute, drops) in enumerate(op_list):
                    start = perf()
                    execute(values)
                    end = perf()
                    for name in drops:
                        values.pop(name, None)
                    step_walls[i].append(end - start)
                    if repeat == REPEATS:
                        tracer.add("runtime.kernels."
                                   + family(steps[i].op_type),
                                   start, end, walk)
            # The same loop without a timer per step: what the kernels
            # cost when nothing sits between them.
            values = compiled.admit(base[0])
            start = perf()
            for execute, drops in op_list:
                execute(values)
                for name in drops:
                    values.pop(name, None)
            loop_ms.append((perf() - start) * 1e3)
        by_family = dict.fromkeys(spec.KERNEL_FAMILIES, 0.0)
        for step, walls in zip(steps, step_walls):
            by_family[family(step.op_type)] += median(walls[1:]) * 1e3
        static = compiled.program.roofline()
        for name in spec.KERNEL_FAMILIES:
            entry = static.get(name, {})
            m[f"runtime.kernels.{name}_ms"] = by_family[name]
            m[f"runtime.kernels.{name}_calls"] = entry.get("steps", 0)
            # Computed from tensor sizes, not measured.
            m[f"runtime.kernels.{name}_mb_moved"] = (
                entry.get("bytes_read", 0)
                + entry.get("bytes_written", 0)) / 1e6
            m[f"runtime.kernels.{name}_mflops"] = entry.get("flops", 0) / 1e6
        kernel_ms = median(loop_ms[1:])
        m["runtime.kernels.us_per_call"] = kernel_ms * 1e3 / len(steps)
        # Dispatch is what the reference step interpreter adds around the
        # closures it runs: routing, pool accounting, the runner loop.
        reference = get_backend("numpy")
        m["runtime.session.dispatch_ms"] = median(
            timed(tracer, "runtime.session.execute_values.numpy", root,
                  session.execute_values, [compiled.admit(request)],
                  backend=reference)[1]
            for request in base) - kernel_ms

        # -- runtime.parallel, runtime.shm: crossing the process boundary ---
        inprocess = repro.compile(graph, drive.compile_options(
            workload, graph, "numpy"))
        parallel = repro.compile(graph, drive.compile_options(
            workload, graph, "parallel"))
        parallel.close()  # the first sharded call below starts the pool
        try:
            def batch_ms(model_, name):
                return timed(
                    tracer, name, root, model_.session.execute_values,
                    [model_.admit(r) for r in shaped])[1]

            first = batch_ms(parallel, "runtime.parallel.first_batch16")
            sharded = median(batch_ms(parallel, "runtime.parallel.batch16")
                             for _ in range(REPEATS))
            local = median(batch_ms(inprocess, "runtime.session.batch16")
                           for _ in range(REPEATS))
        finally:
            parallel.close()
        m["runtime.parallel.pool_start_ms"] = first - sharded
        m["runtime.parallel.roundtrip_overhead_ms"] = sharded - local

        layout = ShardLayout(compiled.program, REPLAY_REQUESTS)
        outputs = compiled.run(base[0]).outputs
        compiled.close()  # on the parallel workload that run used a pool
        segment = SharedSegment(layout.segment_bytes)
        try:
            m["runtime.shm.write_us"] = median(
                timed(tracer, "runtime.shm.write_inputs", root,
                      layout.write_inputs, segment.buf, i, request.inputs)[1]
                for i, request in enumerate(base)) * 1e3
            for i in range(REPLAY_REQUESTS):
                layout.write_outputs(segment.buf, i, outputs)
            m["runtime.shm.read_us"] = median(
                timed(tracer, "runtime.shm.read_outputs", root,
                      layout.read_outputs, segment.buf, i)[1]
                for i in range(REPLAY_REQUESTS)) * 1e3
        finally:
            segment.unlink()
    return m


def full_optimize_ms(tracer: Tracer) -> float:
    """``repro.optimize`` on full-size Swin and Pythia, never executed:
    the compile side at the sizes the paper reports."""
    total = 0.0
    for model in ("Swin", "Pythia"):
        graph = repro.build_model(model)
        total += timed(tracer, f"core.optimize.full.{model}", None,
                       repro.optimize, graph)[1]
    return total


def per_layer(workload: spec.Workload, args, tracer: Tracer, rounds: list,
              harvest: Harvest, totals: ServiceTotals, checker,
              emissions: int) -> dict:
    """Every per-layer metric of ``BENCHMARK.json``, by name."""
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    # -- loadgen: medians across this run's rounds ------------------------
    for name in ("lateness_p99_ms", "offered_rps", "achieved_rps",
                 "latency_p99_ms", "backlog_end"):
        values[f"loadgen.{name}"] = loadgen.across_rounds(
            rounds, f"loadgen.{name}")
    values["loadgen.closed_median_rps"] = loadgen.across_rounds(
        rounds, "throughput_rps")
    values["loadgen.host_noise_pct"] = loadgen.host_noise_pct(
        rounds, spec.WINDOWED["latency_p50_ms"])
    samples.update((name, len(rounds)) for name in values)

    # -- replay, averaged over the workload's models -----------------------
    coverage: list = []
    per_model = [replay_model(workload, model, config, args.seed, tracer,
                              coverage)
                 for model, config in workload.models]
    for name in per_model[0]:
        values[name] = mean(m[name] for m in per_model)
        samples[name] = len(per_model)
    values["core.full_optimize_ms"] = 0.0 if args.smoke \
        else full_optimize_ms(tracer)
    values["runtime.codegen.emissions"] = emissions

    # -- harvested from the traced windows ---------------------------------
    if harvest.rows:
        harvested = harvest.metrics()
        values.update(harvested)
        samples.update(dict.fromkeys(harvested, harvest.rows))
    values.update(totals.metrics())

    # -- trace: what tracing cost, and how much of a replayed request's ----
    # wall its layer spans cover
    def split(name):
        q = spec.WINDOWED[name]
        return (loadgen.across_rounds([r for r in rounds if r["traced"]],
                                      name, q),
                loadgen.across_rounds([r for r in rounds if not r["traced"]],
                                      name, q))

    traced, plain = split("throughput_rps")
    values["trace.overhead_pct"] = (plain - traced) / plain * 100 \
        if plain else 0.0
    traced, plain = split("latency_p50_ms")
    values["trace.latency_overhead_pct"] = (traced - plain) / plain * 100 \
        if plain else 0.0
    values["trace.span_coverage_pct"] = \
        sum(c[0] for c in coverage) / sum(c[1] for c in coverage) * 100

    checker.expect(not active_segments(),
                   "shared-memory segments left after the replay")
    values["runtime.shm.segments_leaked"] = len(active_segments())
    values["loadgen.error_rate"] = checker.failed / checker.attempted

    return {name: {"value": float(values[name]), "unit": unit,
                   "rounds": 1, "samples_per_round": samples.get(name, 1)}
            for name, unit, _ in spec.PER_LAYER}
