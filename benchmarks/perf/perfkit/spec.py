"""The benchmark's fixed vocabulary: workloads and metric names.

Plain data, no numpy and no ``repro``: the runner's parent process and
the self-test read it, and ``BENCHMARK.json`` is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The 13 smoke models one ``cold_start`` pass compiles, in pass order.
COLD_MODELS = (
    "Pythia", "SD-TextEncoder", "ViT", "Conformer", "Swin", "CSwin",
    "AutoFormer", "BiFormer", "CrossFormer", "ConvNext", "EfficientVit",
    "SMTFormer", "FlattenFormer",
)

#: Conformer sized so that kernels, not dispatch, are the wall (~3 ms solo).
CONFORMER_MEDIUM = dict(frames=64, mels=80, dim=96, depth=2, heads=4)

_PYTHIA = (("Pythia", None),)
_CONFORMER = (("Conformer", CONFORMER_MEDIUM),)


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``BENCHMARK.json`` says why each is here.
    ``rate`` is the fixed open-loop arrival rate in requests per second
    (0: closed loop only); ``max_extent`` > 0 compiles once with a
    symbolic leading dim and sends every extent of ``1..max_extent``
    equally often."""

    name: str
    backend: str
    rate: float
    models: tuple
    """``(catalog name, factory overrides)`` pairs; ``None`` overrides
    mean the model's ``SMOKE_CONFIGS`` entry."""
    max_extent: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("dispatch_open", backend="codegen", rate=4000.0,
             models=_PYTHIA),
    Workload("kernel_open", backend="numpy", rate=150.0, models=_CONFORMER),
    Workload("mixed_extent", backend="codegen", rate=800.0, models=_PYTHIA,
             max_extent=8),
    Workload("parallel_open", backend="parallel", rate=150.0,
             models=_CONFORMER),
    Workload("cold_start", backend="codegen", rate=0.0,
             models=tuple((name, None) for name in COLD_MODELS)),
)}

#: Scheduler options of the four serving workloads.
MAX_BATCH_SIZE = 16
MAX_WAIT_MS = 2.0
CLOSED_LOOP_OUTSTANDING = 64

# name, unit, better, bound (share of the parent's median a change may
# lose before it is a regression; calibrated in README.md "Calibration").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("throughput_rps", "ops/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: The three windowed end-to-end metrics and the percentile across a
#: run's windows each one reports: the decile on the metric's better
#: side (README.md "How a number is taken" says why not the median).
WINDOWED = {"latency_p50_ms": 10, "latency_p95_ms": 10, "throughput_rps": 90}

KERNEL_FAMILIES = ("conv", "gemm", "norm", "elementwise", "reduce", "pool",
                   "layout")
PASSES = ("lte", "dce", "index-simplify", "fusion", "layout-select",
          "tuning", "lower")


def _per_layer():
    rows = [
        ("loadgen.lateness_p99_ms", "ms", "lower"),
        ("loadgen.offered_rps", "ops/s", "higher"),
        ("loadgen.achieved_rps", "ops/s", "higher"),
        ("loadgen.latency_p99_ms", "ms", "lower"),
        ("loadgen.backlog_end", "count", "lower"),
        ("loadgen.closed_median_rps", "ops/s", "higher"),
        ("loadgen.host_noise_pct", "%", "lower"),
        ("loadgen.error_rate", "ratio", "lower"),
        ("models.build_ms", "ms", "lower"),
    ]
    rows += [(f"core.{name}_ms", "ms", "lower") for name in PASSES]
    rows += [
        ("core.ops_in", "count", "lower"),
        ("core.ops_out", "count", "lower"),
        ("core.layout_transforms_left", "count", "lower"),
        ("core.full_optimize_ms", "ms", "lower"),
        ("runtime.program.steps", "count", "lower"),
        ("runtime.program.slots", "count", "lower"),
        ("runtime.program.fused_chains", "count", "higher"),
        ("runtime.program.scratch_kb", "KB", "lower"),
        ("runtime.codegen.emit_ms", "ms", "lower"),
        ("runtime.codegen.compile_ms", "ms", "lower"),
        ("runtime.codegen.emissions", "count", "lower"),
        ("runtime.codegen.source_lines", "count", "lower"),
        ("runtime.batching.stackable", "ratio", "higher"),
        ("runtime.batching.variant_build_ms", "ms", "lower"),
        ("runtime.batching.variants", "count", "lower"),
        ("runtime.batching.pad_share", "ratio", "lower"),
        ("runtime.session.solo_ms", "ms", "lower"),
        ("runtime.session.batch16_ms", "ms", "lower"),
        ("runtime.session.per_req_in_batch_ms", "ms", "lower"),
        ("runtime.session.dispatch_ms", "ms", "lower"),
        ("runtime.session.fallbacks", "count", "lower"),
    ]
    for family in KERNEL_FAMILIES:
        rows += [
            (f"runtime.kernels.{family}_ms", "ms", "lower"),
            (f"runtime.kernels.{family}_calls", "count", "lower"),
            (f"runtime.kernels.{family}_mb_moved", "MB", "lower"),
            (f"runtime.kernels.{family}_mflops", "MFLOP", "lower"),
        ]
    rows += [
        ("runtime.kernels.us_per_call", "us", "lower"),
        ("memory.pool.steady_allocs", "count", "lower"),
        ("memory.pool.reuses_per_req", "count", "higher"),
        ("memory.pool.peak_kb", "KB", "lower"),
        ("api.admit_us", "us", "lower"),
        ("api.run_ms", "ms", "lower"),
        ("api.standup_ms", "ms", "lower"),
        ("api.close_ms", "ms", "lower"),
        ("api.queue_wait_p50_ms", "ms", "lower"),
        ("api.queue_wait_p95_ms", "ms", "lower"),
        ("api.exec_share_ms", "ms", "lower"),
        ("api.overhead_ms", "ms", "lower"),
        ("api.batch_size_mean", "count", "higher"),
        ("api.stacked_share", "ratio", "higher"),
        ("api.batches", "count", "lower"),
        ("api.queue_depth_peak", "count", "lower"),
        ("api.retries", "count", "lower"),
        ("api.isolated", "count", "lower"),
        ("api.expired", "count", "lower"),
        ("api.failed", "count", "lower"),
        ("runtime.parallel.pool_start_ms", "ms", "lower"),
        ("runtime.parallel.roundtrip_overhead_ms", "ms", "lower"),
        ("runtime.parallel.worker_restarts", "count", "lower"),
        ("runtime.shm.write_us", "us", "lower"),
        ("runtime.shm.read_us", "us", "lower"),
        ("runtime.shm.segments_leaked", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.latency_overhead_pct", "%", "lower"),
        ("trace.span_coverage_pct", "%", "higher"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()
