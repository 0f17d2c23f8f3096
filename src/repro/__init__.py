"""SmartMem reproduction: layout transformation elimination and adaptation
for efficient DNN execution on mobile (Niu et al., ASPLOS 2024).

Quickstart - compile once, serve typed requests::

    import repro

    model = repro.compile("Pythia")               # SmartMem pipeline + lowering
    request = model.make_request(seed=0)          # or InferenceRequest(inputs={...})
    response = model.run(request)
    print(response.outputs.keys(), response.stats.wall_s)

Every compiled program runs as one generated Python function;
``CompileOptions(backend="parallel")`` shards micro-batches across a
pool of worker processes running that same function (identical
outputs; see ``docs/architecture.md``, "Backends are names").

Serving concurrent traffic - a scheduler coalesces requests into
micro-batches on the lowered program path::

    with repro.serve("Pythia", max_batch_size=16) as service:
        futures = [service.submit(model.make_request(seed=s).inputs)
                   for s in range(64)]
        responses = [f.result() for f in futures]
        print(service.report().throughput_rps)

The analysis layer is unchanged: ``optimize()`` runs the SmartMem
pipeline on a graph and ``estimate_cost()`` prices it on a device model::

    graph = repro.build_model("Swin")
    module = repro.optimize(graph)
    report = repro.estimate_cost(module, repro.SD8GEN2)
"""

from .api import (
    AdmissionError, BackendCompilationError, CompiledModel, CompileOptions,
    DeadlineExceeded, ExecutionError, InferenceFuture, InferenceRequest,
    InferenceResponse, InvalidOptions, QueueFull, ReproError,
    RequestCancelled, RetryPolicy, ServeOptions, Service, ServiceClosed,
    ServiceReport, WorkerCrashed, compile, serve,
)
from .core.pipeline import OptimizeResult, PipelineStages, smartmem_optimize
from .ir.builder import GraphBuilder
from .ir.graph import Graph
from .ir.symbolic import SYM, SymDim
from .models import build as build_model
from .runtime.cost_model import CostModelConfig, CostReport, estimate
from .runtime.device import DEVICES, DIMENSITY700, DeviceSpec, SD835, SD8GEN2, V100
from .runtime.faults import FaultPlan, FaultRule

__version__ = "2.0.0"


def optimize(graph: Graph, stages: PipelineStages | None = None) -> OptimizeResult:
    """Run the full SmartMem optimization pipeline on a model graph."""
    return smartmem_optimize(graph, stages)


def estimate_cost(module: OptimizeResult, device: DeviceSpec = SD8GEN2,
                  config: CostModelConfig | None = None) -> CostReport:
    """Cost an optimized module on a device model."""
    config = config or CostModelConfig(extra_efficiency=module.extra_efficiency)
    return estimate(module.graph, device, module.plan, config)


__all__ = [
    "AdmissionError", "BackendCompilationError", "CompileOptions",
    "CompiledModel", "CostModelConfig", "CostReport", "DEVICES",
    "DIMENSITY700", "DeadlineExceeded", "DeviceSpec", "ExecutionError",
    "FaultPlan", "FaultRule", "Graph", "GraphBuilder", "InferenceFuture",
    "InferenceRequest", "InferenceResponse", "InvalidOptions",
    "OptimizeResult",
    "PipelineStages", "QueueFull", "ReproError", "RequestCancelled",
    "RetryPolicy", "SD835",
    "SD8GEN2", "SYM", "ServeOptions", "Service", "ServiceClosed",
    "ServiceReport", "SymDim",
    "V100", "WorkerCrashed", "build_model", "compile", "estimate",
    "estimate_cost", "optimize",
    "serve", "smartmem_optimize", "__version__",
]
