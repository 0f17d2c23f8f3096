"""Execution substrate: devices, reference executor, analytical cost model."""

from .codegen import GeneratedKernel, generate_group, generate_kernel
from .codegen_backend import (
    CompiledProgramModule, NumPyBackend, available_backends,
    compile_program, emit_program_source, get_backend, program_source,
)
from .verify import VerificationReport, verify_equivalence
from .cost_model import (
    CostModelConfig, CostReport, KernelCost, estimate, peak_activation_bytes,
)
from .device import DEVICES, DIMENSITY700, DeviceSpec, SD835, SD8GEN2, V100, scaled
from .executor import execute, make_inputs, run_node
from .faults import FaultInjector, FaultPlan, FaultRule, InjectedCrash
from .kernels import get_kernel
from .parallel_backend import WorkerPool, parallel_supported
from .program import ExecutionProgram, SlotPlan, Step, lower
from .shm import SegmentRing, ShardLayout, SharedSegment, active_segments
from .session import RunStats, Session, SessionStats, stable_model_key

__all__ = [
    "CompiledProgramModule",
    "ExecutionProgram", "FaultInjector",
    "FaultPlan", "FaultRule", "GeneratedKernel", "InjectedCrash",
    "NumPyBackend", "RunStats",
    "SegmentRing", "Session",
    "SessionStats", "ShardLayout", "SharedSegment",
    "SlotPlan", "Step",
    "VerificationReport", "WorkerPool", "active_segments",
    "parallel_supported", "stable_model_key",
    "available_backends", "compile_program",
    "emit_program_source", "generate_group",
    "generate_kernel", "get_backend", "lower",
    "program_source",
    "verify_equivalence",
    "CostModelConfig", "CostReport", "DEVICES", "DIMENSITY700", "DeviceSpec",
    "KernelCost", "SD835", "SD8GEN2", "V100", "estimate", "execute",
    "get_kernel", "make_inputs", "peak_activation_bytes",
    "run_node", "scaled",
]
