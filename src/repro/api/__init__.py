"""The canonical public surface: typed compile & serve front doors.

Two entry points:

* :func:`repro.compile` - compile once, run many, synchronously::

      model = repro.compile(graph)                    # CompiledModel
      response = model.run(InferenceRequest(inputs))  # InferenceResponse
      response.outputs, response.stats.wall_s

* :func:`repro.serve` - the same compiled model behind a dynamic
  micro-batching scheduler for concurrent traffic::

      with repro.serve(graph, max_batch_size=16) as service:
          futures = [service.submit(r) for r in requests]
          responses = [f.result() for f in futures]

Both are configured by frozen options dataclasses
(:class:`CompileOptions`, :class:`ServeOptions`) and speak typed
:class:`InferenceRequest`/:class:`InferenceResponse` objects instead of
raw ndarray dicts.
"""

from .compiled import CompiledModel, compile
from .errors import (
    AdmissionError, BackendCompilationError, DeadlineExceeded, ExecutionError,
    InvalidOptions, QueueFull, ReproError, RequestCancelled, ServiceClosed,
    WorkerCrashed,
)
from .messages import InferenceRequest, InferenceResponse, as_request
from .options import CompileOptions, RetryPolicy, ServeOptions, merge_options
from .service import InferenceFuture, Service, ServiceReport, serve

__all__ = [
    "AdmissionError", "BackendCompilationError", "CompileOptions",
    "CompiledModel", "DeadlineExceeded", "ExecutionError", "InferenceFuture",
    "InferenceRequest", "InferenceResponse", "InvalidOptions", "QueueFull",
    "ReproError", "RequestCancelled", "RetryPolicy", "Service",
    "ServeOptions", "ServiceClosed", "ServiceReport", "WorkerCrashed",
    "as_request", "compile", "merge_options", "serve",
]
