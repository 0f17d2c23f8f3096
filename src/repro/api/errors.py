"""The serving-layer error taxonomy.

Every failure the compile/serve stack can produce is a
:class:`ReproError` carrying structured context - the request id, the
model's content fingerprint, the execution backend, and a ``retryable``
flag the scheduler's :class:`~repro.api.RetryPolicy` keys on.  Each
concrete error *also* subclasses the built-in exception the pre-taxonomy
code raised at that site (``ValueError`` for admission, ``TimeoutError``
for deadline misses, ``RuntimeError`` for execution), so existing
``except``/``pytest.raises`` callers keep working unchanged:

================================  ==============================  =========
error                             legacy base                     retryable
================================  ==============================  =========
:class:`AdmissionError`           ``ValueError``                  never
:class:`ExecutionError`           ``RuntimeError``                sometimes
:class:`BackendCompilationError`  ``RuntimeError``                yes
:class:`DeadlineExceeded`         ``TimeoutError``                never
:class:`ServiceClosed`            ``RuntimeError``                never
:class:`QueueFull`                ``RuntimeError``                yes
:class:`InvalidOptions`           ``ValueError``                  never
:class:`RequestCancelled`         ``RuntimeError``                never
:class:`WorkerCrashed`            ``RuntimeError``                yes
================================  ==============================  =========

``retryable`` describes whether *resubmitting the same request* could
succeed: a malformed request (:class:`AdmissionError`) or a missed
deadline (:class:`DeadlineExceeded`) cannot, a transient kernel fault or
a momentarily full queue can.  The scheduler only re-enqueues failures
whose error says ``retryable=True``.

This module is intentionally dependency-free (stdlib only): it sits
below both the runtime and api layers so either may import it without
cycles.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base of the serving-layer taxonomy.

    Attributes:
        request_id: the failing request's id, when the failure is
            attributable to one request (``None`` otherwise).
        model: the model/graph name, when known.
        fingerprint: the graph's content fingerprint
            (:meth:`~repro.ir.graph.Graph.fingerprint`), when known -
            stable across rebuilt-but-identical graphs, so logs from a
            fleet can be grouped per program.
        backend: the canonical execution-backend name involved.
        retryable: whether resubmitting the same request could succeed.
    """

    def __init__(self, message: str = "", *,
                 request_id: str | int | None = None,
                 model: str | None = None,
                 fingerprint: str | None = None,
                 backend: str | None = None,
                 retryable: bool = False) -> None:
        super().__init__(message)
        self.request_id = request_id
        self.model = model
        self.fingerprint = fingerprint
        self.backend = backend
        self.retryable = retryable

    def context(self) -> dict:
        """The structured context as a dict (log/telemetry friendly)."""
        return {
            "request_id": self.request_id,
            "model": self.model,
            "fingerprint": self.fingerprint,
            "backend": self.backend,
            "retryable": self.retryable,
        }


class AdmissionError(ReproError, ValueError):
    """A request rejected before reaching any backend: empty, unknown or
    missing tensor names, wrong shapes, wrong dtypes.  Never retryable -
    the same request can only fail the same way."""


class ExecutionError(ReproError, RuntimeError):
    """A request failed while executing: a kernel raised, produced a
    shape its spec forbids, or an injected fault fired.  ``retryable``
    depends on the cause (a transient fault is, a deterministic kernel
    bug is not)."""


class BackendCompilationError(ReproError, RuntimeError):
    """An execution backend failed to compile its per-program runner.
    Raised by the emitted runner's module compile, at session build, so
    the compile fails before any request is served."""

    def __init__(self, message: str = "", *, retryable: bool = True,
                 **context) -> None:
        super().__init__(message, retryable=retryable, **context)


class DeadlineExceeded(ReproError, TimeoutError):
    """A request's submit-relative deadline passed before (or while) the
    scheduler could serve it.  Never retryable - the deadline is gone."""


class ServiceClosed(ReproError, RuntimeError):
    """``submit()`` after :meth:`~repro.api.Service.close`: the queue is
    dead and the request was never enqueued."""


class QueueFull(ReproError, RuntimeError):
    """Backpressure: the service queue is at ``max_queue``.  Retryable -
    the queue drains."""

    def __init__(self, message: str = "", *, retryable: bool = True,
                 **context) -> None:
        super().__init__(message, retryable=retryable, **context)


class InvalidOptions(ReproError, ValueError):
    """An options dataclass field is out of range or malformed -
    ``workers=0``, ``max_batch_size=-1``, negative ``max_wait_ms``.
    Raised at construction, naming the field, so misconfiguration
    fails at the front door instead of deep inside the scheduler.
    Never retryable - the same options only fail the same way."""


class RequestCancelled(ReproError, RuntimeError):
    """A queued request was cancelled (``InferenceFuture.cancel()`` or a
    cancelled ``submit_async`` awaitable) before the scheduler executed
    it.  Never retryable - the caller explicitly withdrew the work."""


class WorkerCrashed(ReproError, RuntimeError):
    """The parallel worker pool could not serve a batch: a dispatch
    stalled past its timeout (the stalled workers are replaced before
    this is raised) or a replacement worker failed to start.  Retryable
    - a fresh worker can serve the same request."""

    def __init__(self, message: str = "", *, retryable: bool = True,
                 **context) -> None:
        super().__init__(message, retryable=retryable, **context)


__all__ = [
    "AdmissionError", "BackendCompilationError", "DeadlineExceeded",
    "ExecutionError", "InvalidOptions", "QueueFull", "ReproError",
    "RequestCancelled", "ServiceClosed", "WorkerCrashed",
]
