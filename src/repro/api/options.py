"""Typed configuration for the service-layer front doors.

The options dataclasses make every knob named, defaulted, and hashable
(so the compile fields can key the content-addressed compile cache).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields

from ..core.passes import PipelineStages
from ..runtime.device import DeviceSpec, SD8GEN2
from ..runtime.faults import FaultPlan
from .errors import InvalidOptions

_DEPRECATION_WARNED: set[str] = set()
"""Deprecated names that already warned this process (each warns once)."""


def _warn_deprecated(name: str, instead: str, stacklevel: int = 3) -> None:
    if name in _DEPRECATION_WARNED:
        return
    _DEPRECATION_WARNED.add(name)
    warnings.warn(
        f"{name} is deprecated; use {instead} (see the repro.api package)",
        DeprecationWarning, stacklevel=stacklevel)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry schedule for retryable request failures in the scheduler.

    The :class:`~repro.api.Service` re-enqueues a failed request when its
    error is marked ``retryable`` (see :mod:`repro.api.errors`), up to
    ``max_attempts`` total attempts, backing off exponentially:
    attempt ``n`` (0-based) waits ``backoff_ms * 2**n`` milliseconds,
    multiplied by a factor drawn uniformly from ``1 ± jitter``.  A
    request is never retried past its deadline - if the backoff would
    overshoot it, the request fails with
    :class:`~repro.api.errors.DeadlineExceeded` instead of waiting.
    """

    max_attempts: int = 3
    backoff_ms: float = 1.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_ms < 0:
            raise ValueError("backoff_ms cannot be negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")

    def delay_s(self, attempt: int, rng=None) -> float:
        """Backoff before re-enqueueing attempt ``attempt + 1``."""
        delay = self.backoff_ms * (2 ** attempt) / 1e3
        if self.jitter and rng is not None:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return delay


@dataclass(frozen=True)
class CompileOptions:
    """Everything :func:`repro.compile` needs besides the model.

    Fields (all defaulted; the instance is frozen and hashable, so its
    framework, device, batch and stages can key the compile cache):

    * ``framework`` - compiler pipeline to run (``"Ours"`` = SmartMem;
      baseline names from ``repro.baselines.ALL_FRAMEWORKS`` work too).
    * ``device`` - :class:`~repro.runtime.device.DeviceSpec` the cost
      model prices against (default Snapdragon 8 Gen 2).
    * ``batch`` - request batch size built into the graph; only applies
      to registry-name models (build a :class:`~repro.ir.graph.Graph`
      at the desired batch size otherwise).
    * ``backend`` - execution-backend name
      (:func:`repro.runtime.available_backends`): ``"numpy"`` (the
      default; ``"codegen"`` is the same backend) runs the program
      in-process as one generated Python function, emitted at compile
      time; ``"parallel"`` shards micro-batches across a pool of worker
      processes running that same function (see
      :mod:`repro.runtime.parallel_backend`; it needs the ``fork``
      start method, and the compile refuses without it).  Outputs are
      identical; ``RunStats.backend`` reports the canonical name.
    * ``workers`` - worker-process count for the parallel backend
      (ignored by the in-process runner).
    * ``check_memory`` - reject models whose peak footprint exceeds the
      device budget instead of just costing them.
    * ``stages`` - :class:`~repro.core.passes.PipelineStages` feeding
      the SmartMem pass pipeline (ablation toggles, tuned boost).
    * ``faults`` - a :class:`~repro.runtime.faults.FaultPlan` installed
      on the compiled session, deterministically injecting
      latency/kernel/alloc faults at the backend-invocation level and
      worker-process crashes in the ``"parallel"`` pool (reliability
      testing; ``None`` = the ambient ``REPRO_FAULT_SEED`` chaos plan,
      if set).
    * ``signature`` - optional symbolic input signature: a mapping from
      graph-input name to its shape with the *leading* dim replaced by a
      placeholder (``None`` or :data:`repro.ir.symbolic.SYM`), e.g.
      ``{"tokens": (None, 128)}``.  The compiled model then admits any
      leading extent up to ``max_extent`` through one compile - requests
      execute at their exact extent via per-bucket symbolic variants,
      byte-identical to a fresh concrete compile at that extent.
      Unnamed graph inputs default to the same symbolic leading dim (the
      leading extent is shared across inputs by construction).
    * ``max_extent`` - largest leading extent a symbolic compile admits;
      sizes the per-bucket slot plans, conv scratch, and shm layouts.
      Required alongside ``signature``.
    """

    framework: str = "Ours"
    device: DeviceSpec = SD8GEN2
    batch: int = 1
    backend: str = "numpy"
    workers: int = 1
    check_memory: bool = False
    stages: PipelineStages | None = None
    faults: FaultPlan | None = None
    signature: tuple | dict | None = None
    max_extent: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.batch, int) or self.batch < 1:
            raise InvalidOptions(
                f"CompileOptions.batch must be an int >= 1, got {self.batch!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise InvalidOptions(
                f"CompileOptions.workers must be an int >= 1, "
                f"got {self.workers!r}")
        if self.signature is not None:
            from ..ir.symbolic import SymDim
            if isinstance(self.signature, dict):
                items = self.signature.items()
            else:
                items = self.signature
            normalized = []
            for name, shape in items:
                dims = []
                for dim in shape:
                    if dim is None or isinstance(dim, SymDim):
                        dims.append(None)  # hashable placeholder spelling
                    else:
                        dims.append(int(dim))
                if not dims or dims[0] is not None:
                    raise InvalidOptions(
                        f"CompileOptions.signature: input {name!r} must "
                        f"lead with a symbolic placeholder (None/SYM), "
                        f"got {tuple(shape)!r}")
                if any(d is None for d in dims[1:]):
                    raise InvalidOptions(
                        f"CompileOptions.signature: input {name!r}: only "
                        f"the leading dim may be symbolic, got "
                        f"{tuple(shape)!r}")
                normalized.append((str(name), tuple(dims)))
            object.__setattr__(self, "signature", tuple(normalized))
            if not isinstance(self.max_extent, int) or self.max_extent < 1:
                raise InvalidOptions(
                    "CompileOptions.max_extent must be an int >= 1 when a "
                    f"symbolic signature is given, got {self.max_extent!r}")
        elif self.max_extent:
            raise InvalidOptions(
                "CompileOptions.max_extent requires a symbolic signature")

    def framework_kwargs(self) -> dict:
        """Keyword arguments forwarded to the framework constructor."""
        return {} if self.stages is None else {"stages": self.stages}


@dataclass(frozen=True)
class ServeOptions:
    """Scheduler configuration for :func:`repro.serve`.

    Batching is work-conserving: the worker blocks only while the queue
    is empty, then runs up to ``max_batch_size`` of the compatible
    requests queued at that moment as one backend invocation; a lone
    request is never delayed.  ``max_queue`` bounds the request queue
    (``submit`` raises once it is full) so a slow consumer exerts
    backpressure instead of growing memory without bound.
    ``max_wait_ms`` (the old idle hold) is **deprecated**: accepted and
    range-checked, it delays nothing; non-zero warns once per process.
    ``compile`` nests the :class:`CompileOptions` the service's private
    session is compiled with (framework, device, execution backend);
    ``backend`` and ``workers`` are shorthands that override the nested
    compile options, so ``serve(model, backend="parallel", workers=4)``
    works without spelling out a ``CompileOptions``.

    Reliability knobs: ``retry`` is the :class:`RetryPolicy` the
    scheduler applies to retryable request failures (``None``: fail on
    first error); ``faults`` is a
    :class:`~repro.runtime.faults.FaultPlan` whose *service-level* rules
    (those naming a ``request_id``) the scheduler injects per request
    and attempt - kernel faults, worker crashes, latency.

    Out-of-range values raise
    :class:`~repro.api.errors.InvalidOptions` (a :class:`ValueError`)
    at construction, naming the offending field.
    """

    max_batch_size: int = 8
    max_wait_ms: float = 0.0
    max_queue: int | None = None
    backend: str | None = None
    workers: int | None = None
    compile: CompileOptions = field(default_factory=CompileOptions)
    retry: RetryPolicy | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_batch_size, int) or self.max_batch_size < 1:
            raise InvalidOptions(
                f"ServeOptions.max_batch_size must be an int >= 1, "
                f"got {self.max_batch_size!r}")
        if self.max_wait_ms < 0:
            raise InvalidOptions(
                f"ServeOptions.max_wait_ms cannot be negative, "
                f"got {self.max_wait_ms!r}")
        if self.max_wait_ms:  # stacklevel 4: past the generated __init__
            _warn_deprecated("ServeOptions.max_wait_ms", "the default: "
                             "it no longer delays anything", stacklevel=4)
        if self.max_queue is not None and self.max_queue < 1:
            raise InvalidOptions(
                f"ServeOptions.max_queue must be at least 1, "
                f"got {self.max_queue!r}")
        if self.workers is not None and (
                not isinstance(self.workers, int) or self.workers < 1):
            raise InvalidOptions(
                f"ServeOptions.workers must be an int >= 1, "
                f"got {self.workers!r}")

    def resolved_compile(self) -> CompileOptions:
        """The nested compile options with the ``backend``/``workers``
        shorthands folded in (shorthand wins when set)."""
        from dataclasses import replace
        overrides = {}
        if self.backend is not None:
            overrides["backend"] = self.backend
        if self.workers is not None:
            overrides["workers"] = self.workers
        return replace(self.compile, **overrides) if overrides else self.compile


def merge_options(cls, options, overrides: dict):
    """One options object from an optional instance + keyword overrides.

    Lets the front doors accept either a prebuilt dataclass, loose
    keywords, or both (keywords win field-by-field).
    """
    if options is None:
        return cls(**overrides)
    if not isinstance(options, cls):
        raise TypeError(
            f"options must be {cls.__name__}, got {type(options).__name__}")
    if not overrides:
        return options
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise TypeError(f"unknown {cls.__name__} fields: {unknown}")
    merged = {f.name: getattr(options, f.name) for f in fields(cls)}
    merged.update(overrides)
    return cls(**merged)
