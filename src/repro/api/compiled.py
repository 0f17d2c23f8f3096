"""``repro.compile``: the typed compile-once front door.

A :class:`CompiledModel` wraps one
:class:`~repro.runtime.session.Session` behind typed
request/response objects with *strict* admission: a request must name
exactly the compiled graph's declared inputs, and every tensor is
checked against the program's
:attr:`~repro.runtime.program.ExecutionProgram.input_signature`, so a
wrong-*name* tensor fails as loudly as a wrong-shape one.

``compile()`` fronts a process-wide :class:`SessionRegistry` keyed on
graph content fingerprints: recompiling a structurally identical user
graph returns the same live session (and its statistics).  Underneath,
the compile caches use the same content key, so even a *private* session
(:func:`compile_private`, :func:`repro.serve`) of a known graph reuses
its lowered program, ``backend_cache``, read-only parameters and cost
report - see the "Caches" table in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir.graph import Graph
from ..runtime.session import (
    Session, SessionRegistry, _admit, _compile_session,
)
from .errors import AdmissionError
from .messages import InferenceRequest, InferenceResponse, as_request
from .options import CompileOptions, merge_options

_REGISTRY = SessionRegistry(max_sessions=64)
"""Process-wide session cache behind :func:`compile`, LRU-bounded so a
long-lived server compiling many distinct triples cannot grow sessions
(graphs, materialized parameters) without bound."""


def session_cache() -> SessionRegistry:
    """The process-wide registry (for explicit ``evict()``/``clear()``)."""
    return _REGISTRY


class CompiledModel:
    """One compiled model serving typed requests.

    The synchronous face of the compile-once/run-many contract:
    :meth:`run` serves one :class:`~repro.api.InferenceRequest` and
    returns an :class:`~repro.api.InferenceResponse` carrying the named
    outputs plus per-request :class:`~repro.runtime.session.RunStats`
    (wall time, estimated on-device latency, the plan's static pool
    report);
    :meth:`run_batch` serves a list through **one** backend invocation.
    Admission is strict - see :meth:`admit`.  Introspection:
    :attr:`input_signature` (the admission spec), :attr:`program` (the
    lowered steps/slot plan), :attr:`est_latency_ms`, :attr:`stats`,
    and :attr:`session` for the underlying execution session.

    Not thread-safe: concurrent callers should go through
    :func:`repro.serve`, whose scheduler owns a private session
    (private stats; the program and parameters are shared, read-only,
    with every session compiled from the same content).
    """

    def __init__(self, session: Session) -> None:
        self._session = session

    # -- introspection -----------------------------------------------------

    @property
    def session(self) -> Session:
        """The underlying execution session (stats, program)."""
        return self._session

    @property
    def graph(self) -> Graph:
        return self._session.graph

    @property
    def program(self):
        return self._session.program

    @property
    def input_signature(self):
        """(name, shape, dtype) per declared input - the admission spec."""
        return self._session.program.input_signature

    @property
    def est_latency_ms(self) -> float:
        return self._session.est_latency_ms

    @property
    def stats(self):
        return self._session.stats

    def make_request(self, seed: int = 0, **meta) -> InferenceRequest:
        """Deterministic random request (tests, warmup, load generators)."""
        return InferenceRequest(inputs=self._session.make_inputs(seed), **meta)

    # -- admission ---------------------------------------------------------

    def admit(self, request: InferenceRequest) -> dict[str, np.ndarray]:
        """Validate one request and merge it over the session parameters.

        Raises :class:`~repro.api.errors.AdmissionError` (a
        :class:`ValueError`) naming the offending tensor for empty
        requests, unknown input names, missing inputs, wrong shapes, and
        wrong dtypes - before anything reaches the backend.  Under a
        symbolic compile the leading dim admits any extent in the served
        bucket range ``1..max_extent`` (shared across the request's
        inputs); everything past the leading dim stays exact.
        """
        return _admit(self._session, request.inputs, request.request_id)

    # -- execution ---------------------------------------------------------

    def run(self, request: InferenceRequest | Mapping[str, np.ndarray],
            ) -> InferenceResponse:
        """Serve one request synchronously."""
        request = as_request(request)
        (outputs, stats), = self._session._serve([request], self.admit)
        return InferenceResponse(
            request_id=request.request_id, outputs=outputs, stats=stats)

    __call__ = run

    def run_batch(self, requests) -> list[InferenceResponse]:
        """Serve a list of requests through one backend invocation - a
        single stacked kernel pass when the program is batch-stackable
        (``stats.batched``), a sequential loop otherwise."""
        if not requests:
            raise AdmissionError(
                "run_batch() needs at least one request; got an empty batch")
        requests = [as_request(r) for r in requests]
        served = self._session._serve(requests, self.admit)
        return [InferenceResponse(request_id=request.request_id,
                                  outputs=outputs, stats=stats,
                                  batch_size=len(served))
                for request, (outputs, stats) in zip(requests, served)]

    def close(self) -> None:
        """Release process-external resources (the parallel backends'
        worker processes and shared-memory segments).  A no-op for the
        in-process backends; idempotent."""
        self._session.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self._session
        return (f"CompiledModel({s.model or s.graph.name!r}, "
                f"framework={s.framework!r}, backend={s.backend!r})")


def compile(model: str | Graph, options: CompileOptions | None = None,
            **overrides) -> CompiledModel:
    """Compile a model into a :class:`CompiledModel` (cached per triple).

    Runs the SmartMem pass pipeline once, lowers the optimized graph to
    an :class:`~repro.runtime.program.ExecutionProgram`, and wraps the
    resulting session behind typed request/response objects.  The
    compile-once/run-many contract holds at process scope: sessions are
    cached on the model's content fingerprint plus the options, so
    repeated compiles - including of a *rebuilt but identical* graph -
    return the same live session and its statistics.

    Arguments:
        model: a catalog name (``"Pythia"``, see
            ``repro.models.ALL_MODELS``) or a built
            :class:`~repro.ir.graph.Graph`.
        options: a :class:`CompileOptions` picking framework, device,
            batch, execution ``backend`` (``"numpy"`` or ``"codegen"``),
            and pipeline stages.  Defaults to ``CompileOptions()``.
        **overrides: loose keyword alternatives for any
            :class:`CompileOptions` field, e.g.
            ``compile(g, backend="codegen")``; they win field-by-field
            over ``options``.

    Returns:
        A :class:`CompiledModel` ready to serve
        :class:`~repro.api.InferenceRequest`\\ s synchronously.  For
        concurrent traffic put it behind :func:`repro.serve` instead.

    Raises:
        RuntimeError: the framework cannot serve the model (capability
            or device-memory limits).
        TypeError: unknown override names, or ``options`` of the wrong
            type.

    Example::

        model = repro.compile("Pythia", repro.CompileOptions(
            backend="codegen"))
        response = model.run(model.make_request(seed=0))
        response.outputs, response.stats.wall_s
    """
    options = merge_options(CompileOptions, options, overrides)
    session = _REGISTRY.compile(
        model, options.framework, options.device, options.batch,
        backend=options.backend, faults=options.faults,
        workers=options.workers,
        check_memory=options.check_memory,
        signature=options.signature, max_extent=options.max_extent,
        **options.framework_kwargs())
    return CompiledModel(session)


def compile_private(model: str | Graph,
                    options: CompileOptions) -> CompiledModel:
    """A CompiledModel over a *private* session (no registry).

    Used by :func:`repro.serve`: a service's scheduler and executor
    threads must own its session exclusively, so it never shares one
    with direct callers.  "Private" means what is per session - stats
    (recorded under the session's lock, as the two threads serve at
    once), fault injector, worker pool.  What is a function of graph
    content - the lowered program and its ``backend_cache`` (runners,
    batch variants, codegen module; each filled once under a lock), the
    parameters (read-only arrays) and the cost report - comes from the
    content-addressed compile cache and is shared with every other
    session of the same model, so re-serving a known graph (by name or
    as a structurally identical rebuilt :class:`~repro.ir.graph.Graph`)
    does not recompile.
    """
    session = _compile_session(
        model, options.framework, options.device, options.batch,
        check_memory=options.check_memory, backend=options.backend,
        faults=options.faults, workers=options.workers,
        signature=options.signature, max_extent=options.max_extent,
        **options.framework_kwargs())
    return CompiledModel(session)
