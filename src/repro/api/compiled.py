"""``repro.compile``: the typed compile-once front door.

A :class:`CompiledModel` wraps one
:class:`~repro.runtime.session.Session` behind typed
request/response objects with *strict* admission: a request must name
exactly the compiled graph's declared inputs, and every tensor is
checked against the program's
:attr:`~repro.runtime.program.ExecutionProgram.input_signature`, so a
wrong-*name* tensor fails as loudly as a wrong-shape one.

``compile()`` builds a private session - its own stats, fault injector
and worker pool - over the content-addressed compile cache, so
compiling a known graph (by name or as a structurally identical rebuilt
:class:`~repro.ir.graph.Graph`) reuses its lowered program,
``backend_cache``, read-only parameters and cost report, and two
threads compiling one graph at once get one program - see the "Caches"
table in ``docs/architecture.md``.
"""

from __future__ import annotations

import weakref
from typing import Mapping

import numpy as np

from ..ir.graph import Graph
from ..runtime.session import Session, _admit, _compile_session
from .errors import AdmissionError
from .messages import InferenceRequest, InferenceResponse, as_request
from .options import CompileOptions, merge_options

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
    :func:`repro.serve`, whose scheduler owns the session.  Every
    :func:`compile` returns its own session (private stats); the program
    and parameters are shared, read-only, with every session compiled
    from the same content.
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
        """Release process-external resources (the parallel backend's
        worker processes and shared-memory segments).  A no-op for the
        in-process runner; idempotent."""
        self._session.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self._session
        return (f"CompiledModel({s.model or s.graph.name!r}, "
                f"framework={s.framework!r}, backend={s.backend!r})")


def compile(model: str | Graph, options: CompileOptions | None = None,
            **overrides) -> CompiledModel:
    """Compile a model into a :class:`CompiledModel` over a private session.

    Runs the SmartMem pass pipeline once per graph content, lowers the
    optimized graph to an
    :class:`~repro.runtime.program.ExecutionProgram`, and wraps a fresh
    session behind typed request/response objects.  The compile-once
    contract holds at process scope on the program, not the session:
    repeated compiles - of a *rebuilt but identical* graph too, and from
    concurrent threads - share one program, its ``backend_cache``, the
    read-only parameters and the cost report, while stats, fault
    injector and worker pool belong to the returned model.  Dropping the
    model releases its worker pool (``close()`` does so at once).

    Arguments:
        model: a catalog name (``"Pythia"``, see
            ``repro.models.ALL_MODELS``) or a built
            :class:`~repro.ir.graph.Graph`.
        options: a :class:`CompileOptions` picking framework, device,
            batch, execution ``backend`` (``"numpy"``, also spelled
            ``"codegen"``, or ``"parallel"``), and pipeline stages.
            Defaults to ``CompileOptions()``.
        **overrides: loose keyword alternatives for any
            :class:`CompileOptions` field, e.g.
            ``compile(g, backend="parallel")``; they win field-by-field
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
            backend="parallel", workers=2))
        response = model.run(model.make_request(seed=0))
        response.outputs, response.stats.wall_s
    """
    options = merge_options(CompileOptions, options, overrides)
    session = _compile_session(
        model, options.framework, options.device, options.batch,
        check_memory=options.check_memory, backend=options.backend,
        faults=options.faults, workers=options.workers,
        signature=options.signature, max_extent=options.max_extent,
        **options.framework_kwargs())
    compiled = CompiledModel(session)
    # This door built the session, so it owns the session's pool: a
    # model dropped without close() still reaps its workers.  (Borrowed
    # sessions wrapped in a CompiledModel elsewhere are not closed.)
    weakref.finalize(compiled, session.close)
    return compiled
