"""Typed request/response objects for the service layer.

Requests carry *named input tensors* plus scheduling metadata (id,
priority, deadline); responses carry the named outputs plus the
per-request :class:`~repro.runtime.session.RunStats` the session
recorded, so callers observe wall time and the serving plan's pool
report per request without reaching into the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..runtime.session import RunStats


@dataclass
class InferenceRequest:
    """One inference request against a compiled model.

    ``inputs`` maps graph-input names to arrays and must cover exactly
    the compiled model's declared inputs - unknown names, missing names,
    wrong shapes, and wrong dtypes are all rejected at admission with an
    error naming the tensor.

    ``request_id`` is echoed on the response (the scheduler substitutes
    its submission index when ``None``); ``priority`` orders queued
    requests (higher drains first, default ``0`` rides the FIFO fast
    path); ``deadline_ms`` is a submit-relative deadline after which the
    scheduler fails the request with :class:`TimeoutError` instead of
    executing it (``None``: never expires).  Scheduling metadata is
    ignored by the synchronous :meth:`CompiledModel.run` path, which
    executes immediately.
    """

    inputs: Mapping[str, np.ndarray]
    request_id: str | int | None = None
    priority: int = 0
    deadline_ms: float | None = None


@dataclass
class InferenceResponse:
    """The result of one served request.

    ``outputs`` maps graph-output names to arrays (:meth:`output` picks
    one, or the sole output when unnamed).  ``stats`` is the session's
    per-request accounting (``wall_s``, ``est_latency_ms``, and ``pool``
    - the static slot-plan report of the program or variant that served
    the request, in bytes of the graph's dtypes, not what the allocator
    did).  ``batch_size`` reports how many requests shared the backend
    invocation that produced this response.  When that invocation was a
    *stacked* kernel pass, ``stats.batched`` is True and the
    attribution is shared: ``stats.pool`` is the bucket variant's report
    (identical object across the batchmates) and ``stats.wall_s``
    carries this request's even share of the stacked execution time.  ``queued_ms`` is the time
    the request spent waiting to be coalesced (always ``0.0`` on the
    synchronous path); ``attempts`` counts executions of the request
    (``> 1`` only when the scheduler's :class:`~repro.api.RetryPolicy`
    re-enqueued a retryable failure).
    """

    request_id: str | int | None
    outputs: dict[str, np.ndarray]
    stats: RunStats
    batch_size: int = 1
    queued_ms: float = 0.0
    attempts: int = 1

    def output(self, name: str | None = None) -> np.ndarray:
        """One output array - by name, or the sole output when unnamed."""
        if name is not None:
            return self.outputs[name]
        if len(self.outputs) != 1:
            raise ValueError(
                f"model has {len(self.outputs)} outputs "
                f"({sorted(self.outputs)}); pass a name")
        return next(iter(self.outputs.values()))


def as_request(obj: InferenceRequest | Mapping[str, np.ndarray],
               ) -> InferenceRequest:
    """Adopt a plain inputs mapping as an :class:`InferenceRequest`."""
    if isinstance(obj, InferenceRequest):
        return obj
    if isinstance(obj, Mapping):
        return InferenceRequest(inputs=obj)
    raise TypeError(
        "expected an InferenceRequest or a {name: ndarray} mapping, "
        f"got {type(obj).__name__}")
