"""``repro.serve``: a compiled model behind a micro-batching scheduler.

A :class:`Service` owns a private session (its own stats over a program
and parameters shared by content) and a scheduler thread draining a
thread-safe priority queue.  Concurrent ``submit()`` calls are admitted
in the submitting thread (fail-fast, and off the scheduler's critical
path), queued, and coalesced into **one** backend invocation on the
lowered program path.  Batching is *work-conserving*: the scheduler
blocks only while the queue is empty, then takes up to
``max_batch_size`` of the requests queued right then - the running batch
is the coalescing window, and an idle scheduler never holds a request
back (the old hold, ``ServeOptions.max_wait_ms``, is deprecated).  A
*heavy* batch - one whose pass moves at least :data:`HEAVY_STEP_BYTES`
per step - goes to a second, executor thread when that one is idle, so
two kernel-bound passes run at once (numpy drops the GIL inside BLAS
and ufunc loops); light batches run on the scheduler thread
(``ServiceReport.offloaded_batches`` counts the hand-offs).  When the program is
batch-stackable (:func:`repro.runtime.batching.analyze`), that
invocation is a single *stacked* kernel pass: request tensors
concatenated along the batch axis, one kernel call per step for the
whole micro-batch (``ServiceReport.stacked_batches`` counts these) -
amortizing the kernel work itself, not just dispatch.  Results come
back through lightweight futures; the whole batch's futures are
resolved under one lock acquisition.

Failure semantics (see ``docs/architecture.md`` for the full contract):

* every scheduler-side failure is a typed :mod:`repro.api.errors` error
  naming the request - :class:`~repro.api.errors.ServiceClosed` for
  submits after :meth:`Service.close`,
  :class:`~repro.api.errors.QueueFull` for backpressure,
  :class:`~repro.api.errors.DeadlineExceeded` for deadline misses,
  :class:`~repro.api.errors.ExecutionError` for executor failures;
* a faulting request inside a coalesced micro-batch is **isolated**:
  the batch is re-run request-by-request so one bad request cannot fail
  its batchmates;
* with a :class:`~repro.api.RetryPolicy` on the options, retryable
  failures are re-enqueued with exponential backoff - never past the
  request's deadline;
* both threads are **supervised**: if one crashes, a replacement is
  spawned, unresolved in-flight requests are rescued back onto the
  front of the queue, and the crash is counted in :meth:`Service.report`.

    service = repro.serve("Pythia")
    futures = [service.submit(req) for req in requests]
    responses = [f.result() for f in futures]
    print(service.report().throughput_rps)
    service.close()                     # drains the queue, joins the threads
"""

from __future__ import annotations

import asyncio
import heapq
import logging
import math
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..ir.graph import Graph
from ..runtime.batching import analyze
from ..runtime.faults import InjectedCrash
from ..runtime.parallel_backend import _available_cpus
from .compiled import CompiledModel, compile
from .errors import (
    DeadlineExceeded, ExecutionError, QueueFull, ReproError,
    RequestCancelled, ServiceClosed,
)
from .messages import InferenceRequest, InferenceResponse, as_request
from .options import ServeOptions, merge_options

logger = logging.getLogger("repro.api.service")

_MAX_RESCUES = 2
"""Times one request may be rescued from a crashed worker before it is
failed as poisonous (a request whose execution keeps killing workers
must not crash-loop the service forever)."""

HEAVY_STEP_BYTES = 512 * 1024
"""A batch is *heavy* - run on the executor thread beside the scheduler's
pass - when its pass moves at least this much static traffic per step:
the base program's mean ``Step.bytes_read + bytes_written``, times the
rows per pass (``n`` stacked, 1 sequential).  numpy drops the GIL inside
BLAS and ufunc loops, so two heavy passes overlap; light, dispatch-bound
passes serialise on the GIL and would only lose to the hand-off."""


class InferenceFuture:
    """Handle to one submitted request.

    ``result()`` blocks until the scheduler resolves the request - with
    its :class:`~repro.api.InferenceResponse`, or by raising the error
    the request failed with (deadline misses raise
    :class:`~repro.api.errors.DeadlineExceeded`, a ``TimeoutError``).
    Futures share their service's condition variable, so resolving a
    coalesced batch wakes every waiter with one notification.
    ``add_done_callback`` registers resolution hooks (how
    :meth:`Service.submit_async` bridges to asyncio), and ``cancel``
    withdraws a still-queued request with
    :class:`~repro.api.errors.RequestCancelled`.
    """

    __slots__ = ("_service", "_response", "_error", "_resolved",
                 "_callbacks", "_request_id")

    def __init__(self, service: "Service") -> None:
        self._service = service
        self._response: InferenceResponse | None = None
        self._error: BaseException | None = None
        self._resolved = False
        self._callbacks: tuple = ()
        self._request_id: str | int | None = None

    def done(self) -> bool:
        return self._resolved

    def add_done_callback(self, fn) -> None:
        """Call ``fn(self)`` once the future resolves (immediately when
        it already has).  Callbacks run under the service lock in the
        resolving thread - keep them tiny and non-blocking (e.g.
        ``loop.call_soon_threadsafe``)."""
        with self._service._lock:
            if not self._resolved:
                self._callbacks += (fn,)
                return
        fn(self)

    def cancel(self) -> bool:
        """Withdraw the request if the scheduler has not resolved it
        yet; True when this call cancelled it.  A cancelled future's
        ``result()`` raises :class:`~repro.api.errors.RequestCancelled`;
        the scheduler drops the entry at dequeue time."""
        service = self._service
        with service._lock:
            if self._resolved:
                return False
            service._cancelled += 1
            _finish(self, error=RequestCancelled(
                f"request {self._request_id!r} cancelled before execution",
                request_id=self._request_id))
            service._completed.notify_all()
        return True

    def cancelled(self) -> bool:
        return self._resolved and isinstance(self._error, RequestCancelled)

    def result(self, timeout: float | None = None) -> InferenceResponse:
        if not self._resolved:
            deadline = None if timeout is None \
                else time.monotonic() + timeout
            with self._service._completed:
                while not self._resolved:
                    remaining = None if deadline is None \
                        else deadline - time.monotonic()
                    if remaining is not None and remaining <= 0:
                        raise TimeoutError("request is still pending")
                    self._service._completed.wait(remaining)
        if self._error is not None:
            raise self._error
        return self._response

    def exception(self, timeout: float | None = None) -> BaseException | None:
        try:
            self.result(timeout)
        except BaseException as err:  # noqa: BLE001 - the stored failure
            if err is self._error:
                return err
            raise  # still pending after `timeout`
        return None


def _finish(future: InferenceFuture, response=None, error=None) -> None:
    """Resolve a future and fire its done-callbacks.

    Must be called with the owning service's lock held (every resolution
    site already holds it); callers still notify ``_completed``
    themselves, usually once per batch.
    """
    future._response = response
    future._error = error
    future._resolved = True
    callbacks, future._callbacks = future._callbacks, ()
    for fn in callbacks:
        try:
            fn(future)
        except Exception:  # noqa: BLE001 - a hook must not kill the worker
            logger.exception("InferenceFuture done-callback raised")


class _Pending:
    """One queued request: heap-ordered by (priority desc, arrival)."""

    __slots__ = ("order", "priority", "request_id", "values", "future",
                 "enqueued_s", "deadline_s", "attempt", "rescues")

    def __init__(self, order, priority, request_id, values, future,
                 enqueued_s, deadline_s) -> None:
        self.order = order
        self.priority = priority
        self.request_id = request_id
        self.values = values
        self.future = future
        self.enqueued_s = enqueued_s
        self.deadline_s = deadline_s
        self.attempt = 0
        """0-based execution attempt (bumped by each retry re-enqueue)."""
        self.rescues = 0
        """Times this entry was rescued from a crashed worker."""

    def __lt__(self, other: "_Pending") -> bool:
        if self.priority != other.priority:
            return self.priority > other.priority  # higher drains first
        return self.order < other.order


@dataclass
class ServiceReport:
    """Lifetime scheduler statistics, surfaced by :meth:`Service.report`."""

    requests: int
    batches: int
    stacked_batches: int
    """Coalesced batches served as ONE stacked kernel pass (the bucket's
    stacked program variant) instead of a sequential per-request loop."""
    offloaded_batches: int
    """Batches served on the executor thread: heavy batches the
    scheduler handed off, plus those the executor took itself after
    finishing one.  0 when the executor never started (light traffic,
    one usable CPU, a request-sharding backend)."""
    mean_batch_size: float
    largest_batch: int
    queue_depth: int
    queue_depth_peak: int
    expired: int
    failed: int
    cancelled: int
    """Requests withdrawn (``InferenceFuture.cancel()`` / cancelled
    ``submit_async`` awaitables) before the scheduler executed them."""
    retries: int
    """Retryable failures re-enqueued under the :class:`RetryPolicy`."""
    isolated: int
    """Requests re-run solo after their coalesced batch failed."""
    worker_restarts: int
    """Workers lost and replaced: scheduler- and executor-thread crashes
    survived by spawning a replacement thread, plus worker-*process*
    respawns performed by the parallel backend's pool."""
    fallbacks: int
    """Shards the process pool rescued in-process past their respawn
    budget (:attr:`~repro.runtime.session.SessionStats.fallbacks`)."""
    total_exec_s: float
    throughput_rps: float
    """Executor-side rate: requests served per second of backend time."""
    closed: bool


class Service:
    """A compiled model served by a dynamic micro-batching scheduler.

    Thread-safe: any number of threads may ``submit()`` concurrently.
    The service owns its session exclusively.  Execution happens on at
    most two threads: the scheduler runs light batches itself, and hands
    a heavy one (:data:`HEAVY_STEP_BYTES`) to an executor thread when
    that one is idle.  The executor is spawned on the first heavy batch,
    and never when the process may use one CPU only or the backend
    shards requests across worker processes.  The two passes share only
    read-only programs and parameters; each thread has its own conv
    scratch, and the session's stats are recorded under a lock.

    Request lifecycle: :meth:`submit` admits the request in the calling
    thread (malformed requests raise
    :class:`~repro.api.errors.AdmissionError` immediately), enqueues it
    (FIFO for default priority, heap for prioritized;
    :class:`~repro.api.errors.QueueFull` once ``max_queue`` is hit), and
    returns an :class:`InferenceFuture`.  The scheduler sleeps only
    while the queue is empty, then takes up to ``max_batch_size`` live
    queued requests - what arrived while the previous batch ran, never
    held to let a batch fill (``max_wait_ms`` is deprecated and ignored)
    - into one ``backend.run_many`` invocation, on itself or on the
    executor; when the executor finishes a batch it takes the next one
    itself only if the queue already holds a heavy batch.  Expired deadlines resolve
    their futures with :class:`~repro.api.errors.DeadlineExceeded`, an
    executor failure is isolated per request (and retried under the
    options' :class:`~repro.api.RetryPolicy` when retryable).
    :meth:`infer` is the synchronous convenience, :meth:`report`
    snapshots lifetime statistics, and :meth:`close` (or using the
    service as a context manager) drains the queue - including pending
    retries and the executor's batch - and joins both threads.
    ``close()`` is idempotent;
    :meth:`submit` after it raises
    :class:`~repro.api.errors.ServiceClosed` without enqueueing.
    """

    def __init__(self, compiled: CompiledModel, options: ServeOptions,
                 _start: bool = True) -> None:
        self._compiled = compiled
        self._options = options
        session = compiled.session
        self._session = session
        self._program = session.program
        self._batch_key = self._program.batch_key
        self._max_batch = options.max_batch_size
        self._max_queue = options.max_queue
        self._retry = options.retry
        self._injector = options.faults.injector() \
            if options.faults is not None else None
        self._rng = random.Random(
            options.faults.seed if options.faults is not None else 0)

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)      # producer -> worker
        self._completed = threading.Condition(self._lock)  # worker -> waiters
        self._handed = threading.Condition(self._lock)    # worker -> executor thread
        # Default-priority requests ride a FIFO deque (O(1) C-speed ends,
        # no Python-level comparisons on the submit hot path); the heap
        # only engages for requests with an explicit priority.
        self._fifo: deque[_Pending] = deque()
        self._heap: list[_Pending] = []
        self._submitted = 0
        self._closed = False

        self._requests = 0
        self._batches = 0
        self._stacked = 0
        self._offloaded = 0
        self._expired = 0
        self._failed = 0
        self._cancelled = 0
        self._retries = 0
        self._isolated = 0
        self._worker_restarts = 0
        self._pending_retries = 0
        self._largest_batch = 0
        self._queue_peak = 0
        self._total_exec_s = 0.0

        # A "parallel" session gets its worker pool *now*, before the
        # scheduler thread exists: forking from an effectively
        # single-threaded parent is the safe point, and the pool's
        # segment capacity must cover a full micro-batch.  A pool that
        # fails to start fails the serve.
        if session.backend == "parallel":
            session.parallel_capacity = max(session.parallel_capacity,
                                            self._max_batch)
            session.ensure_parallel_pool()

        # The executor thread and its one hand-off slot.  The scheduler
        # sets `_executor_busy` when it hands a batch over; the executor
        # clears it when it goes idle.
        self._heavy_from = self._smallest_heavy_batch()
        self._executor: threading.Thread | None = None
        self._executor_busy = False
        self._handoff: list[_Pending] | None = None
        self._executor_stop = False

        self._worker: threading.Thread | None = None
        if _start:
            self._worker = self._spawn_worker()

    def _spawn_worker(self) -> threading.Thread:
        return self._spawn(self._drain_loop, "")

    def _spawn(self, target, role: str) -> threading.Thread:
        session = self._session
        thread = threading.Thread(
            target=target, daemon=True,
            name=f"repro-service{role}-{session.model or session.graph.name}")
        thread.start()
        return thread

    def _smallest_heavy_batch(self) -> int | None:
        """The smallest heavy batch size, or None when no batch is
        heavy - including when the executor is off: the backend shards
        requests across worker processes, or this process may use one
        CPU only."""
        steps = self._program.steps
        if self._session.backend == "parallel" or _available_cpus() < 2 \
                or not steps:
            return None
        traffic = sum(step.bytes_read + step.bytes_written
                      for step in steps) / len(steps)
        if traffic >= HEAVY_STEP_BYTES:
            return 1
        if not traffic or not analyze(self._program).stackable:
            return None
        smallest = math.ceil(HEAVY_STEP_BYTES / traffic)
        return smallest if smallest <= self._max_batch else None

    def _heavy(self, size: int) -> bool:
        return self._heavy_from is not None and size >= self._heavy_from

    # -- introspection -----------------------------------------------------

    @property
    def compiled(self) -> CompiledModel:
        return self._compiled

    @property
    def program(self):
        return self._program

    @property
    def batch_key(self):
        """The coalescing contract this service schedules under.

        Every request is admitted against the one program carrying this
        key, which is what licenses unconditional coalescing in
        :meth:`_next_batch`; a multi-program scheduler would group its
        queue by this token before batching.
        """
        return self._batch_key

    @property
    def options(self) -> ServeOptions:
        return self._options

    @property
    def queue_depth(self) -> int:
        return len(self._fifo) + len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def report(self) -> ServiceReport:
        """Snapshot of the scheduler's lifetime statistics."""
        with self._lock:
            requests = self._requests
            batches = self._batches
            total_exec_s = self._total_exec_s
            return ServiceReport(
                requests=requests,
                batches=batches,
                stacked_batches=self._stacked,
                offloaded_batches=self._offloaded,
                mean_batch_size=requests / batches if batches else 0.0,
                largest_batch=self._largest_batch,
                queue_depth=self.queue_depth,
                queue_depth_peak=self._queue_peak,
                expired=self._expired,
                failed=self._failed,
                cancelled=self._cancelled,
                retries=self._retries,
                isolated=self._isolated,
                worker_restarts=self._worker_restarts
                + self._session.parallel_restarts,
                fallbacks=self._session.stats.fallbacks,
                total_exec_s=total_exec_s,
                throughput_rps=requests / total_exec_s
                if total_exec_s else 0.0,
                closed=self._closed,
            )

    def _pop_next(self) -> _Pending:
        """Next entry by (priority desc, arrival): FIFO unless an
        explicitly prioritized entry outranks the FIFO head."""
        fifo, heap = self._fifo, self._heap
        if heap and (not fifo or heap[0] < fifo[0]):
            return heapq.heappop(heap)
        return fifo.popleft()

    # -- submission --------------------------------------------------------

    def submit(self, request: InferenceRequest | Mapping[str, np.ndarray],
               ) -> InferenceFuture:
        """Queue one request; returns a future resolving to its response.

        Admission runs here, in the submitting thread: malformed
        requests (empty, unknown/missing tensor names, wrong
        shape/dtype) raise :class:`~repro.api.errors.AdmissionError`
        immediately, and the per-request merge work overlaps the
        worker's execution of earlier batches.  After :meth:`close`,
        raises :class:`~repro.api.errors.ServiceClosed` without
        enqueueing; at ``max_queue``, raises
        :class:`~repro.api.errors.QueueFull` (retryable backpressure).
        """
        request = as_request(request)
        values = self._compiled.admit(request)
        future = InferenceFuture(self)
        now = time.monotonic()
        deadline_s = None if request.deadline_ms is None \
            else now + request.deadline_ms / 1e3
        priority = request.priority
        with self._lock:
            if self._closed:
                raise ServiceClosed(
                    "service is closed", request_id=request.request_id,
                    model=self._session.model or self._session.graph.name)
            depth = self.queue_depth
            if self._max_queue is not None and depth >= self._max_queue:
                raise QueueFull(
                    f"service queue is full ({self._max_queue} requests)",
                    request_id=request.request_id,
                    model=self._session.model or self._session.graph.name)
            order = self._submitted
            self._submitted += 1
            request_id = request.request_id \
                if request.request_id is not None else order
            future._request_id = request_id
            entry = _Pending(order, priority, request_id, values, future,
                             now, deadline_s)
            if priority == 0:
                self._fifo.append(entry)
            else:
                heapq.heappush(self._heap, entry)
            if depth + 1 > self._queue_peak:
                self._queue_peak = depth + 1
            self._work.notify()
        return future

    def infer(self, request: InferenceRequest | Mapping[str, np.ndarray],
              timeout: float | None = None) -> InferenceResponse:
        """Synchronous convenience: ``submit(request).result()``."""
        return self.submit(request).result(timeout)

    def submit_async(self, request: InferenceRequest |
                     Mapping[str, np.ndarray]) -> "asyncio.Future":
        """Queue one request and return an awaitable for its response.

        The asyncio-native front door: must be called from a running
        event loop, admits and enqueues exactly like :meth:`submit`
        (admission/backpressure errors raise here, synchronously), and
        resolves the returned :class:`asyncio.Future` on the caller's
        loop when the scheduler settles the request - so one event loop
        can hold thousands of in-flight awaitables over a single
        worker-thread (or worker-process pool) executor::

            response = await service.submit_async(request)

        Failures arrive as the same typed errors the sync path raises
        (``await`` re-raises :class:`~repro.api.errors.DeadlineExceeded`
        etc.).  Cancelling the awaitable cancels the underlying request:
        if it is still queued it settles with
        :class:`~repro.api.errors.RequestCancelled` and never executes.
        """
        loop = asyncio.get_running_loop()
        aio_future = loop.create_future()
        future = self.submit(request)

        def bridge(resolved: InferenceFuture) -> None:
            def settle() -> None:
                if aio_future.cancelled():
                    return
                if resolved._error is not None:
                    aio_future.set_exception(resolved._error)
                else:
                    aio_future.set_result(resolved._response)
            try:
                loop.call_soon_threadsafe(settle)
            except RuntimeError:  # loop already closed: nobody awaits
                pass

        future.add_done_callback(bridge)

        def propagate_cancel(done: "asyncio.Future") -> None:
            if done.cancelled():
                future.cancel()

        aio_future.add_done_callback(propagate_cancel)
        return aio_future

    # -- lifecycle ---------------------------------------------------------

    def close(self, timeout: float | None = None) -> None:
        """Graceful shutdown: drain the queue, then join both threads.

        Every request submitted before ``close()`` is served - pending
        retry backoffs and the executor's batch included; later
        ``submit()`` calls raise
        :class:`~repro.api.errors.ServiceClosed`.  Idempotent (closing a
        closed service is a no-op beyond re-joining dead threads).  Once
        the scheduler has drained - it exits only when the executor is
        idle, and then stops it - the session's process-external
        resources - the parallel backend's worker processes and every
        shared-memory segment - are released too.
        """
        with self._lock:
            self._closed = True
            self._work.notify_all()
        # Either thread may be replaced by the supervisor while we join
        # (a crash during drain): follow each replacement chain.
        for role in ("_worker", "_executor"):
            while True:
                thread = getattr(self, role)
                if thread is None:
                    break
                thread.join(timeout)
                if thread.is_alive():  # timeout expired with work left
                    return
                if getattr(self, role) is thread:
                    break
        self._session.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the scheduler -----------------------------------------------------

    def _next_batch(self) -> list[_Pending] | None:
        """Block while the queue is empty, then take what is queued.

        Work-conserving: up to ``max_batch_size`` live entries queued
        right now - whatever arrived while the previous batch ran; an
        idle scheduler never waits for a batch to fill.  Entries
        cancelled while queued are skipped, so they take no slot from a
        live request.  On shutdown the scheduler exits only once the
        queue, the pending retry backoffs *and* the executor are
        drained, so a retried or rescued request submitted before
        ``close()`` still resolves; it then stops the executor.
        """
        with self._lock:
            while True:
                batch = self._take()
                if batch:
                    return batch
                if self._closed and self._pending_retries == 0 \
                        and not self._executor_busy:
                    self._executor_stop = True
                    self._handed.notify_all()
                    return None
                self._work.wait()

    def _take(self) -> list[_Pending]:
        """Up to ``max_batch_size`` live queued entries (lock held)."""
        batch: list[_Pending] = []
        while len(batch) < self._max_batch and self.queue_depth:
            entry = self._pop_next()
            if not entry.future._resolved:
                batch.append(entry)
        return batch

    def _drain_loop(self) -> None:
        batch: list[_Pending] | None = None
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return
                if not self._hand_off(batch):
                    self._execute(batch)
                batch = None
        except BaseException as err:  # noqa: BLE001 - worker crashed
            self._supervise(err, batch or [])

    def _hand_off(self, batch: list[_Pending]) -> bool:
        """Give a heavy batch to the idle executor (spawned on first
        need); False when the batch is light or the executor is busy -
        the scheduler then runs it itself."""
        if not self._heavy(len(batch)):
            return False
        with self._lock:
            if self._executor_busy:
                return False
            self._executor_busy = True
            self._handoff = batch
            if self._executor is None:
                self._executor = self._spawn(self._executor_loop, "-exec")
            self._handed.notify()
        return True

    def _executor_loop(self) -> None:
        """Run handed-off batches; after each, take the next batch
        itself only if the queue already holds a heavy one."""
        batch: list[_Pending] | None = None
        try:
            while True:
                with self._lock:
                    while self._handoff is None:
                        if self._executor_stop:
                            return
                        self._handed.wait()
                    batch, self._handoff = self._handoff, None
                while batch:
                    self._execute(batch, offloaded=True)
                    with self._lock:
                        batch = None
                        if self._heavy(min(self.queue_depth,
                                           self._max_batch)):
                            batch = self._take()
                        if not batch:
                            self._executor_busy = False
                            self._work.notify_all()  # a closing scheduler
        except BaseException as err:  # noqa: BLE001 - executor crashed
            self._supervise(err, batch or [], executor=True)

    def _supervise(self, err: BaseException, batch: list[_Pending],
                   executor: bool = False) -> None:
        """A thread crashed: rescue its in-flight batch, spawn a
        replacement thread, count the restart.

        Unresolved in-flight entries go back to the *front* of the
        queue; an entry that keeps crashing workers is failed after
        ``_MAX_RESCUES`` rescues instead of crash-looping the service.
        A replacement executor starts idle, waiting for a hand-off.
        """
        unresolved = [e for e in batch if not e.future._resolved]
        with self._lock:
            if executor:
                self._executor_busy = False
            self._worker_restarts += 1
            restarts = self._worker_restarts
            poisoned = 0
            for entry in reversed(unresolved):
                entry.rescues += 1
                if entry.rescues > _MAX_RESCUES:
                    _finish(entry.future, error=ExecutionError(
                        f"request {entry.request_id!r} crashed the worker "
                        f"{entry.rescues} times; giving up ({err})",
                        request_id=entry.request_id))
                    self._failed += 1
                    poisoned += 1
                else:
                    self._fifo.appendleft(entry)
            if poisoned:
                self._completed.notify_all()
            self._work.notify_all()
        logger.error(
            "service %s crashed (%s: %s); restart #%d, %d in-flight "
            "request(s) rescued", "executor" if executor else "worker",
            type(err).__name__, err, restarts, len(unresolved) - poisoned)
        if executor:
            self._executor = self._spawn(self._executor_loop, "-exec")
        else:
            self._worker = self._spawn_worker()

    def _run_entries(self, entries: list[_Pending]):
        """One recorded backend invocation over ``entries``
        (``[(outputs, RunStats)]``), with service-level fault injection.

        Injected kernel faults and crashes fire as pure functions of
        ``(request_id, attempt)`` (crashes consume a budget), so a fault
        observed in a coalesced batch fires identically when the entry
        is isolated or retried - which is what makes the reliability
        tests deterministic.  Entries' value dicts are passed as copies:
        the runners mutate values in place, and isolation/retry must
        replay pristine inputs.
        """
        injector = self._injector
        if injector is not None:
            for entry in entries:
                for rule in injector.request_faults(
                        entry.request_id, entry.attempt):
                    if rule.kind == "crash":
                        raise InjectedCrash(
                            f"injected worker crash "
                            f"(request {entry.request_id!r})")
                    if rule.kind == "latency":
                        time.sleep(rule.latency_ms / 1e3)
                    elif rule.kind in ("kernel", "alloc"):
                        raise ExecutionError(
                            "injected kernel fault" if rule.kind == "kernel"
                            else "injected allocation failure",
                            request_id=entry.request_id,
                            retryable=rule.retryable)
        return self._session._serve(
            [dict(entry.values) for entry in entries])

    def _execute(self, batch: list[_Pending],
                 offloaded: bool = False) -> None:
        """Run one coalesced batch in the calling thread; isolate
        failures per request.  ``offloaded``: the calling thread is the
        executor."""
        # Cancelled since `_next_batch` popped them (or before an
        # isolation re-run): their future is resolved, drop them.
        batch = [entry for entry in batch if not entry.future._resolved]
        dequeued = time.monotonic()
        expired: list[_Pending] = []
        live: list[_Pending] = []
        for entry in batch:
            if entry.deadline_s is not None and dequeued > entry.deadline_s:
                expired.append(entry)
            else:
                live.append(entry)
        if expired:
            with self._lock:
                for entry in expired:
                    _finish(entry.future, error=DeadlineExceeded(
                        f"request {entry.request_id!r} missed its deadline "
                        f"({(dequeued - entry.enqueued_s) * 1e3:.1f} ms "
                        f"queued)", request_id=entry.request_id))
                self._expired += len(expired)
                self._completed.notify_all()
        if not live:
            return

        perf = time.perf_counter
        start = perf()
        try:
            served = self._run_entries(live)
        except InjectedCrash:
            raise  # kills the worker; supervision absorbs it
        except Exception as err:  # noqa: BLE001 - executor failure
            if len(live) == 1:
                self._settle_failure(live[0], err)
                return
            # Per-request isolation: re-run each request solo so one
            # faulting request cannot fail its batchmates.
            with self._lock:
                self._isolated += len(live)
            logger.warning(
                "batch of %d failed (%s: %s); isolating request-by-request",
                len(live), type(err).__name__, err)
            for entry in live:
                self._execute([entry], offloaded)
            return
        exec_s = perf() - start

        n = len(live)
        resolved = []
        for entry, (outputs, stats) in zip(live, served):
            resolved.append((entry.future, InferenceResponse(
                request_id=entry.request_id, outputs=outputs, stats=stats,
                batch_size=n,
                queued_ms=(dequeued - entry.enqueued_s) * 1e3,
                attempts=entry.attempt + 1)))
        with self._lock:
            for future, response in resolved:
                _finish(future, response=response)
            self._requests += n
            self._batches += 1
            if served[0][1].batched:  # one invocation: same for every row
                self._stacked += 1
            if offloaded:
                self._offloaded += 1
            self._total_exec_s += exec_s
            if n > self._largest_batch:
                self._largest_batch = n
            self._completed.notify_all()

    def _settle_failure(self, entry: _Pending, err: BaseException) -> None:
        """One request failed solo: retry it if the policy allows,
        otherwise fail its future with a request-attributed error."""
        policy = self._retry
        retryable = isinstance(err, ReproError) and err.retryable
        if policy is not None and retryable \
                and entry.attempt + 1 < policy.max_attempts:
            delay_s = policy.delay_s(entry.attempt, self._rng)
            if entry.deadline_s is None \
                    or time.monotonic() + delay_s <= entry.deadline_s:
                entry.attempt += 1
                with self._lock:
                    self._retries += 1
                    self._pending_retries += 1
                timer = threading.Timer(
                    delay_s, self._requeue, args=(entry,))
                timer.daemon = True
                timer.start()
                return
            # Retryable, but the backoff would overshoot the deadline.
            with self._lock:
                _finish(entry.future, error=DeadlineExceeded(
                    f"request {entry.request_id!r} missed its deadline: "
                    f"retry backoff would overshoot it after "
                    f"{entry.attempt + 1} attempt(s) ({err})",
                    request_id=entry.request_id))
                self._expired += 1
                self._completed.notify_all()
            return
        with self._lock:
            _finish(entry.future, error=self._attribute(entry, err))
            self._failed += 1
            self._completed.notify_all()

    @staticmethod
    def _attribute(entry: _Pending, err: BaseException) -> BaseException:
        """An executor failure re-raised with the request named in the
        message (multi-client logs must be attributable per request)."""
        if isinstance(err, ReproError):
            wrapped = type(err)(
                f"request {entry.request_id!r}: {err}",
                request_id=entry.request_id, model=err.model,
                fingerprint=err.fingerprint, backend=err.backend,
                retryable=err.retryable)
        else:
            wrapped = ExecutionError(
                f"request {entry.request_id!r}: {err}",
                request_id=entry.request_id)
        wrapped.__cause__ = err
        return wrapped

    def _requeue(self, entry: _Pending) -> None:
        """Timer callback: put a backed-off retry back on the queue."""
        with self._lock:
            self._pending_retries -= 1
            if entry.priority == 0:
                self._fifo.append(entry)
            else:
                heapq.heappush(self._heap, entry)
            self._work.notify()


def serve(model: str | Graph, options: ServeOptions | None = None,
          **overrides) -> Service:
    """Compile ``model`` and stand up a :class:`Service` in front of it.

    The concurrent face of the serving stack: any number of threads may
    ``submit()`` requests; a scheduler thread coalesces them into
    micro-batches on the lowered program path and resolves futures,
    running heavy batches on a second, executor thread when it is idle.

    Arguments:
        model: a catalog name or a built :class:`~repro.ir.graph.Graph`.
        options: a :class:`ServeOptions` - scheduler knobs
            (``max_batch_size``, ``max_queue``), the
            reliability knobs (``retry``, ``faults``), plus a nested
            :class:`CompileOptions` (``options.compile``) picking
            framework/device/execution backend.
        **overrides: loose keyword alternatives for any
            :class:`ServeOptions` field, e.g.
            ``serve(g, max_batch_size=16)``.

    Returns:
        A running :class:`Service`.  Use it as a context manager, or
        call :meth:`Service.close` to drain and join its threads.

    Raises:
        RuntimeError: the framework cannot serve the model.
        ValueError: out-of-range scheduler options.

    The service compiles through the shared, content-addressed compile
    caches - serving a model (or a structurally identical rebuilt graph)
    a second time reuses the lowered program, its compiled runners and
    batch variants, the read-only parameters and the cost report - but
    owns its *session* (stats, fault injector, worker pool) privately:
    its scheduler and executor threads are the only ones running it, and
    the session records their statistics under its own lock.

    Example::

        with repro.serve("Pythia", max_batch_size=16) as service:
            futures = [service.submit(r) for r in requests]
            responses = [f.result() for f in futures]
        service.report().throughput_rps
    """
    options = merge_options(ServeOptions, options, overrides)
    return Service(compile(model, options.resolved_compile()), options)
