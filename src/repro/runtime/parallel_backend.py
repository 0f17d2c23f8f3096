"""The ``"parallel"`` backend's worker-process pool.

The in-process runner executes a whole invocation under one GIL, so
aggregate throughput on kernel-bound models is capped no matter how
fast each kernel gets.  A ``"parallel"`` session escapes the cap by
owning a supervised :class:`WorkerPool` of **worker processes**, each
holding its own copy of the compiled program, its emitted modules and
variants, and the materialized parameters - all inherited for free over
``fork``, never pickled.

Dispatch composes with the existing layers instead of bypassing them:

* the dispatcher shards a scheduler micro-batch into contiguous chunks -
  one *whole stacked pass* per worker for batch-stackable
  programs (:func:`repro.runtime.batching.analyze`), per-request chunks
  otherwise;
* request/response tensors cross the process boundary through a ring of
  preallocated shared-memory segments (:mod:`repro.runtime.shm`) with a
  static layout computed from the program - the control pipe carries
  only ``(segment index, request count)`` tuples and per-request wall
  times;
* inside each worker, execution takes the session's in-process route
  (:meth:`~repro.runtime.session.Session._route`), so stacked batching
  applies unchanged and outputs stay byte-identical to single-process
  serving; injected session-level faults fire once, in the parent.

The pool alone decides a worker is lost - its sentinel fires
mid-shard, a send to it fails (it died while idle), or the dispatch
stalls past :data:`_DISPATCH_TIMEOUT_S` - and replaces it through
:meth:`WorkerPool._replace` (counted in ``ServiceReport.worker_restarts``).
A lost shard is re-dispatched verbatim from its still-intact segment;
after :data:`_MAX_SHARD_RETRIES` losses it runs in-process (still
byte-identical, counted in ``SessionStats.fallbacks``).  A dispatch
that fails - a stall raises :class:`~repro.api.errors.WorkerCrashed` -
replaces every worker with a shard still in flight before it frees the
segments, so no late reply is read as the next dispatch's.  Injected
``worker_crash`` faults (:mod:`repro.runtime.faults`) drive the
mid-shard path.

A pool that fails to start raises to the invocation that needed it;
the session's next invocation starts one again.  On platforms without
the ``fork`` start method ``repro.compile(..., backend="parallel")``
refuses with :class:`~repro.api.errors.InvalidOptions`.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from multiprocessing import connection

import numpy as np

from ..api.errors import WorkerCrashed
from .batching import analyze, symbolize
from .shm import SegmentRing, ShardLayout

logger = logging.getLogger("repro.runtime.parallel")

_MIN_STACKED_SHARD = 16
"""Smallest per-worker chunk of a stackable micro-batch: below this the
per-dispatch overhead (pipe roundtrip plus a context switch, ~1-2 ms)
outweighs what stacking inside the worker saves, so small batches run
as fewer, larger shards."""

_MAX_SHARD_RETRIES = 2
"""Worker deaths tolerated per shard before it executes in-process."""

_SPAWN_TIMEOUT_S = 60.0
_DISPATCH_TIMEOUT_S = 120.0


def parallel_supported() -> bool:
    """True when fork-based worker pools can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _available_cpus() -> int:
    """CPUs this process may run on (affinity-aware where exposed)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _portable(err: BaseException) -> BaseException:
    """An exception safe to ship over a pipe (pickle round-trip)."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:  # noqa: BLE001 - unpicklable payload
        return RuntimeError(f"{type(err).__name__}: {err}")


def _worker_main(conn_, session, ring: SegmentRing) -> None:
    """Worker-process entry point (child side of a ``fork``).

    The child inherits the session (program, runners, variants, params)
    and the segment ring by reference; it owns nothing - it never
    creates, unlinks, or recycles segments.  It exits via ``os._exit``
    so the parent's inherited atexit hooks (segment unlink, bench
    writers) never run twice.
    """
    exit_code = 0
    try:
        # Forked locks may be held by threads that do not exist in the
        # child; give it an empty in-flight fill table and a free
        # emission lock.
        from . import codegen_backend, program as program_module
        program_module._FILLING = {}
        program_module._FILLING_LOCK = threading.Lock()
        codegen_backend._EMISSIONS_LOCK = threading.Lock()
        # Per-extent layouts, built lazily and deterministically from
        # (program, capacity, extent) - the parent derives the same
        # offsets from the same triple, so only the extent crosses the
        # pipe.  ``None`` is the base (concrete) layout.
        capacity = ring.layout.capacity
        layouts: dict = {None: ShardLayout(session.program, capacity)}
        params = session._params
        conn_.send(("ready", os.getpid()))
        while True:
            message = conn_.recv()
            kind = message[0]
            if kind == "stop":
                break
            _, seg_index, count, crash, extent = message
            if crash:  # injected worker_crash: die mid-shard, uncleanly
                os._exit(17)
            layout = layouts.get(extent)
            if layout is None:
                layout = layouts[extent] = ShardLayout(
                    session.program, capacity, extent=extent)
            buf = ring.buf(seg_index)
            values_list = []
            for i in range(count):
                values = dict(params)
                values.update(layout.read_inputs(buf, i))
                values_list.append(values)
            try:
                results, batched = session._route(values_list)
                walls = []
                for i, (outputs, _report, wall) in enumerate(results):
                    layout.write_outputs(buf, i, outputs)
                    walls.append(float(wall))
                conn_.send(("ok", seg_index, walls, batched))
            except BaseException as err:  # noqa: BLE001 - ship to parent
                conn_.send(("err", seg_index, _portable(err)))
    except (EOFError, OSError, KeyboardInterrupt):
        exit_code = 1  # parent went away / interrupted: just leave
    except BaseException:  # pragma: no cover - setup failure
        exit_code = 1
    finally:
        os._exit(exit_code)


class _Worker:
    __slots__ = ("index", "proc", "conn")

    def __init__(self, index: int, proc, conn_) -> None:
        self.index = index
        self.proc = proc
        self.conn = conn_


def _reap(worker: _Worker) -> None:
    """Close a worker's connection, then kill and join its process (a
    no-op on one already reaped)."""
    worker.conn.close()
    worker.proc.kill()
    worker.proc.join(timeout=5)


class _Shard:
    __slots__ = ("start", "count", "seg", "crash", "tries", "error",
                 "batched")

    def __init__(self, start: int, count: int) -> None:
        self.start = start
        self.count = count
        self.seg = None
        self.crash = False
        self.tries = 0
        self.error = None
        self.batched = False


class WorkerPool:
    """A supervised pool of forked worker processes for one session.

    Owned by the session (``session.ensure_parallel_pool()``), created
    eagerly by the :class:`~repro.api.Service` front door before its
    scheduler thread starts (forking from a single-threaded parent is
    the safe point), lazily on first sharded invocation otherwise.
    """

    def __init__(self, session, workers: int = 1,
                 capacity: int = 16) -> None:
        self.session = session
        self.workers = max(1, int(workers))
        self.capacity = max(1, int(capacity))
        self.restarts = 0
        self.closed = False
        self._lock = threading.Lock()
        self._ctx = multiprocessing.get_context("fork")
        program = session.program
        self.layout = ShardLayout(program, self.capacity)
        self.stackable = analyze(program).stackable
        self._first_input = program.input_names[0]
        # Symbolic sessions add per-extent layouts (lazily, mirrored in
        # each worker) and size segments for whichever layout is the
        # largest - the base stacked layout or the max admitted extent.
        self._layouts: dict[int, ShardLayout] = {}
        ring_layout = self.layout
        sym = session.symbolic
        if sym is not None and sym.max_extent != sym.base_extent:
            widest = ShardLayout(program, self.capacity,
                                 extent=sym.max_extent)
            if widest.segment_bytes > ring_layout.segment_bytes:
                ring_layout = widest
        self._warm_parent()
        # Segments outlive individual workers: a respawned worker
        # inherits the *same* ring, so a crashed shard's inputs are
        # still in place for verbatim re-dispatch.
        self.ring = SegmentRing(ring_layout, count=self.workers + 2)
        try:
            self._workers = [self._spawn(i) for i in range(self.workers)]
        except BaseException:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    def _warm_parent(self) -> None:
        """Build every per-program artifact the workers will need
        *before* forking, so each child inherits compiled runners,
        bucket variants, and materialized parameters instead of
        rebuilding them ``workers`` times."""
        from .session import _admit

        session = self.session
        values = _admit(session, session.make_inputs(seed=0))
        session._route([dict(values)])
        if self.stackable:
            for size in {self._shard_size(self.capacity),
                         self.capacity}:
                if size > 1:
                    session._route([dict(values) for _ in range(size)])
        sym = session.symbolic
        if sym is not None:
            # One representative run per symbolic bucket: the children
            # inherit each bucket's compiled variant (and its emitted
            # module) instead of rebuilding them ``workers`` times on
            # first off-base request.
            reps: dict[int, int] = {}
            for extent in range(1, sym.max_extent + 1):
                reps[sym.factor(extent)] = extent  # largest per bucket wins
            for extent in sorted(reps.values()):
                if extent == sym.base_extent:
                    continue
                warm = {
                    name: np.resize(value, (extent,) + value.shape[1:])
                    if name in sym.inputs else value
                    for name, value in values.items()}
                session._route([warm])

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.session, self.ring),
            daemon=True, name=f"repro-parallel-{index}")
        proc.start()
        child_conn.close()
        worker = _Worker(index, proc, parent_conn)
        if not parent_conn.poll(_SPAWN_TIMEOUT_S):
            _reap(worker)
            raise WorkerCrashed(
                f"parallel worker {index} failed to come up within "
                f"{_SPAWN_TIMEOUT_S:.0f}s", backend="parallel")
        message = parent_conn.recv()
        if message[0] != "ready":  # pragma: no cover - protocol bug
            _reap(worker)
            raise WorkerCrashed(
                f"parallel worker {index} sent {message[0]!r} instead of "
                "the ready handshake", backend="parallel")
        return worker

    def _replace(self, worker_index: int, why: str) -> None:
        """The one worker-replacement path: reap the lost worker, fork a
        fresh one into its slot and count a restart.  A failed fork
        propagates; the slot then still holds the reaped worker, whose
        closed connection makes the next dispatch replace it again."""
        logger.warning("parallel worker %d %s; respawning", worker_index,
                       why)
        _reap(self._workers[worker_index])
        self._workers[worker_index] = self._spawn(worker_index)
        self.restarts += 1

    @property
    def alive(self) -> bool:
        return not self.closed

    def close(self) -> None:
        """Stop every worker and unlink every segment; idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            workers = getattr(self, "_workers", [])
            for worker in workers:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for worker in workers:
                worker.proc.join(timeout=5)
                if worker.proc.is_alive():  # pragma: no cover - stuck
                    worker.proc.kill()
                    worker.proc.join(timeout=5)
                worker.conn.close()
            if getattr(self, "ring", None) is not None:
                self.ring.close()

    # -- dispatch ----------------------------------------------------------

    def _shard_size(self, n: int) -> int:
        return -(-n // self._num_shards(n))  # ceil

    def _num_shards(self, n: int) -> int:
        """How many worker chunks an ``n``-request invocation splits
        into.  Stackable programs prefer fewer, larger shards (each runs
        as one stacked pass inside its worker - below
        :data:`_MIN_STACKED_SHARD` requests per shard the dispatch
        overhead beats the spread); non-stackable programs spread
        per-request.  Per-wave fan-out is capped at the CPUs actually
        available to this process: extra shards beyond that only buy
        context switches, while the surplus workers stay warm as spares
        for crash absorption.  Segment capacity bounds a shard from
        above."""
        fanout = min(self.workers, _available_cpus())
        if self.stackable:
            num = max(1, min(fanout, n // _MIN_STACKED_SHARD))
        else:
            num = min(fanout, n)
        return max(num, -(-n // self.capacity))

    def run(self, values_list):
        """Serve one invocation across the pool.

        Returns ``(rows, batched)`` shaped like
        ``NumPyBackend.run_many`` output, or ``None`` when the
        invocation cannot shard (the pool is closed, or a symbolic
        micro-batch mixes leading extents - the in-process path groups
        those per extent) and must run in-process.
        """
        extent = None
        sym = self.session.symbolic
        if sym is not None:
            extents = {values[self._first_input].shape[0]
                       for values in values_list}
            if len(extents) > 1:
                return None  # mixed extents: in-process grouping
            found = extents.pop()
            if found != sym.base_extent:
                extent = int(found)
        with self._lock:
            if self.closed:
                return None
            return self._run_locked(values_list, extent)

    def _layout_for(self, extent):
        """The (parent-side) layout serving one runtime extent;
        ``None`` is the base concrete layout."""
        if extent is None:
            return self.layout
        found = self._layouts.get(extent)
        if found is None:
            found = self._layouts[extent] = ShardLayout(
                self.session.program, self.capacity, extent=extent)
        return found

    def _run_locked(self, values_list, extent=None):
        n = len(values_list)
        num = self._num_shards(n)
        base, extra = divmod(n, num)
        shards, start = [], 0
        for i in range(num):
            count = base + (1 if i < extra else 0)
            shards.append(_Shard(start, count))
            start += count
        injector = self.session._injector
        if injector is not None and injector.on_parallel_dispatch():
            shards[0].crash = True
        rows = [None] * n
        pending = deque(range(num))
        idle = deque(range(len(self._workers)))
        active: dict[int, int] = {}
        deadline = time.monotonic() + _DISPATCH_TIMEOUT_S
        layout = self._layout_for(extent)
        # Worker-served rows report the plan the parent dispatched the
        # shard against: the base program, or the extent's bucket
        # variant.
        report = self.session.program.report if extent is None else \
            symbolize(self.session.program,
                      self.session.symbolic.factor(extent)).report
        try:
            while pending or active:
                while pending and idle:
                    shard_index = pending.popleft()
                    shard = shards[shard_index]
                    if shard.seg is None:
                        shard.seg = self.ring.acquire()
                        buf = self.ring.buf(shard.seg)
                        for i in range(shard.count):
                            layout.write_inputs(
                                buf, i, values_list[shard.start + i])
                    worker_index = idle.popleft()
                    try:
                        self._workers[worker_index].conn.send(
                            ("run", shard.seg, shard.count, shard.crash,
                             extent))
                    except OSError as err:  # broken pipe: died while idle
                        self._lose(worker_index, f"was gone at dispatch "
                                   f"({type(err).__name__})", shards,
                                   shard_index, values_list, rows, idle,
                                   pending)
                        continue
                    shard.crash = False  # an injected crash fires once
                    active[worker_index] = shard_index
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise WorkerCrashed(
                        f"parallel dispatch stalled past "
                        f"{_DISPATCH_TIMEOUT_S:.0f}s with shards in flight",
                        backend="parallel")
                conns = {self._workers[w].conn: w for w in active}
                sentinels = {self._workers[w].proc.sentinel: w
                             for w in active}
                ready = connection.wait(
                    list(conns) + list(sentinels), timeout=timeout)
                handled = set()
                for obj in ready:
                    worker_index = conns.get(obj)
                    if worker_index is None:
                        worker_index = sentinels.get(obj)
                    if worker_index is None or worker_index in handled \
                            or worker_index not in active:
                        continue
                    handled.add(worker_index)
                    self._settle(worker_index, shards, values_list, rows,
                                 active, idle, pending, layout, report)
        except BaseException:
            # A worker still holding a shard would go on writing into a
            # segment the ``finally`` frees, and its late reply would be
            # read as the next dispatch's: replace each one first.  A
            # failed fork leaves its slot reaped, so the next dispatch
            # replaces it again; the original error still propagates.
            for worker_index in list(active):
                try:
                    self._replace(worker_index,
                                  "held a shard when its dispatch failed")
                except Exception:
                    logger.warning("parallel worker %d could not be "
                                   "respawned", worker_index,
                                   exc_info=True)
            raise
        finally:
            for shard in shards:  # every exit hands its segments back
                if shard.seg is not None:
                    self.ring.release(shard.seg)
                    shard.seg = None
        for shard in shards:
            if shard.error is not None:
                raise shard.error
        return rows, any(shard.batched for shard in shards)

    def _settle(self, worker_index: int, shards, values_list, rows,
                active, idle, pending, layout, report) -> None:
        """Consume one worker's completion - a reply or a death."""
        worker = self._workers[worker_index]
        shard_index = active.pop(worker_index)
        shard = shards[shard_index]
        message = None
        try:
            if worker.conn.poll():
                message = worker.conn.recv()
        except (EOFError, OSError):
            message = None
        if message is None:  # no reply and the sentinel fired
            self._lose(worker_index,
                       f"died mid-shard (exit {worker.proc.exitcode})",
                       shards, shard_index, values_list, rows, idle,
                       pending)
            return
        idle.append(worker_index)
        if message[0] == "ok":
            _, seg_index, walls, was_batched = message
            shard.batched = bool(was_batched)
            buf = self.ring.buf(seg_index)
            for i in range(shard.count):
                rows[shard.start + i] = (
                    layout.read_outputs(buf, i), report, walls[i])
        else:
            shard.error = message[2]
        self.ring.release(shard.seg)
        shard.seg = None

    def _lose(self, worker_index: int, why: str, shards, shard_index,
              values_list, rows, idle, pending) -> None:
        """A worker was lost holding a shard: replace it, then re-dispatch
        the shard from its still-intact segment (the fresh fork inherits
        the same ring) or, past the retry budget, run it in-process."""
        shard = shards[shard_index]
        shard.tries += 1
        self._replace(worker_index, f"{why}, shard try {shard.tries}/"
                      f"{_MAX_SHARD_RETRIES + 1}")
        idle.append(worker_index)
        if shard.tries <= _MAX_SHARD_RETRIES:
            pending.append(shard_index)
            return
        self._rescue_in_process(shard, values_list, rows)
        self.ring.release(shard.seg)
        shard.seg = None

    def _rescue_in_process(self, shard, values_list, rows) -> None:
        """Last-resort execution of a repeatedly-lost shard in the
        parent, on the session's in-process route - byte-identical
        outputs, no scale-out for this shard - counted in
        ``SessionStats.fallbacks``."""
        logger.warning(
            "shard of %d requests exceeded its respawn budget; executing "
            "in-process", shard.count)
        session = self.session
        end = shard.start + shard.count
        results, shard.batched = session._route(values_list[shard.start:end])
        rows[shard.start:end] = results
        with session._stats_lock:
            session.stats.fallbacks += 1


__all__ = ["WorkerPool", "parallel_supported"]
