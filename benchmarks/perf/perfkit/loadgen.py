"""Seeded traffic and the two kinds of measuring window.

Everything the program sees is generated here from ``--seed``: request
tensors, the Poisson arrival schedule, and which pooled request each
operation sends.  One load-generator thread drives a window; it sleeps
between arrivals and never spins, because a spinning Python thread holds
the interpreter lock for the 5 ms switch interval and starves the
scheduler thread it is trying to measure.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

#: A window gives a wedged service this long before its open requests
#: are counted as failed.
WINDOW_TIMEOUT_S = 30.0


def stream(seed: int, tag: int) -> np.random.Generator:
    """An independent random stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(tag)])


def request_pool(signature, rng: np.random.Generator, extents) -> list[dict]:
    """One request tensor dict per entry of ``extents`` for an input
    signature (``(name, shape, dtype)`` rows).  An extent replaces the
    leading dim; ``None`` keeps the compiled shape.  Index tensors stay
    inside the smallest smoke vocabulary."""
    pool = []
    for extent in extents:
        tensors = {}
        for name, shape, dtype in signature:
            shape = tuple(shape) if extent is None \
                else (int(extent),) + tuple(shape[1:])
            dtype = np.dtype(dtype)
            if dtype.kind in "iu":
                tensors[name] = rng.integers(0, 8, size=shape).astype(dtype)
            else:
                tensors[name] = (rng.standard_normal(shape) * 0.1).astype(dtype)
        pool.append(tensors)
    return pool


def balanced_extents(rng: np.random.Generator, max_extent: int,
                     count: int) -> list:
    """``count`` leading-dim extents, each of ``1..max_extent`` equally
    often, in seeded order: every seed offers the same mix of work.
    ``[None] * count`` (the compiled shape) without a symbolic dim."""
    if not max_extent:
        return [None] * count
    return rng.permutation(np.arange(count) % max_extent + 1).tolist()


def picks(rng: np.random.Generator, pool_size: int, count: int) -> list[int]:
    """Which pooled request each of ``count`` operations sends: seeded
    shuffles of the whole pool, one after another, so that every window
    sends (nearly) the same mix in another order."""
    shuffles = [rng.permutation(pool_size)
                for _ in range(-(-count // pool_size))]
    return np.concatenate(shuffles)[:count].tolist()


def arrival_offsets(rng: np.random.Generator, rate: float,
                    count: int) -> np.ndarray:
    """Seconds from window start at which each request is due: a Poisson
    process of ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class Window:
    """What one window observed.  Index ``i`` is operation ``i``."""

    which: list[int]
    """Pooled request each operation sent."""
    due: list[float] = field(default_factory=list)
    """Absolute time each request was due (open loop only)."""
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    """Completion stamp from the future's done-callback; 0.0 if never."""
    futures: list = field(default_factory=list)
    """The ``InferenceFuture`` per operation, or the exception ``submit``
    raised (a refusal is a failed operation)."""
    start: float = 0.0
    backlog_end: int = 0
    """Service queue depth when the last request had been sent."""

    @property
    def end(self) -> float:
        return max(self.done) if self.done else self.start


def _stamp(done: list, index: int, _future) -> None:
    done[index] = time.perf_counter()


def _drain(window: Window) -> None:
    """Wait (bounded) until every submitted request has resolved."""
    deadline = time.monotonic() + WINDOW_TIMEOUT_S
    for future in window.futures:
        if isinstance(future, BaseException):
            continue
        try:
            future.exception(max(0.0, deadline - time.monotonic()))
        except TimeoutError:
            return  # still pending: verification counts the rest as failed


def open_window(service, requests: list, which: list[int],
                offsets: np.ndarray, on_submit=None) -> Window:
    """Send ``requests[which[i]]`` at ``start + offsets[i]`` whether or
    not earlier requests have completed.

    Latency is later taken from ``due``, not ``sent``: when the generator
    or the service stalls, the requests queued behind the stall are
    charged the wait.  ``on_submit(i, before, after)`` lets a traced run
    record the span around each ``submit`` call.
    """
    n = len(which)
    perf, sleep, submit = time.perf_counter, time.sleep, service.submit
    window = Window(which=which, done=[0.0] * n)
    done, sent, futures = window.done, window.sent, window.futures
    window.start = start = perf() + 0.002
    window.due = due = [start + float(offset) for offset in offsets]
    for i in range(n):
        wait = due[i] - perf()
        if wait > 0:
            sleep(wait)
        before = perf()
        try:
            future = submit(requests[which[i]])
        except Exception as err:  # noqa: BLE001 - a refusal is a failed op
            future = err
            done[i] = perf()
        else:
            future.add_done_callback(partial(_stamp, done, i))
        sent.append(before)
        futures.append(future)
        if on_submit is not None:
            on_submit(i, before, perf())
    window.backlog_end = service.queue_depth
    _drain(window)
    return window


def closed_window(service, requests: list, which: list[int],
                  seconds: float, max_ops: int, outstanding: int,
                  on_submit=None) -> Window:
    """Keep ``outstanding`` requests in flight until ``seconds`` have
    passed or ``max_ops`` were sent: each completion releases the permit
    that sends the next request, so a slower service receives less load.
    ``which`` is cycled."""
    perf, submit = time.perf_counter, service.submit
    permits = threading.Semaphore(outstanding)
    window = Window(which=[])
    done, sent, futures = window.done, window.sent, window.futures
    cycle = len(which)

    def completed(index: int, _future) -> None:
        done[index] = perf()
        permits.release()

    window.start = perf()
    stop = window.start + seconds
    i = 0
    while permits.acquire(timeout=WINDOW_TIMEOUT_S):  # False: wedged
        before = perf()
        if before >= stop or i >= max_ops:
            break
        chosen = which[i % cycle]
        window.which.append(chosen)
        done.append(0.0)
        try:
            future = submit(requests[chosen])
        except Exception as err:  # noqa: BLE001 - a refusal is a failed op
            future = err
            done[i] = perf()
            permits.release()
        else:
            future.add_done_callback(partial(completed, i))
        sent.append(before)
        futures.append(future)
        if on_submit is not None:
            on_submit(i, before, perf())
        i += 1
    _drain(window)
    return window


def percentile(values, q: float) -> float:
    """0.0 for no samples: a window in which every operation failed."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def across_rounds(rounds: list, name: str, q: float = 50.0) -> float:
    """The ``q``-th percentile (default: the median) across rounds of a
    per-round value."""
    return percentile([r[name] for r in rounds if name in r], q)


def host_noise_pct(rounds: list, q: float) -> float:
    """How far the typical window's p50 sat above that of the undisturbed
    windows (the ``q``-th percentile) the end-to-end latency is read
    from, in percent: near 0 on a quiet host."""
    best = across_rounds(rounds, "latency_p50_ms", q)
    typical = across_rounds(rounds, "latency_p50_ms")
    return (typical - best) / best * 100 if best else 0.0
