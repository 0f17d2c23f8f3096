"""Deterministic fault injection for the serving stack.

The reliability layer (request isolation, retry/backoff, worker-thread
supervision and the process pool's worker replacement) is only
trustworthy if it can be *driven*: this
module provides the plan objects that make every failure path
reproducible on demand.

A :class:`FaultPlan` is a frozen, hashable tuple of :class:`FaultRule`\\ s
- frozen so it can ride the frozen, hashable
:class:`~repro.api.CompileOptions` into the session it configures.  All
runtime state (fire counters, the seeded RNG behind ``probability``
gates) lives in the
:class:`FaultInjector` a session or service builds from the plan, so one
plan object can be installed in many places independently.

Two injection sites consume the same plan, split by ``request_id``:

* **session-level** (rules with ``request_id=None``), consulted by
  :meth:`repro.runtime.session.Session.execute_values` once per backend
  invocation: ``latency`` sleeps and ``kernel``/``alloc`` raise
  :class:`~repro.api.errors.ExecutionError`.  ``worker_crash`` rules
  are consulted by the process pool's dispatcher instead: they kill a
  worker process mid-shard (exercising its respawn, re-dispatch and
  in-process rescue).  Install via ``CompileOptions(faults=...)``.
* **service-level** (rules naming a ``request_id``), consulted by the
  :class:`~repro.api.Service` scheduler per request *and attempt*:
  ``kernel`` faults a specific request deterministically on chosen
  attempts (exercising micro-batch isolation and retry), ``crash``
  kills the worker thread (exercising supervision), ``latency`` delays.
  Install via ``ServeOptions(faults=...)``.

Service-level ``kernel`` rules are *pure functions* of
``(request_id, attempt)`` - they fire identically whether the request is
executed in a coalesced batch or retried solo, which is what makes the
isolation tests deterministic.  ``crash`` rules are counted (default:
fire once) so a rescued batch does not crash the replacement worker
forever.

Chaos mode: ``REPRO_FAULT_SEED=<int>`` installs
:meth:`FaultPlan.chaos` on every session that was not given an explicit
plan.  The chaos plan injects only faults the reliability layer is
*required* to absorb - artificial latency and worker-process crashes
(which the pool absorbs with byte-identical outputs) - so the whole
tier-1 suite must stay green under any seed; CI runs exactly that (see
the ``chaos`` job).
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

from ..api.errors import ExecutionError

KINDS = ("kernel", "latency", "alloc", "crash", "worker_crash")


class InjectedCrash(Exception):
    """An injected worker-thread crash.

    Deliberately *not* a :class:`~repro.api.errors.ReproError`: it must
    escape the scheduler's per-batch failure handling and kill the
    worker thread, so supervision (not request-failure bookkeeping) is
    what absorbs it.
    """


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault.

    Fields (all defaulted; unused fields are ignored per ``kind``):

    * ``kind`` - ``"kernel"``, ``"latency"``, ``"alloc"``,
      ``"crash"`` (worker *thread*), or
      ``"worker_crash"`` (parallel worker *process*; session-level
      only, consulted by the pool dispatcher via
      :meth:`FaultInjector.on_parallel_dispatch`).
    * ``request_id`` - when set, the rule is *service-level*: it matches
      the request with this id (see ``attempts``).  When ``None`` the
      rule is *session-level* and matches backend invocations.
    * ``attempts`` - service-level only: fire on these attempt numbers
      (0-based; ``None`` = every attempt, i.e. a persistent fault).
    * ``step`` - cosmetic step index named in injected kernel-fault
      messages.
    * ``request_index`` - session-level only: fire when this 0-based
      global request ordinal (counted per injector) is part of the
      invocation; ``None`` fires on any invocation.
    * ``after`` - session-level only: skip the first ``after`` matching
      invocations.
    * ``times`` - session-level and ``crash`` rules: fire at most this
      many times (``None`` = unlimited).
    * ``probability`` - session-level only: gate each firing on the
      plan-seeded RNG (deterministic per seed).
    * ``latency_ms`` - sleep duration for ``latency`` rules.
    * ``retryable`` - the ``retryable`` flag stamped on injected
      kernel/alloc errors (what the scheduler's retry policy keys on).
    """

    kind: str
    request_id: str | int | None = None
    attempts: tuple[int, ...] | None = None
    step: int | None = None
    request_index: int | None = None
    after: int = 0
    times: int | None = 1
    probability: float = 1.0
    latency_ms: float = 0.0
    retryable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.latency_ms < 0:
            raise ValueError("latency_ms cannot be negative")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be at least 1 (or None)")
        if self.attempts is not None and not isinstance(self.attempts, tuple):
            object.__setattr__(self, "attempts", tuple(self.attempts))

    @property
    def service_level(self) -> bool:
        """True when the rule targets a specific request by id."""
        return self.request_id is not None

    def matches_attempt(self, attempt: int) -> bool:
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """A frozen set of fault rules plus the seed gating probabilities.

    Hashable by construction so ``CompileOptions(faults=...)`` stays
    hashable.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    def injector(self) -> "FaultInjector | None":
        """A fresh stateful injector over this plan (``None`` when the
        plan is empty, so callers can skip the hook entirely)."""
        return FaultInjector(self) if self.rules else None

    @staticmethod
    def chaos(seed: int) -> "FaultPlan":
        """A randomized-but-seeded plan of *absorbable* faults.

        Only fault kinds the reliability layer must hide from callers
        are generated - artificial latency (slower, never wrong) and
        worker-process crashes - so any test suite
        that passes clean must pass under any chaos seed.  Same seed,
        same plan.
        """
        rng = random.Random(seed)
        rules = [
            FaultRule(kind="latency", probability=0.05,
                      latency_ms=rng.uniform(0.05, 0.3), times=None),
            # Parallel-pool chaos: kill a worker process mid-shard.  Only
            # consulted by the pool dispatcher (on_parallel_dispatch), so
            # in-process sessions never see it; the pool must absorb it
            # by respawn + re-dispatch with byte-identical outputs.
            FaultRule(kind="worker_crash",
                      probability=rng.uniform(0.1, 0.3),
                      times=rng.randint(1, 2)),
        ]
        return FaultPlan(rules=tuple(rules), seed=seed)

    @staticmethod
    def from_env() -> "FaultPlan | None":
        """The ambient chaos plan, or ``None``.

        Reads ``REPRO_FAULT_SEED`` once per call (cheap); a non-integer
        value raises so a typo'd chaos run fails loudly instead of
        silently running clean.
        """
        seed = os.environ.get("REPRO_FAULT_SEED")
        if not seed:
            return None
        return FaultPlan.chaos(int(seed))


class FaultInjector:
    """Runtime state for one installation of a :class:`FaultPlan`.

    Holds the per-rule fire/match counters and the seeded RNG; the plan
    itself stays immutable.  Each injector is owned by one session or
    one service, whose two execution threads (the scheduler and the
    executor) consult it concurrently: every counter update and RNG
    draw is serialised by the injector's lock, and injected latency
    sleeps outside it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._matched: dict[int, int] = {}
        self._fired: dict[int, int] = {}
        self._requests_seen = 0
        self._lock = threading.Lock()

    def fired(self, rule_index: int) -> int:
        """How many times rule ``rule_index`` has fired (tests)."""
        return self._fired.get(rule_index, 0)

    def _gate(self, index: int, rule: FaultRule) -> bool:
        """Stateful firing decision: ``after`` skip, ``times`` budget,
        seeded ``probability``."""
        with self._lock:
            seen = self._matched.get(index, 0)
            self._matched[index] = seen + 1
            if seen < rule.after:
                return False
            if rule.times is not None \
                    and self._fired.get(index, 0) >= rule.times:
                return False
            if rule.probability < 1.0 \
                    and self._rng.random() >= rule.probability:
                return False
            self._fired[index] = self._fired.get(index, 0) + 1
            return True

    # -- session-level ------------------------------------------------------

    def on_invocation(self, n_requests: int, backend: str,
                      context: dict | None = None) -> None:
        """Consulted once per backend invocation (before it runs).

        May sleep (latency) or raise
        :class:`~repro.api.errors.ExecutionError` (kernel/alloc
        faults).  ``context`` carries model/fingerprint for the error.
        """
        with self._lock:
            first = self._requests_seen
            self._requests_seen += n_requests
        context = context or {}
        for index, rule in enumerate(self.plan.rules):
            if rule.service_level:
                continue
            if rule.request_index is not None and not (
                    first <= rule.request_index < first + n_requests):
                continue
            if rule.kind == "latency":
                if self._gate(index, rule):
                    time.sleep(rule.latency_ms / 1e3)
            elif rule.kind == "kernel":
                if self._gate(index, rule):
                    at = "" if rule.step is None else f" at step {rule.step}"
                    raise ExecutionError(
                        f"injected kernel fault{at}",
                        backend=backend, retryable=rule.retryable, **context)
            elif rule.kind == "alloc":
                if self._gate(index, rule):
                    raise ExecutionError(
                        "injected allocation failure (pool exhausted)",
                        backend=backend, retryable=rule.retryable, **context)

    def on_parallel_dispatch(self) -> bool:
        """Consulted by the parallel pool once per sharded dispatch
        (parent side, before any shard is sent).

        True when a session-level ``worker_crash`` rule fires: the pool
        then flags one shard so its worker process exits mid-batch,
        exercising process supervision (respawn + re-dispatch from the
        still-intact shared-memory segment).  The rule's ``times``
        budget is consumed here - in the parent - so the decision
        survives worker respawns deterministically.
        """
        fired = False
        for index, rule in enumerate(self.plan.rules):
            if rule.kind != "worker_crash" or rule.service_level:
                continue
            if self._gate(index, rule):
                fired = True
        return fired

    # -- service-level ------------------------------------------------------

    def request_faults(self, request_id: str | int | None,
                       attempt: int) -> list[FaultRule]:
        """The service-level rules firing for ``(request_id, attempt)``.

        ``kernel``/``latency`` rules are pure functions of the pair -
        they fire identically for the coalesced-batch pass and the solo
        isolation pass of the same attempt.  ``crash`` rules consume
        their ``times`` budget (default once), so a rescued batch does
        not re-crash the replacement worker forever.
        """
        firing: list[FaultRule] = []
        for index, rule in enumerate(self.plan.rules):
            if not rule.service_level or rule.request_id != request_id:
                continue
            if not rule.matches_attempt(attempt):
                continue
            if rule.kind == "crash":
                if self._gate(index, rule):
                    firing.append(rule)
            else:
                firing.append(rule)
        return firing


__all__ = [
    "FaultInjector", "FaultPlan", "FaultRule", "InjectedCrash", "KINDS",
]
