"""The service's executor thread: hand-off, lifecycle and thread safety.

A :class:`repro.api.Service` runs light batches on its scheduler thread
and hands a *heavy* one (``HEAVY_STEP_BYTES`` per step) to an executor
thread when that one is idle, so two kernel-bound passes run at once.
These tests hold the hand-off to what it promises without timing it:
requests are parked in the queue before the scheduler starts
(``scheduling.parked``), and where a test needs one batch to still be
running when the next one is formed, a latency fault holds it.

On a host (or under ``taskset``) with one usable CPU the executor is
never spawned, and the same tests check that instead.
"""

import multiprocessing
import os
import sys
import threading
import time

import pytest

import repro
from repro import FaultPlan, FaultRule
from repro.api import CompileOptions, ExecutionError
from repro.api.service import HEAVY_STEP_BYTES
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import lower
from repro.runtime import batching, codegen_backend
from repro.runtime.batching import rebatch
from repro.runtime.codegen_backend import compile_program, emission_count
from repro.runtime.faults import FaultInjector
from repro.runtime.parallel_backend import _available_cpus
from repro.runtime.session import _admit, _compile_session

from front_door import serve_one

#: The ``kernel_open`` model: kernel-bound, heavy from 9 stacked requests.
CONFORMER_MEDIUM = dict(frames=64, mels=80, dim=96, depth=2, heads=4)

#: Whether this process may spawn an executor (the service's own test).
TWO_CPUS = _available_cpus() >= 2

HOLD_MS = 200.0


def _medium():
    return build("Conformer", **CONFORMER_MEDIUM)


def _pythia():
    return build("Pythia", **SMOKE_CONFIGS["Pythia"])


def _executor_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-service-exec-")]


def _solo(graph, requests):
    """Each request's outputs from a solo numpy run."""
    reference = repro.compile(graph, CompileOptions()).session
    return [serve_one(reference, dict(r.inputs)) for r in requests]


def _assert_bytes_equal(got, want, label):
    assert sorted(got) == sorted(want), label
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), (label, key)


def _hold(*request_ids):
    """Service-level latency rules keeping these requests' batches busy."""
    return FaultPlan(rules=tuple(
        FaultRule(kind="latency", request_id=rid, latency_ms=HOLD_MS)
        for rid in request_ids))


# ---------------------------------------------------------------------------
# what is heavy
# ---------------------------------------------------------------------------


class TestHeavy:
    def test_conformer_medium_is_heavy_from_nine_requests(self, scheduling):
        service = scheduling.parked(_medium(), max_batch_size=16)
        steps = service.program.steps
        traffic = sum(s.bytes_read + s.bytes_written
                      for s in steps) / len(steps)
        assert 8 * traffic < HEAVY_STEP_BYTES <= 9 * traffic
        assert service._heavy_from == (9 if TWO_CPUS else None)

    @pytest.mark.parametrize("name", [
        "Pythia", "SD-TextEncoder", "ViT", "Conformer", "Swin", "CSwin",
        "AutoFormer", "BiFormer", "CrossFormer", "ConvNext",
        "EfficientVit", "SMTFormer", "FlattenFormer"])
    def test_cold_start_models_are_not_heavy_at_one_request(
            self, scheduling, name):
        service = scheduling.parked(build(name, **SMOKE_CONFIGS[name]),
                                    max_batch_size=16)
        assert not service._heavy(1)

    def test_pythia_is_never_heavy(self, scheduling):
        service = scheduling.parked(_pythia(), max_batch_size=16)
        assert service._heavy_from is None

    def test_a_sharding_backend_never_offloads(self, scheduling):
        service = scheduling.parked(_medium(), max_batch_size=16,
                                    backend="parallel", workers=1)
        assert service._heavy_from is None


# ---------------------------------------------------------------------------
# the hand-off
# ---------------------------------------------------------------------------


class TestHandOff:
    def test_two_full_batches_one_on_the_executor(self, scheduling):
        # The first batch (handed off) is held busy, so the scheduler
        # forms the second while the executor runs: it runs it itself.
        graph = _medium()
        service = scheduling.parked(graph, max_batch_size=16,
                                    faults=_hold("r0"))
        model = service.compiled
        requests = [model.make_request(seed=s, request_id=f"r{s}")
                    for s in range(32)]
        futures = [service.submit(r) for r in requests]
        scheduling.release(service)
        responses = [f.result(timeout=60) for f in futures]
        service.close()
        report = service.report()
        assert [r.batch_size for r in responses] == [16] * 32
        assert report.batches == report.stacked_batches == 2
        assert report.offloaded_batches == (1 if TWO_CPUS else 0)
        for i, (response, want) in enumerate(
                zip(responses, _solo(graph, requests))):
            _assert_bytes_equal(response.outputs, want, i)

    def test_pythia_never_spawns_the_executor(self, scheduling):
        service = scheduling.parked(_pythia(), max_batch_size=16)
        model = service.compiled
        futures = [service.submit(model.make_request(seed=s))
                   for s in range(32)]
        scheduling.release(service)
        for future in futures:
            future.result(timeout=60)
        assert service._executor is None and not _executor_threads()
        service.close()
        report = service.report()
        assert report.batches == 2 and report.offloaded_batches == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity API on this platform")
    def test_one_usable_cpu_never_spawns_the_executor(self, scheduling):
        before = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(before)})
        try:
            service = scheduling.parked(_medium(), max_batch_size=16)
            model = service.compiled
            futures = [service.submit(model.make_request(seed=s))
                       for s in range(32)]
            scheduling.release(service)
            for future in futures:
                future.result(timeout=60)
            service.close()
        finally:
            os.sched_setaffinity(0, before)
        assert service._executor is None
        report = service.report()
        assert report.batches == 2 and report.offloaded_batches == 0

    def test_light_batches_stay_on_the_scheduler(self, scheduling):
        service = scheduling.parked(_medium(), max_batch_size=8)
        model = service.compiled
        futures = [service.submit(model.make_request(seed=s))
                   for s in range(16)]
        scheduling.release(service)
        for future in futures:
            future.result(timeout=60)
        service.close()
        report = service.report()
        assert report.batches == 2 and report.offloaded_batches == 0
        assert service._executor is None


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_close_leaves_no_thread_or_child_behind(self, scheduling):
        threads = threading.active_count()
        children = len(multiprocessing.active_children())
        service = scheduling.parked(_medium(), max_batch_size=16)
        model = service.compiled
        futures = [service.submit(model.make_request(seed=s))
                   for s in range(48)]
        scheduling.release(service)
        service.close()
        assert all(f.done() for f in futures)
        offloaded = service.report().offloaded_batches
        assert offloaded >= 1 if TWO_CPUS else offloaded == 0
        assert threading.active_count() == threads
        assert len(multiprocessing.active_children()) == children
        assert not _executor_threads()

    def test_crash_on_an_offloaded_batch_is_rescued_to_the_front(
            self, scheduling):
        # A = r0..r15 (handed off; r0 crashes its executor once),
        # B = r16..r31 (held by r16 on whichever thread runs it),
        # C = r32..r47 (queued behind both).  A's rescued entries go to
        # the front of the queue, so A is taken again before C -
        # before or after B, depending on whether the crash beat the
        # scheduler to its next batch - and its re-run (held by r1)
        # is on the replacement executor.
        graph = _medium()
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", request_id="r0"),
            FaultRule(kind="latency", request_id="r1", latency_ms=HOLD_MS),
            FaultRule(kind="latency", request_id="r16",
                      latency_ms=HOLD_MS)))
        service = scheduling.parked(graph, max_batch_size=16, faults=plan)
        taken = []
        take = service._take

        def recording():
            batch = take()
            if batch:
                taken.append(batch[0].request_id)
            return batch

        service._take = recording
        crashed_on = []
        supervise = service._supervise

        def supervising(err, batch, executor=False):
            crashed_on.append(executor)
            supervise(err, batch, executor)

        service._supervise = supervising
        model = service.compiled
        requests = [model.make_request(seed=s, request_id=f"r{s}")
                    for s in range(48)]
        futures = [service.submit(r) for r in requests]
        scheduling.release(service)
        responses = [f.result(timeout=60) for f in futures]
        service.close()
        report = service.report()
        assert report.worker_restarts == 1
        assert report.failed == 0 and report.requests == 48
        assert [r.batch_size for r in responses] == [16] * 48
        # with one usable CPU the crash hits the scheduler itself
        assert crashed_on == [TWO_CPUS]
        assert sorted(taken[:3]) == ["r0", "r0", "r16"]
        assert taken[3:] == ["r32"]
        offloaded = report.offloaded_batches
        assert offloaded >= 1 if TWO_CPUS else offloaded == 0
        for i, (response, want) in enumerate(
                zip(responses, _solo(graph, requests))):
            _assert_bytes_equal(response.outputs, want, i)

    def test_every_future_resolves_once_and_the_counters_add_up(
            self, scheduling):
        plan = FaultPlan(rules=(FaultRule(kind="kernel", request_id="bad"),))
        service = scheduling.parked(_medium(), max_batch_size=16,
                                    faults=plan)
        model = service.compiled
        resolutions: dict[int, int] = {}

        def count(future):
            resolutions[id(future)] = resolutions.get(id(future), 0) + 1

        futures = []
        for s in range(44):
            meta = {}
            if s == 6:
                meta["request_id"] = "bad"
            elif s == 30:
                meta["deadline_ms"] = 0.0
            futures.append(service.submit(model.make_request(seed=s, **meta)))
        for future in futures[1:40:4]:
            assert future.cancel()
        for future in futures:
            future.add_done_callback(count)
        time.sleep(0.002)  # the zero deadline has passed
        scheduling.release(service)
        service.close()
        assert all(f.done() for f in futures)
        assert all(resolutions[id(f)] == 1 for f in futures)
        report = service.report()
        assert (report.failed, report.expired, report.cancelled) == (1, 1, 10)
        assert report.requests + report.failed + report.expired \
            + report.cancelled == len(futures)


# ---------------------------------------------------------------------------
# thread safety of what the two threads share
# ---------------------------------------------------------------------------


def _race(fn, threads=2):
    """Run ``fn()`` on ``threads`` threads released together; their
    results."""
    barrier = threading.Barrier(threads)
    results = [None] * threads
    errors = []

    def target(i):
        try:
            barrier.wait()
            results[i] = fn()
        except BaseException as err:  # re-raised on the caller's thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=target, args=(i,))
                   for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    if errors:
        raise errors[0]
    return results


class TestThreadSafety:
    def test_concurrent_serve_counts_every_request(self):
        session = _compile_session(_pythia(), "Ours", faults=FaultPlan())
        inputs = session.make_inputs(seed=0)

        def serve():
            for _ in range(200):
                session._serve([dict(inputs)],
                               lambda values: _admit(session, values))

        _race(serve)
        assert session.stats.requests == 400
        numbers = [run.request for run in session.stats.runs]
        assert len(set(numbers)) == len(numbers) == 256
        assert max(numbers) == 400

    def test_injector_budgets_hold_under_four_threads(self):
        # More threads than cores: an unlocked gate loses match counts
        # and fires past its budget here.
        plan = FaultPlan(rules=(
            FaultRule(kind="kernel", times=3000),
            FaultRule(kind="crash", request_id="x", times=10000)))
        injector = FaultInjector(plan)

        def consult():
            kernel = crashes = 0
            for _ in range(5000):
                try:
                    injector.on_invocation(1, "numpy")
                except ExecutionError:
                    kernel += 1
                crashes += len(injector.request_faults("x", 0))
            return kernel, crashes

        counts = _race(consult, threads=4)
        assert [sum(c) for c in zip(*counts)] == [3000, 10000]
        assert injector._matched == {0: 20000, 1: 20000}
        assert injector._requests_seen == 20000

    def test_racing_rebatch_builds_one_variant_and_one_module(
            self, monkeypatch):
        program = lower(_pythia())  # a fresh program: empty caches
        builds = []
        build_variant = batching._build_variant
        emit = codegen_backend.emit_program_source

        def slow_build(*args):
            builds.append(args[1])
            time.sleep(0.05)  # widen the window a racing fill would hit
            return build_variant(*args)

        def slow_emit(program):
            time.sleep(0.05)
            return emit(program)

        monkeypatch.setattr(batching, "_build_variant", slow_build)
        monkeypatch.setattr(codegen_backend, "emit_program_source",
                            slow_emit)
        emitted = emission_count()

        def fill():
            variant = rebatch(program, 8)
            return variant, compile_program(variant).run_plain

        (first, run_a), (second, run_b) = _race(fill)
        assert first is second and run_a is run_b
        assert builds == [8]
        assert emission_count() == emitted + 1
