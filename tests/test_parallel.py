"""Multi-process parallel backend: parity, sharding, supervision, shm.

Everything here runs on smoke-scale models; bursts go through the real
``repro.serve`` scheduler or straight through ``Session.execute_values``
so the whole dispatch path (sharding, shared-memory transport, stacked
passes inside workers, respawn supervision) is exercised end-to-end.
Outputs are always compared **byte-identical** against a single-process
reference session - the backend's core contract.
"""

import gc
import multiprocessing
import os
import signal
import threading

import pytest

import repro
from repro.api import (
    CompiledModel, CompileOptions, ExecutionError, InferenceRequest, InvalidOptions, ServeOptions,
    WorkerCrashed, serve,
)
from repro.bench.harness import clear_cell_cache
from repro.models import build_smoke
from repro.runtime import FaultPlan, FaultRule, active_segments
from repro.runtime import codegen_backend, parallel_backend as pb
from repro.runtime.batching import _build_variant
from repro.runtime.parallel_backend import parallel_supported
from repro.runtime.program import fill_once
from repro.runtime.session import _compile_session

from front_door import serve_one

pytestmark = pytest.mark.skipif(
    not parallel_supported(), reason="fork start method unavailable")

NO_FAULTS = FaultPlan()  # explicit empty plan: overrides ambient chaos


def reference_outputs(graph, count):
    session = _compile_session(graph, "Ours", faults=NO_FAULTS)
    inputs = [session.make_inputs(seed=seed) for seed in range(count)]
    return inputs, [serve_one(session, dict(values)) for values in inputs]


def assert_byte_identical(responses, expected):
    for response, outputs in zip(responses, expected):
        for key, value in outputs.items():
            assert response.outputs[key].tobytes() == value.tobytes(), key


class TestOptionsValidation:
    def test_compile_workers_must_be_positive_int(self):
        with pytest.raises(InvalidOptions, match="workers"):
            CompileOptions(workers=0)
        with pytest.raises(InvalidOptions, match="workers"):
            CompileOptions(workers=-2)

    def test_compile_batch_must_be_positive_int(self):
        with pytest.raises(InvalidOptions, match="batch"):
            CompileOptions(batch=0)

    def test_serve_numeric_fields_validated(self):
        with pytest.raises(InvalidOptions, match="max_batch_size"):
            ServeOptions(max_batch_size=0)
        with pytest.raises(InvalidOptions, match="max_wait_ms"):
            ServeOptions(max_wait_ms=-1.0)
        with pytest.raises(InvalidOptions, match="workers"):
            ServeOptions(workers=0)

    def test_invalid_options_is_a_value_error(self):
        with pytest.raises(ValueError):
            ServeOptions(max_batch_size=0)

    def test_serve_shorthand_overrides_nested_compile(self):
        options = ServeOptions(backend="parallel", workers=3)
        compile_options = options.resolved_compile()
        assert compile_options.backend == "parallel"
        assert compile_options.workers == 3

    def test_serve_shorthand_defaults_to_nested_compile(self):
        nested = CompileOptions(backend="codegen", workers=2)
        assert ServeOptions(compile=nested).resolved_compile() is nested


class TestParallelParity:
    def test_served_burst_is_byte_identical_and_stacked(self, scheduling):
        graph = build_smoke("ViT")
        inputs, expected = reference_outputs(graph, 32)
        service = scheduling.parked(graph, ServeOptions(
            backend="parallel", workers=2, max_batch_size=16,
            compile=CompileOptions(faults=NO_FAULTS)))
        futures = [service.submit(InferenceRequest(inputs=values))
                   for values in inputs]
        scheduling.release(service)
        responses = [f.result(timeout=120) for f in futures]
        report = service.report()
        assert_byte_identical(responses, expected)
        assert report.batches == report.stacked_batches == 2
        assert report.worker_restarts == 0

    def test_conformer_burst_is_byte_identical(self):
        graph = build_smoke("Conformer")
        inputs, expected = reference_outputs(graph, 16)
        service = serve(graph, ServeOptions(
            backend="parallel", workers=2, max_batch_size=16,
            compile=CompileOptions(faults=NO_FAULTS)))
        try:
            futures = [service.submit(InferenceRequest(inputs=values))
                       for values in inputs]
            responses = [f.result(timeout=120) for f in futures]
        finally:
            service.close()
        assert_byte_identical(responses, expected)

    def test_solo_request_through_parallel_session(self):
        graph = build_smoke("Pythia")
        inputs, expected = reference_outputs(graph, 1)
        session = _compile_session(
            graph, "Ours", backend="parallel", workers=2, faults=NO_FAULTS)
        try:
            outputs = serve_one(session, dict(inputs[0]))
            for key, value in expected[0].items():
                assert outputs[key].tobytes() == value.tobytes()
        finally:
            session.close()

    def test_a_platform_without_fork_refuses_the_compile(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        graph = build_smoke("Pythia")
        with pytest.raises(InvalidOptions, match="fork"):
            repro.compile(graph, backend="parallel", workers=2,
                          faults=NO_FAULTS)
        with pytest.raises(InvalidOptions, match="fork"):
            serve(graph, backend="parallel", workers=2)
        # The in-process names need no fork.
        model = repro.compile(graph, backend="codegen", faults=NO_FAULTS)
        assert model.run(model.make_request(seed=0)).stats.backend == "numpy"


class TestCrashSupervision:
    CRASH_ONCE = FaultPlan(rules=(
        FaultRule(kind="worker_crash", probability=1.0, times=1),))

    def burst(self, graph, inputs, plan, workers=2):
        service = serve(graph, ServeOptions(
            backend="parallel", workers=workers, max_batch_size=32,
            compile=CompileOptions(faults=plan)))
        try:
            futures = [service.submit(InferenceRequest(inputs=values))
                       for values in inputs]
            responses = [f.result(timeout=120) for f in futures]
            report = service.report()
        finally:
            service.close()
        return responses, report

    def test_crash_mid_shard_respawns_with_identical_outputs(self):
        graph = build_smoke("ViT")
        inputs, expected = reference_outputs(graph, 32)
        responses, report = self.burst(graph, inputs, self.CRASH_ONCE)
        assert_byte_identical(responses, expected)
        assert report.worker_restarts == 1
        assert not active_segments()

    def test_exhausted_respawn_budget_rescues_in_process(self, monkeypatch):
        monkeypatch.setattr(pb, "_MAX_SHARD_RETRIES", 0)
        graph = build_smoke("ViT")
        inputs, expected = reference_outputs(graph, 32)
        responses, report = self.burst(graph, inputs, self.CRASH_ONCE)
        assert_byte_identical(responses, expected)
        assert report.worker_restarts == 1
        assert not active_segments()

    def test_chaos_plan_worker_crashes_are_absorbed(self):
        graph = build_smoke("ViT")
        inputs, expected = reference_outputs(graph, 32)
        for seed in (7, 20_240_428):
            responses, _report = self.burst(
                graph, inputs, FaultPlan.chaos(seed))
            assert_byte_identical(responses, expected)
        assert not active_segments()


def assert_ring_full(pool):
    """Every segment the pool's dispatches acquired was handed back."""
    assert len(pool.ring._free) == len(pool.ring.segments)


def kill_idle_worker(pool, index=0):
    worker = pool._workers[index]
    os.kill(worker.proc.pid, signal.SIGKILL)
    worker.proc.join(timeout=10)
    assert not worker.proc.is_alive()


class TestPoolOwnsItsFailures:
    """The pool detects and replaces a lost worker itself - dead while
    idle, dead mid-shard or stalled - and every exit of a dispatch
    hands its shared-memory segments back."""

    def test_a_dead_idle_worker_is_replaced_and_serves(self):
        graph = build_smoke("Pythia")
        inputs, expected = reference_outputs(graph, 8)
        service = serve(graph, ServeOptions(
            backend="parallel", workers=1, max_batch_size=8,
            compile=CompileOptions(faults=NO_FAULTS)))
        try:
            pool = service._session._parallel_pool
            kill_idle_worker(pool)
            futures = [service.submit(InferenceRequest(inputs=values))
                       for values in inputs]
            responses = [f.result(timeout=120) for f in futures]
            report = service.report()
            assert {r.stats.backend for r in responses} == {"parallel"}
            assert_byte_identical(responses, expected)
            assert (report.worker_restarts, report.fallbacks) == (1, 0)
            assert_ring_full(pool)
        finally:
            service.close()
        # Nothing process-wide remembers the loss: a fresh compile of
        # the same graph starts and serves on its own pool.
        again = repro.compile(graph, backend="parallel", workers=1,
                              faults=NO_FAULTS)
        try:
            response = again.run(InferenceRequest(inputs=inputs[0]))
            assert response.stats.backend == "parallel"
            assert again.session._parallel_pool is not None
            assert_byte_identical([response], expected[:1])
        finally:
            again.close()
        assert not active_segments()

    def test_a_stall_leaks_no_late_reply_into_the_next_batch(
            self, monkeypatch):
        graph = build_smoke("ViT")
        inputs, expected = reference_outputs(graph, 32)
        model = repro.compile(graph, backend="parallel", workers=1,
                              faults=NO_FAULTS)
        timeout = pb._DISPATCH_TIMEOUT_S
        try:
            # Already past its deadline: the dispatch stalls right after
            # the send, with the shard still running in the worker.
            monkeypatch.setattr(pb, "_DISPATCH_TIMEOUT_S", -1.0)
            with pytest.raises(WorkerCrashed, match="stalled"):
                model.run_batch([InferenceRequest(inputs=values)
                                 for values in inputs[:16]])
            monkeypatch.setattr(pb, "_DISPATCH_TIMEOUT_S", timeout)
            pool = model.session._parallel_pool
            assert_ring_full(pool)
            assert pool.restarts == 1
            got = model.run_batch([InferenceRequest(inputs=values)
                                   for values in inputs[16:]])
            assert_byte_identical(got, expected[16:])
            assert_ring_full(pool)
        finally:
            model.close()
        assert not active_segments()

    def test_a_worker_error_propagates_once(self, monkeypatch):
        # Workers forked after the patch fail writing their outputs: the
        # error reaches the caller once, nothing re-runs the batch
        # in-process, and the segment comes back.
        def refuse(*_args):
            raise RuntimeError("output write refused")

        monkeypatch.setattr(pb.ShardLayout, "write_outputs", refuse)
        model = repro.compile(build_smoke("Pythia"), backend="parallel",
                              workers=1, faults=NO_FAULTS)
        try:
            with pytest.raises(RuntimeError, match="output write refused"):
                model.run_batch([model.make_request(seed=seed)
                                 for seed in range(3)])
            assert model.session.stats.fallbacks == 0
            assert model.session.stats.requests == 0
            assert_ring_full(model.session._parallel_pool)
        finally:
            model.close()
        assert not active_segments()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_respawn_releases_and_the_next_dispatch_heals(
            self, monkeypatch, workers):
        # The last worker is dead and its respawn fails.  With two, the
        # first holds a shard meanwhile: it must not outlive the failed
        # dispatch holding a freed segment, or its late reply is read as
        # the next dispatch's outputs.
        graph = build_smoke("Pythia")
        inputs, expected = reference_outputs(graph, 1 + 2 * workers)
        monkeypatch.setattr(pb, "_MIN_STACKED_SHARD", 1)
        monkeypatch.setattr(pb, "_available_cpus", lambda: workers)
        model = repro.compile(graph, backend="parallel", workers=workers,
                              faults=NO_FAULTS)
        try:
            model.run(InferenceRequest(inputs=inputs[0]))  # pool up
            pool = model.session._parallel_pool
            kill_idle_worker(pool, index=workers - 1)

            def refuse(index):
                raise WorkerCrashed(f"worker {index} refused to fork")

            with monkeypatch.context() as patch:
                patch.setattr(pool, "_spawn", refuse)
                with pytest.raises(WorkerCrashed, match="refused to fork"):
                    model.run_batch([InferenceRequest(inputs=values)
                                     for values in inputs[1:1 + workers]])
            assert_ring_full(pool)
            assert pool.restarts == 0
            got = model.run_batch([InferenceRequest(inputs=values)
                                   for values in inputs[1 + workers:]])
            assert {r.stats.backend for r in got} == {"parallel"}
            assert_byte_identical(got, expected[1 + workers:])
            assert (pool.restarts, model.session.stats.fallbacks) \
                == (workers, 0)
            assert_ring_full(pool)
        finally:
            model.close()
        assert not active_segments()

    def test_a_refused_pool_start_raises_and_the_next_batch_retries(
            self, monkeypatch):
        # Nothing remembers a pool that failed to start: the batch that
        # needed it fails, and the next one starts a pool and shards.
        graph = build_smoke("Pythia")
        inputs, expected = reference_outputs(graph, 4)
        batch = [InferenceRequest(inputs=values) for values in inputs]
        model = repro.compile(graph, backend="parallel", workers=1,
                              faults=NO_FAULTS)

        def refuse(_pool, index):
            raise WorkerCrashed(f"worker {index} refused to fork")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(pb.WorkerPool, "_spawn", refuse)
                with pytest.raises(WorkerCrashed, match="refused to fork"):
                    model.run_batch(batch)
                with pytest.raises(WorkerCrashed, match="refused to fork"):
                    serve(graph, backend="parallel", workers=1)
            assert model.session._parallel_pool is None
            assert model.session.stats.requests == 0
            assert not active_segments()
            got = model.run_batch(batch)
            assert {r.stats.backend for r in got} == {"parallel"}
            assert_byte_identical(got, expected)
            pool = model.session._parallel_pool
            assert pool is not None and pool.restarts == 0
            assert_ring_full(pool)
        finally:
            model.close()
        assert not active_segments()

    def test_session_faults_fire_once_in_the_parent(self):
        # The pool's warm-up and its workers take the in-process route,
        # not the fault injector: an eagerly started pool consumes no
        # request ordinal, so the fault meant for request 0 fires on it.
        graph = build_smoke("Pythia")
        inputs, expected = reference_outputs(graph, 1)
        plan = FaultPlan(rules=(FaultRule(kind="kernel", request_index=0),))
        service = serve(graph, ServeOptions(
            backend="parallel", workers=1, compile=CompileOptions(faults=plan)))
        try:
            assert service._session._parallel_pool is not None
            request = InferenceRequest(inputs=inputs[0])
            with pytest.raises(ExecutionError, match="injected kernel fault"):
                service.submit(request).result(timeout=120)
            response = service.submit(request).result(timeout=120)
            assert_byte_identical([response], expected)
            assert service.report().fallbacks == 0
        finally:
            service.close()
        assert not active_segments()


class TestShmCleanup:
    def test_close_unlinks_every_segment(self):
        graph = build_smoke("Pythia")
        service = serve(graph, ServeOptions(
            backend="parallel", workers=2,
            compile=CompileOptions(faults=NO_FAULTS)))
        future = service.submit(InferenceRequest(
            inputs=_compile_session(
                graph, "Ours", faults=NO_FAULTS).make_inputs(seed=0)))
        future.result(timeout=120)
        assert active_segments()  # the ring is live while serving
        service.close()
        assert not active_segments()

    def test_close_is_idempotent_and_session_survives(self):
        graph = build_smoke("Pythia")
        session = _compile_session(
            graph, "Ours", backend="parallel", workers=1, faults=NO_FAULTS)
        inputs = session.make_inputs(seed=0)
        first = serve_one(session, dict(inputs))
        session.close()
        session.close()
        assert not active_segments()
        # The session stays usable: the pool is recreated on demand.
        again = serve_one(session, dict(inputs))
        for key, value in first.items():
            assert again[key].tobytes() == value.tobytes()
        session.close()
        assert not active_segments()

    def test_a_dropped_model_releases_its_pool(self):
        # compile() owns the session it builds, so a model dropped
        # without close() still stops its workers and unlinks its ring.
        graph = build_smoke("Pythia")
        segments = active_segments()
        workers = len(multiprocessing.active_children())
        models = [repro.compile(graph, backend="parallel", workers=1,
                                faults=NO_FAULTS) for _ in range(2)]
        assert models[0].program is models[1].program
        for model in models:
            model.run(model.make_request(seed=0))
            assert model.session._parallel_pool is not None
        assert len(multiprocessing.active_children()) == workers + 2
        del models, model
        gc.collect()
        assert active_segments() == segments
        assert len(multiprocessing.active_children()) == workers

    def test_a_borrowed_session_outlives_its_wrapper(self):
        # Only compile() owns a session; a CompiledModel wrapped around
        # a session built elsewhere leaves its pool alone when dropped.
        graph = build_smoke("Pythia")
        session = _compile_session(
            graph, "Ours", backend="parallel", workers=1, faults=NO_FAULTS)
        try:
            wrapper = CompiledModel(session)
            wrapper.run(wrapper.make_request(seed=0))
            pool = session._parallel_pool
            assert pool is not None
            del wrapper
            gc.collect()
            assert session._parallel_pool is pool
            assert active_segments()
            serve_one(session, session.make_inputs(seed=1))
        finally:
            session.close()
        assert not active_segments()

    def test_close_then_drop_releases_once(self):
        graph = build_smoke("Pythia")
        segments = active_segments()
        workers = len(multiprocessing.active_children())
        model = repro.compile(graph, backend="parallel", workers=1,
                              faults=NO_FAULTS)
        model.run(model.make_request(seed=0))
        model.close()
        assert active_segments() == segments
        assert len(multiprocessing.active_children()) == workers
        del model
        gc.collect()  # the finalizer's second close is a no-op
        assert active_segments() == segments
        assert len(multiprocessing.active_children()) == workers


class TestForkDuringAFill:
    """A worker forked while a parent thread is inside a build starts
    with an empty in-flight fill table and a free emission lock: neither
    another key's held lock, nor the held lock of the very variant the
    worker needs, nor the lock an emission holds stalls it."""

    @pytest.mark.parametrize("held", [
        "another key", "the worker's variant", "the emission lock"])
    def test_a_worker_forked_during_a_fill_serves(self, monkeypatch, held):
        monkeypatch.setattr(pb, "_DISPATCH_TIMEOUT_S", 10.0)
        clear_cell_cache()  # a fresh program: no variant built in-process
        model = repro.compile(build_smoke("ViT"), backend="parallel",
                              workers=1, faults=NO_FAULTS)
        requests = [model.make_request(seed=seed) for seed in range(3)]
        started, release = threading.Event(), threading.Event()

        def build(*args):
            started.set()
            release.wait(timeout=60)
            return _build_variant(*args) if args else 1

        def emitting():
            with codegen_backend._EMISSIONS_LOCK:
                build()

        # The bucket-4 stacked variant a batch of 3 runs: only workers
        # build it, and each then emits its module.
        variants = fill_once(model.program.backend_cache,
                             "batching.variants", dict)
        assert (4, True) not in variants
        if held == "another key":
            holder = threading.Thread(target=fill_once,
                                      args=({}, "unrelated", build))
        elif held == "the worker's variant":
            holder = threading.Thread(target=fill_once, args=(
                variants, (4, True), build, model.program, 4, True))
        else:
            holder = threading.Thread(target=emitting)
        try:
            want = model.run_batch(requests)
            model.close()  # the next batch forks a new worker
            holder.start()
            assert started.wait(timeout=10)
            got = model.run_batch(requests)  # forks while the fill is held
            assert model.session.parallel_restarts == 0
            assert_byte_identical(got, [r.outputs for r in want])
        finally:
            release.set()
            if holder.is_alive():
                holder.join(timeout=60)
            model.close()
        assert not active_segments()


class TestSharding:
    def test_stackable_shards_stay_large(self):
        graph = build_smoke("ViT")
        session = _compile_session(
            graph, "Ours", backend="parallel", workers=4, faults=NO_FAULTS)
        session.parallel_capacity = 32
        try:
            pool = session.ensure_parallel_pool()
            assert pool is not None
            assert pool._num_shards(1) == 1
            assert pool._num_shards(pb._MIN_STACKED_SHARD - 1) == 1
            # capacity bounds a shard from above regardless of fan-out
            assert pool._num_shards(4 * pool.capacity) >= 4
        finally:
            session.close()

    def test_worker_restarts_visible_on_session(self):
        graph = build_smoke("Pythia")
        session = _compile_session(
            graph, "Ours", backend="parallel", workers=1,
            faults=FaultPlan(rules=(
                FaultRule(kind="worker_crash", probability=1.0, times=1),)))
        try:
            serve_one(session, dict(session.make_inputs(seed=0)))
            assert session.parallel_restarts == 1
        finally:
            session.close()
