"""Fault-tolerance tests: error taxonomy, fault injection, isolation,
retry/backoff, worker supervision, and the process pool's in-process
rescue.

Every failure path is driven deterministically through
:class:`repro.FaultPlan` seeds - no reliance on real crashes or timing
races for the core semantics.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro import FaultPlan, FaultRule, RetryPolicy
from repro.api import (
    AdmissionError, BackendCompilationError, CompileOptions, DeadlineExceeded,
    ExecutionError, InferenceRequest, QueueFull, ReproError, ServeOptions,
    Service, ServiceClosed, serve,
)
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import execute, make_inputs
from repro.runtime import parallel_backend as pb
from repro.runtime.faults import FaultInjector, InjectedCrash


def _smoke(name="Pythia"):
    return build(name, **SMOKE_CONFIGS[name])


def _graph_inputs(graph, seed):
    full = make_inputs(graph, seed=seed)
    return {name: full[name] for name in graph.inputs}


def _reference(graph, inputs):
    return execute(graph, {**make_inputs(graph, seed=0), **inputs})


def _assert_matches_reference(graph, inputs, outputs):
    ref = _reference(graph, inputs)
    assert sorted(outputs) == sorted(ref)
    for key in ref:
        assert np.array_equal(outputs[key], ref[key]), key


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class TestErrorTaxonomy:
    def test_hierarchy_preserves_legacy_builtin_types(self):
        # Existing callers catch ValueError / TimeoutError / RuntimeError;
        # the taxonomy must stay substitutable for all of them.
        assert issubclass(AdmissionError, ValueError)
        assert issubclass(DeadlineExceeded, TimeoutError)
        for cls in (ExecutionError, BackendCompilationError, ServiceClosed,
                    QueueFull):
            assert issubclass(cls, RuntimeError)
        for cls in (AdmissionError, DeadlineExceeded, ExecutionError,
                    BackendCompilationError, ServiceClosed, QueueFull):
            assert issubclass(cls, ReproError)

    def test_retryable_defaults(self):
        assert not ExecutionError("x").retryable
        assert not AdmissionError("x").retryable
        assert not DeadlineExceeded("x").retryable
        assert BackendCompilationError("x").retryable
        assert QueueFull("x").retryable

    def test_context_carries_attribution(self):
        err = ExecutionError(
            "boom", request_id="r1", model="Pythia", backend="codegen",
            fingerprint="abc", retryable=True)
        assert err.request_id == "r1"
        assert err.context() == {
            "request_id": "r1", "model": "Pythia", "fingerprint": "abc",
            "backend": "codegen", "retryable": True}

    def test_admission_error_names_request_and_model(self):
        model = repro.compile(_smoke())
        with pytest.raises(AdmissionError, match="request 'r9'") as exc:
            model.run(InferenceRequest(inputs={"nope": np.zeros(1)},
                                       request_id="r9"))
        assert exc.value.request_id == "r9"
        assert exc.value.model


# ---------------------------------------------------------------------------
# Fault plans and injection
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="cosmic-ray")
        with pytest.raises(ValueError, match="probability"):
            FaultRule(kind="kernel", probability=1.5)
        with pytest.raises(ValueError, match="latency_ms"):
            FaultRule(kind="latency", latency_ms=-1)

    def test_plan_is_hashable_and_rides_its_own_session(self):
        plan = FaultPlan(rules=(FaultRule(kind="latency", latency_ms=0.01),))
        hash(plan)  # frozen -> usable as a CompileOptions field
        graph = _smoke()
        clean = repro.compile(graph)
        faulty = repro.compile(graph, faults=plan)
        # A fault plan is per session: the program is shared.
        assert faulty.program is clean.program
        assert faulty.session is not clean.session
        assert faulty.session.faults == plan

    def test_chaos_plan_is_deterministic_per_seed(self):
        assert FaultPlan.chaos(7) == FaultPlan.chaos(7)
        assert FaultPlan.chaos(7) != FaultPlan.chaos(8)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_SEED", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULT_SEED", "42")
        assert FaultPlan.from_env() == FaultPlan.chaos(42)
        monkeypatch.setenv("REPRO_FAULT_SEED", "not-a-seed")
        with pytest.raises(ValueError):
            FaultPlan.from_env()

    def test_injected_kernel_fault_surfaces_as_execution_error(self):
        plan = FaultPlan(rules=(FaultRule(kind="kernel", step=3),))
        model = repro.compile(_smoke(), CompileOptions(faults=plan))
        with pytest.raises(ExecutionError, match="injected kernel fault "
                                                 "at step 3"):
            model.run(model.make_request(seed=0))
        # The rule's budget (times=1) is spent: the next run is clean.
        response = model.run(model.make_request(seed=0))
        assert response.stats.backend == "numpy"

    def test_service_level_rules_are_pure_per_attempt(self):
        plan = FaultPlan(rules=(
            FaultRule(kind="kernel", request_id="bad", attempts=(0,)),))
        injector = FaultInjector(plan)
        # Same (request_id, attempt) -> same answer, however often asked
        # (the coalesced-batch pass and the solo isolation pass agree).
        assert injector.request_faults("bad", 0)
        assert injector.request_faults("bad", 0)
        assert not injector.request_faults("bad", 1)
        assert not injector.request_faults("other", 0)


# ---------------------------------------------------------------------------
# Graceful degradation: a lost shard past its respawn budget runs in-process
# ---------------------------------------------------------------------------

CRASH_ONCE = FaultPlan(rules=(FaultRule(kind="worker_crash"),))
CRASH_ALWAYS = FaultPlan(rules=(FaultRule(kind="worker_crash", times=None),))


class TestGracefulDegradation:
    @pytest.fixture(autouse=True)
    def _no_respawn_budget(self, monkeypatch):
        """Every lost shard is rescued in-process at once."""
        monkeypatch.setattr(pb, "_MAX_SHARD_RETRIES", 0)

    def test_rescued_shard_has_identical_outputs(self):
        graph = _smoke()
        inputs = _graph_inputs(graph, seed=5)
        model = repro.compile(_smoke(), CompileOptions(
            backend="parallel", workers=1, faults=CRASH_ONCE))
        try:
            rescued = model.run(InferenceRequest(inputs=inputs))
            assert rescued.stats.backend == "parallel"
            assert model.session.stats.fallbacks == 1
            assert model.session.parallel_restarts == 1
            _assert_matches_reference(graph, inputs, rescued.outputs)

            # Fault budget spent: the next run is served by a worker and
            # produces the same bytes.
            recovered = model.run(InferenceRequest(inputs=inputs))
            assert model.session.stats.fallbacks == 1
            _assert_matches_reference(graph, inputs, recovered.outputs)
        finally:
            model.close()

    def test_every_invocation_tries_the_pool_again(self):
        # No circuit: a persistently crashing pool is offered every
        # invocation, replaces the worker, and rescues the shard.
        model = repro.compile(_smoke(), CompileOptions(
            backend="parallel", workers=1, faults=CRASH_ALWAYS))
        session = model.session
        request = model.make_request(seed=0)
        try:
            for expected in (1, 2, 3, 4):
                assert model.run(request).stats.backend == "parallel"
                assert session.stats.fallbacks == expected
                assert session.parallel_restarts == expected
        finally:
            model.close()

    @pytest.mark.parametrize("backend", ["numpy", "codegen"])
    def test_worker_crash_faults_never_target_the_in_process_runner(
            self, backend):
        model = repro.compile(
            _smoke(), CompileOptions(backend=backend, faults=CRASH_ALWAYS))
        response = model.run(model.make_request(seed=0))
        assert response.stats.backend == "numpy"
        assert model.session.stats.fallbacks == 0
        assert model.session._parallel_pool is None

    def test_run_batch_is_rescued_as_a_unit(self):
        graph = _smoke()
        model = repro.compile(_smoke(), CompileOptions(
            backend="parallel", workers=1, faults=CRASH_ONCE))
        requests = [InferenceRequest(inputs=_graph_inputs(graph, seed=s))
                    for s in range(3)]
        try:
            responses = model.run_batch(requests)
        finally:
            model.close()
        assert [r.stats.backend for r in responses] == ["parallel"] * 3
        assert model.session.stats.fallbacks == 1
        for seed, response in enumerate(responses):
            _assert_matches_reference(
                graph, _graph_inputs(graph, seed), response.outputs)


# ---------------------------------------------------------------------------
# Scheduler: isolation, retry/backoff
# ---------------------------------------------------------------------------

class TestIsolationAndRetry:
    def test_batchmates_survive_a_faulting_request(self):
        graph = _smoke()
        plan = FaultPlan(rules=(
            FaultRule(kind="kernel", request_id="bad"),))
        service = Service(
            repro.compile(_smoke(), CompileOptions()),
            ServeOptions(max_batch_size=4, faults=plan),
            _start=False)
        futures = {}
        for rid in ("ok-1", "bad", "ok-2"):
            seed = hash(rid) % 100
            inputs = _graph_inputs(graph, seed)
            futures[rid] = (inputs, service.submit(
                InferenceRequest(inputs=inputs, request_id=rid)))
        service._execute(service._next_batch())

        for rid in ("ok-1", "ok-2"):
            inputs, future = futures[rid]
            _assert_matches_reference(graph, inputs, future.result().outputs)
        with pytest.raises(ExecutionError,
                           match="request 'bad': injected kernel fault"):
            futures["bad"][1].result()
        assert futures["bad"][1].exception().request_id == "bad"

        report = service.report()
        assert report.isolated == 3  # whole batch re-run request-by-request
        assert report.failed == 1
        assert report.requests == 2
        service.close()

    def test_retryable_fault_succeeds_on_retry_within_deadline(self):
        graph = _smoke()
        plan = FaultPlan(rules=(FaultRule(
            kind="kernel", request_id="flaky", attempts=(0,),
            retryable=True),))
        service = serve(
            _smoke(), ServeOptions(
                max_batch_size=4, faults=plan,
                retry=RetryPolicy(max_attempts=3, backoff_ms=0.2)))
        inputs = _graph_inputs(graph, seed=11)
        mate_inputs = _graph_inputs(graph, seed=12)
        flaky = service.submit(InferenceRequest(
            inputs=inputs, request_id="flaky", deadline_ms=10_000.0))
        mate = service.submit(InferenceRequest(
            inputs=mate_inputs, request_id="mate"))

        response = flaky.result(timeout=30.0)
        assert response.attempts == 2  # attempt 0 faulted, attempt 1 served
        _assert_matches_reference(graph, inputs, response.outputs)
        _assert_matches_reference(
            graph, mate_inputs, mate.result(timeout=30.0).outputs)
        assert service.report().retries == 1
        service.close()

    def test_retry_never_overshoots_the_deadline(self):
        plan = FaultPlan(rules=(FaultRule(
            kind="kernel", request_id="flaky", retryable=True),))
        service = Service(
            repro.compile(_smoke(), CompileOptions()),
            ServeOptions(max_batch_size=2, faults=plan,
                         retry=RetryPolicy(max_attempts=5, backoff_ms=500.0)),
            _start=False)
        future = service.submit(InferenceRequest(
            inputs=_graph_inputs(service.program.graph, 0),
            request_id="flaky", deadline_ms=50.0))
        service._execute(service._next_batch())
        with pytest.raises(TimeoutError,
                           match="request 'flaky' missed its deadline"):
            future.result()
        report = service.report()
        assert report.expired == 1
        assert report.retries == 0  # failed instead of waiting past it
        service.close()

    def test_exhausted_retries_fail_with_attributed_error(self):
        plan = FaultPlan(rules=(FaultRule(
            kind="kernel", request_id="doomed", retryable=True),))
        service = serve(
            _smoke(), ServeOptions(
                max_batch_size=2, faults=plan,
                retry=RetryPolicy(max_attempts=2, backoff_ms=0.2)))
        future = service.submit(InferenceRequest(
            inputs=_graph_inputs(service.program.graph, 0),
            request_id="doomed"))
        with pytest.raises(ExecutionError,
                           match="request 'doomed': injected kernel fault"):
            future.result(timeout=30.0)
        report = service.report()
        assert report.retries == 1
        assert report.failed == 1
        service.close()


# ---------------------------------------------------------------------------
# Worker supervision
# ---------------------------------------------------------------------------

class TestSupervision:
    def test_crashed_worker_is_restarted_and_batch_rescued(self):
        graph = _smoke()
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", request_id="boom"),))  # fires once
        service = serve(
            _smoke(), ServeOptions(max_batch_size=4, faults=plan))
        futures = {}
        for rid in ("a", "boom", "b"):
            seed = len(futures)
            inputs = _graph_inputs(graph, seed)
            futures[rid] = (inputs, service.submit(
                InferenceRequest(inputs=inputs, request_id=rid)))

        # Every request survives the crash - including the one that
        # triggered it (its crash budget is spent; the replacement
        # worker serves the rescued batch).
        for rid, (inputs, future) in futures.items():
            _assert_matches_reference(
                graph, inputs, future.result(timeout=30.0).outputs)
        assert service.report().worker_restarts == 1

        # The replacement worker keeps serving new traffic.
        inputs = _graph_inputs(graph, seed=9)
        after = service.submit(InferenceRequest(inputs=inputs))
        _assert_matches_reference(
            graph, inputs, after.result(timeout=30.0).outputs)
        assert service.report().failed == 0
        service.close()

    def test_poisonous_request_fails_instead_of_crash_looping(self):
        graph = _smoke()
        plan = FaultPlan(rules=(
            FaultRule(kind="crash", request_id="poison", times=None),))
        service = serve(
            _smoke(), ServeOptions(max_batch_size=2, faults=plan))
        poison = service.submit(InferenceRequest(
            inputs=_graph_inputs(graph, 0), request_id="poison"))
        with pytest.raises(ExecutionError, match="request 'poison' crashed "
                                                 "the worker"):
            poison.result(timeout=30.0)
        report = service.report()
        assert report.worker_restarts == 3  # initial + 2 rescues, then fail
        assert report.failed == 1

        # The service survives the poison and keeps serving.
        inputs = _graph_inputs(graph, seed=4)
        future = service.submit(InferenceRequest(inputs=inputs))
        _assert_matches_reference(
            graph, inputs, future.result(timeout=30.0).outputs)
        service.close()


# ---------------------------------------------------------------------------
# Close semantics, deadlines and backpressure under concurrent load
# ---------------------------------------------------------------------------

class TestCloseAndPressure:
    def test_close_is_idempotent_and_submit_after_close_is_typed(self):
        service = serve(_smoke())
        service.close()
        service.close()  # no-op, not an error
        assert service.closed
        with pytest.raises(ServiceClosed, match="closed") as exc:
            service.submit(InferenceRequest(
                inputs=_graph_inputs(service.program.graph, 0),
                request_id="late"))
        assert exc.value.request_id == "late"
        # Nothing was enqueued for a dead worker to leak.
        assert service.queue_depth == 0

    def test_backpressure_under_concurrent_submitters(self):
        graph = _smoke()
        service = Service(
            repro.compile(_smoke(), CompileOptions()),
            ServeOptions(max_batch_size=8, max_queue=3),
            _start=False)
        admitted, rejected, errors = [], [], []
        barrier = threading.Barrier(8)

        def client(seed):
            inputs = _graph_inputs(graph, seed)
            barrier.wait()
            try:
                admitted.append(service.submit(
                    InferenceRequest(inputs=inputs, request_id=seed)))
            except QueueFull as err:
                rejected.append(err)
            except BaseException as err:  # noqa: BLE001 - test harness
                errors.append(err)

        threads = [threading.Thread(target=client, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert len(admitted) == 3  # exactly max_queue got in
        assert len(rejected) == 5
        assert all(err.retryable for err in rejected)  # backpressure retries
        assert all("queue is full" in str(err) for err in rejected)

        service._execute(service._next_batch())
        for future in admitted:
            assert future.result().outputs
        service.close()

    def test_deadline_misses_under_concurrent_load_are_attributed(self):
        graph = _smoke()
        service = Service(
            repro.compile(_smoke(), CompileOptions()),
            ServeOptions(max_batch_size=8), _start=False)
        futures = {}
        lock = threading.Lock()

        def client(rid):
            future = service.submit(InferenceRequest(
                inputs=_graph_inputs(graph, 0), request_id=rid,
                deadline_ms=1.0))
            with lock:
                futures[rid] = future

        threads = [threading.Thread(target=client, args=(f"r{i}",))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        time.sleep(0.05)  # let every deadline lapse while queued
        service._execute(service._next_batch())

        for rid, future in futures.items():
            with pytest.raises(TimeoutError,
                               match=f"request '{rid}' missed its deadline"):
                future.result()
            assert future.exception().request_id == rid
        assert service.report().expired == 3
        service.close()


# ---------------------------------------------------------------------------
# Chaos mode: the CI premise
# ---------------------------------------------------------------------------

class TestChaos:
    def test_chaos_faults_are_absorbed_with_identical_outputs(self):
        # The chaos plan may only slow execution or kill a worker
        # process; outputs must stay byte-identical under any seed -
        # exactly what the CI chaos job (REPRO_FAULT_SEED over the
        # tier-1 suite) relies on.
        graph = _smoke()
        clean = {}
        for seed in (0, 1, 2):
            inputs = _graph_inputs(graph, seed)
            clean[seed] = (inputs, _reference(graph, inputs))
        for chaos_seed in (1, 20_240_428):
            model = repro.compile(_smoke(), CompileOptions(
                backend="parallel", workers=1,
                faults=FaultPlan.chaos(chaos_seed)))
            for seed, (inputs, ref) in clean.items():
                outputs = model.run(InferenceRequest(inputs=inputs)).outputs
                for key in ref:
                    assert np.array_equal(outputs[key], ref[key]), (
                        chaos_seed, seed, key)
            model.close()

    def test_injected_crash_is_not_a_repro_error(self):
        # If InjectedCrash were a ReproError the scheduler would treat
        # it as a request failure instead of letting it kill the worker.
        assert not issubclass(InjectedCrash, ReproError)
