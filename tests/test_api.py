"""Tests for the typed service-layer API: repro.compile / repro.serve."""

import importlib
import threading
import time
import warnings

import numpy as np
import pytest

import repro
from repro.api import (
    CompileOptions, InferenceRequest, ServeOptions, Service, serve,
)
from repro.api import options as options_module
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import (
    FaultPlan, FaultRule, execute, get_backend, make_inputs,
)


def _smoke(name):
    return build(name, **SMOKE_CONFIGS[name])


def _reference(graph, inputs):
    """What the service must produce: the compiled graph executed over
    seed-0 parameters overlaid with the request's input tensors."""
    return execute(graph, {**make_inputs(graph, seed=0), **inputs})


def _graph_inputs(graph, seed):
    full = make_inputs(graph, seed=seed)
    return {name: full[name] for name in graph.inputs}


class TestCompileFrontDoor:
    @pytest.fixture(scope="class")
    def model(self):
        return repro.compile(_smoke("ViT"))

    def test_run_matches_execute(self, model):
        inputs = _graph_inputs(model.graph, seed=3)
        response = model.run(InferenceRequest(inputs=inputs, request_id="r3"))
        ref = _reference(model.graph, inputs)
        assert sorted(response.outputs) == sorted(ref)
        for key in ref:
            assert np.array_equal(response.outputs[key], ref[key]), key
        assert response.request_id == "r3"
        assert response.batch_size == 1
        assert response.stats.wall_s > 0
        assert response.stats.pool.total_allocated_bytes > 0

    def test_plain_mapping_accepted(self, model):
        inputs = _graph_inputs(model.graph, seed=1)
        assert model.run(inputs).outputs

    def test_run_batch(self, model):
        requests = [InferenceRequest(inputs=_graph_inputs(model.graph, s),
                                     request_id=s) for s in range(3)]
        responses = model.run_batch(requests)
        assert [r.request_id for r in responses] == [0, 1, 2]
        assert all(r.batch_size == 3 for r in responses)
        name = next(iter(responses[0].outputs))
        assert not np.array_equal(responses[0].outputs[name],
                                  responses[1].outputs[name])

    def test_identical_rebuilt_graph_shares_one_program(self):
        g1, g2 = _smoke("ViT"), _smoke("ViT")
        assert g1 is not g2
        assert g1.fingerprint() == g2.fingerprint()
        a, b = repro.compile(g1), repro.compile(g2)
        assert a.program is b.program
        assert a.session is not b.session

    def test_options_merge_and_validation(self):
        g = _smoke("ViT")
        options = CompileOptions(framework="Ours")
        a = repro.compile(g, options)
        b = repro.compile(g, framework="Ours")
        assert a.program is b.program
        assert a.session is not b.session
        with pytest.raises(TypeError, match="unknown CompileOptions fields"):
            repro.compile(g, options, not_a_field=1)
        with pytest.raises(KeyError, match="unknown backend"):
            repro.compile(g, backend="tpu")
        with pytest.raises(RuntimeError, match="cannot serve"):
            repro.compile(g, framework="NCNN")

    def test_input_signature_is_admission_spec(self, model):
        assert model.input_signature == model.program.input_signature
        names = [name for name, _, _ in model.input_signature]
        assert names == list(model.graph.inputs)

    def test_batch_key_stable_across_identical_compiles(self):
        a = repro.compile(_smoke("ViT")).program.batch_key
        b = repro.compile(_smoke("ViT")).program.batch_key
        assert a == b


class TestStrictAdmission:
    """Front-door plumbing around admission (the malformed-request table
    itself is ``tests/test_admission.py``)."""

    @pytest.fixture(scope="class")
    def model(self):
        return repro.compile(_smoke("ViT"))

    def test_empty_batch_rejected(self, model):
        with pytest.raises(ValueError, match="empty batch"):
            model.run_batch([])

    def test_submit_rejects_before_queueing(self):
        service = serve(_smoke("ViT"))
        try:
            with pytest.raises(ValueError, match="unknown input tensor"):
                service.submit({"bogus": np.zeros(3)})
            assert service.report().requests == 0
        finally:
            service.close()


class TestServiceScheduler:
    def test_concurrent_submitters_get_their_own_outputs(self):
        service = serve(_smoke("Pythia"), max_batch_size=4)
        graph = service.program.graph
        seeds = list(range(12))
        refs = {s: _reference(graph, _graph_inputs(graph, s)) for s in seeds}
        responses = {}
        errors = []

        def client(worker_seeds):
            try:
                futures = [
                    (s, service.submit(InferenceRequest(
                        inputs=_graph_inputs(graph, s), request_id=s)))
                    for s in worker_seeds]
                for s, future in futures:
                    responses[s] = future.result(timeout=30)
            except Exception as err:  # noqa: BLE001 - surfaced below
                errors.append(err)

        threads = [threading.Thread(target=client, args=(seeds[i::4],))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.close()
        assert not errors
        assert sorted(responses) == seeds
        for s in seeds:
            assert responses[s].request_id == s
            for key in refs[s]:
                assert np.array_equal(responses[s].outputs[key],
                                      refs[s][key]), (s, key)

    def test_coalescing_respects_max_batch_size(self, scheduling):
        service = scheduling.parked(_smoke("Pythia"), max_batch_size=4)
        inputs = _graph_inputs(service.program.graph, 0)
        futures = [service.submit(inputs) for _ in range(10)]
        scheduling.release(service)
        responses = [f.result(timeout=30) for f in futures]
        service.close()
        report = service.report()
        # a pre-loaded queue of 10 drains as 4 + 4 + 2, nothing smaller
        assert [r.batch_size for r in responses] == [4] * 8 + [2] * 2
        assert report.largest_batch == 4
        assert report.requests == 10
        assert report.batches == 3

    @pytest.mark.filterwarnings("ignore:ServeOptions.max_wait_ms")
    @pytest.mark.parametrize("max_wait_ms", [0.0, 200.0])
    def test_lone_request_is_never_held(self, max_wait_ms):
        # Work-conserving: an idle worker takes a lone request at once,
        # whatever the (deprecated) coalescing window says.
        service = serve(_smoke("Pythia"), max_batch_size=8,
                        max_wait_ms=max_wait_ms)
        response = service.infer(_graph_inputs(service.program.graph, 0),
                                 timeout=30)
        service.close()
        assert response.batch_size == 1
        assert response.queued_ms < 50

    @pytest.mark.parametrize("k", [3, 6])
    def test_backlog_behind_a_running_batch_is_the_next_batch(
            self, scheduling, k):
        service, blocker = scheduling.blocked(
            _smoke("Pythia"), max_batch_size=4)
        graph = service.program.graph
        inputs = [_graph_inputs(graph, seed) for seed in range(k)]
        futures = [service.submit(values) for values in inputs]
        assert not blocker.done()  # all k queued while the blocker ran
        responses = [f.result(timeout=30) for f in futures]
        service.close()
        first = min(k, 4)
        assert [r.batch_size for r in responses] == \
            [first] * first + [k - first] * (k - first)
        assert all(r.stats.batched for r in responses[:first])
        report = service.report()
        assert report.batches == 1 + (2 if k > 4 else 1)  # blocker first
        assert report.largest_batch == first
        for values, response in zip(inputs, responses):
            solo = _reference(graph, values)
            for key in solo:
                assert response.outputs[key].tobytes() == \
                    solo[key].tobytes(), key

    @pytest.mark.parametrize("priority", [0, 3])  # FIFO path, heap path
    def test_cancelled_entries_do_not_take_batch_slots(
            self, scheduling, priority):
        plan = FaultPlan(rules=(FaultRule(kind="kernel", request_id="bad"),))
        service = scheduling.parked(_smoke("Pythia"), max_batch_size=8,
                                    faults=plan)
        inputs = _graph_inputs(service.program.graph, 0)

        def submit(**meta):
            return service.submit(
                InferenceRequest(inputs, priority=priority, **meta))

        burst = [submit() for _ in range(16)]
        for future in burst[1::2]:
            assert future.cancel()
        bad = submit(request_id="bad")
        late = submit(deadline_ms=0.0)
        time.sleep(0.005)
        scheduling.release(service)
        service.close()  # drains

        # 8 live requests were queued ahead of a full batch's worth of
        # slots: they run as ONE batch of 8, not two half-empty ones.
        assert [f.result().batch_size for f in burst[0::2]] == [8] * 8
        assert all(f.cancelled() for f in burst[1::2])
        assert isinstance(bad.exception(), RuntimeError)
        assert isinstance(late.exception(), TimeoutError)
        report = service.report()
        assert (report.requests, report.failed, report.expired,
                report.cancelled) == (8, 1, 1, 8)
        assert report.batches == 1
        assert report.queue_depth == 0

    def test_close_drains_queue(self):
        service = serve(_smoke("Pythia"), max_batch_size=4)
        inputs = _graph_inputs(service.program.graph, 0)
        futures = [service.submit(inputs) for _ in range(25)]
        service.close()
        assert all(f.done() for f in futures)
        assert all(f.result().outputs for f in futures)
        report = service.report()
        assert report.requests == 25
        assert report.queue_depth == 0
        assert report.closed
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(inputs)

    def test_priority_orders_the_queue(self):
        model = repro.compile(_smoke("Pythia"))
        service = Service(model, ServeOptions(max_batch_size=2), _start=False)
        inputs = _graph_inputs(service.program.graph, 0)
        service.submit(InferenceRequest(inputs, request_id="a"))
        service.submit(InferenceRequest(inputs, request_id="b"))
        service.submit(InferenceRequest(inputs, request_id="c", priority=5))
        first = service._next_batch()
        second = service._next_batch()
        assert [e.request_id for e in first] == ["c", "a"]
        assert [e.request_id for e in second] == ["b"]
        service._execute(first)
        service._execute(second)
        service.close()

    def test_deadline_miss_fails_with_timeout(self):
        model = repro.compile(_smoke("Pythia"))
        service = Service(model, ServeOptions(max_batch_size=2), _start=False)
        inputs = _graph_inputs(service.program.graph, 0)
        expired = service.submit(InferenceRequest(inputs, deadline_ms=0.0))
        alive = service.submit(InferenceRequest(inputs))
        time.sleep(0.005)
        service._execute(service._next_batch())
        with pytest.raises(TimeoutError, match="missed its deadline"):
            expired.result()
        assert isinstance(expired.exception(), TimeoutError)
        assert alive.result().outputs
        report = service.report()
        assert report.expired == 1
        assert report.requests == 1
        service.close()

    def test_backend_failure_fails_the_batch(self, monkeypatch):
        model = repro.compile(_smoke("Pythia"))
        service = Service(model, ServeOptions(max_batch_size=4), _start=False)
        inputs = _graph_inputs(service.program.graph, 0)

        def explode(program, values_list):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(get_backend("numpy"), "run_many", explode)
        futures = [service.submit(inputs) for _ in range(2)]
        service._execute(service._next_batch())
        for future in futures:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                future.result()
        assert service.report().failed == 2
        service.close()

    def test_queue_backpressure(self):
        model = repro.compile(_smoke("Pythia"))
        service = Service(model, ServeOptions(max_batch_size=2, max_queue=2),
                          _start=False)
        inputs = _graph_inputs(service.program.graph, 0)
        service.submit(inputs)
        service.submit(inputs)
        with pytest.raises(RuntimeError, match="queue is full"):
            service.submit(inputs)
        service._execute(service._next_batch())
        service.close()

    def test_future_result_timeout(self):
        model = repro.compile(_smoke("Pythia"))
        service = Service(model, ServeOptions(), _start=False)
        future = service.submit(_graph_inputs(service.program.graph, 0))
        with pytest.raises(TimeoutError, match="pending"):
            future.result(timeout=0.01)
        service._execute(service._next_batch())
        assert future.result().outputs
        service.close()

    def test_report_statistics(self):
        with serve(_smoke("Pythia"), max_batch_size=8) as service:
            inputs = _graph_inputs(service.program.graph, 0)
            for future in [service.submit(inputs) for _ in range(16)]:
                future.result(timeout=30)
            report = service.report()
        assert report.requests == 16
        assert report.batches >= 2
        assert report.mean_batch_size == pytest.approx(
            report.requests / report.batches)
        assert report.queue_depth_peak >= report.largest_batch > 0
        assert report.total_exec_s > 0
        assert report.throughput_rps > 0

    def test_batch_key_is_the_programs(self):
        with serve(_smoke("Pythia")) as service:
            assert service.batch_key == service.program.batch_key

    def test_service_records_into_session_stats(self):
        with serve(_smoke("Pythia")) as service:
            inputs = _graph_inputs(service.program.graph, 0)
            service.infer(inputs, timeout=30)
            service.infer(inputs, timeout=30)
            session = service.compiled.session
            assert session.stats.requests == 2
            # every request reports the program's static slot-plan report
            assert session.stats.runs[-1].pool is session.program.report

    def test_serve_options_validated(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServeOptions(max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServeOptions(max_wait_ms=-1.0)
        with pytest.raises(ValueError, match="max_queue"):
            ServeOptions(max_queue=0)


class TestPublicSurface:
    def test_top_level_names_all_resolve(self):
        assert len(repro.__all__) == 43
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module, name", [
        ("repro.api", "session_cache"),
        ("repro.api", "compile_private"),
        ("repro.runtime", "SessionRegistry"),
        ("repro.runtime", "Artifact"),
        ("repro.runtime", "plan_to_json"),
        ("repro.runtime", "plan_from_json"),
    ])
    def test_removed_name_is_gone(self, module, name):
        # One compile cache (the cell cache) and no on-disk artifact:
        # their old doors must not linger under a public name.
        module = importlib.import_module(module)
        assert name not in module.__all__
        assert not hasattr(module, name)

    def test_the_artifact_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.runtime.artifact")


class TestDeprecatedOptions:
    def test_max_wait_ms_warns_exactly_once_when_set(self):
        options_module._DEPRECATION_WARNED.discard("ServeOptions.max_wait_ms")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ServeOptions()
            ServeOptions(max_wait_ms=0.0)
            assert not caught  # the default is silent
            options = ServeOptions(max_wait_ms=2.0)
            ServeOptions(max_wait_ms=5.0)
        relevant = [w for w in caught
                    if issubclass(w.category, DeprecationWarning)
                    and "max_wait_ms" in str(w.message)]
        assert len(relevant) == 1
        assert relevant[0].filename == __file__  # blames the caller
        assert options.max_wait_ms == 2.0  # still accepted and carried

