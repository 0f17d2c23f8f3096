"""Asyncio front door: submit_async parity, cancellation, deadlines.

``Service.submit_async`` bridges the scheduler's futures onto the
caller's event loop; these tests pin the contract: awaited responses
are byte-identical to ``submit()``'s, typed errors re-raise through
``await``, cancelling an awaitable withdraws the queued request, and a
single loop can hold a thousand in-flight awaitables.
"""

import asyncio

import pytest

from repro.api import (
    CompileOptions, DeadlineExceeded, InferenceRequest, RequestCancelled,
    ServeOptions, serve,
)
from repro.models import build_smoke
from repro.runtime import FaultPlan
from repro.runtime.session import _compile_session

from front_door import serve_one

NO_FAULTS = FaultPlan()


@pytest.fixture()
def pythia_service():
    service = serve(build_smoke("Pythia"), ServeOptions(
        max_batch_size=8, compile=CompileOptions(faults=NO_FAULTS)))
    yield service
    service.close()


def make_burst(count):
    session = _compile_session(build_smoke("Pythia"), "Ours",
                               faults=NO_FAULTS)
    inputs = [session.make_inputs(seed=seed) for seed in range(count)]
    expected = [serve_one(session, dict(values)) for values in inputs]
    return inputs, expected


class TestSubmitAsync:
    def test_parity_with_submit_byte_identical(self, pythia_service):
        inputs, expected = make_burst(16)

        async def burst():
            calls = [pythia_service.submit_async(
                InferenceRequest(inputs=values)) for values in inputs]
            return await asyncio.gather(*calls)

        responses = asyncio.run(burst())
        sync_responses = [
            pythia_service.submit(InferenceRequest(inputs=values)).result(
                timeout=60)
            for values in inputs]
        for got, sync, want in zip(responses, sync_responses, expected):
            for key, value in want.items():
                assert got.outputs[key].tobytes() == value.tobytes()
                assert sync.outputs[key].tobytes() == value.tobytes()

    def test_requires_running_loop(self, pythia_service):
        inputs, _ = make_burst(1)
        with pytest.raises(RuntimeError):
            pythia_service.submit_async(InferenceRequest(inputs=inputs[0]))

    def test_thousand_inflight_awaitables_on_one_loop(self, pythia_service):
        inputs, expected = make_burst(1)
        request = InferenceRequest(inputs=inputs[0])

        async def storm():
            calls = [pythia_service.submit_async(request)
                     for _ in range(1000)]
            return await asyncio.gather(*calls)

        responses = asyncio.run(storm())
        assert len(responses) == 1000
        for key, value in expected[0].items():
            assert all(r.outputs[key].tobytes() == value.tobytes()
                       for r in responses)


class TestCancellation:
    def busy_service(self, scheduling):
        # The worker is parked inside a latency-faulted blocker request,
        # so whatever is submitted next sits queued and can be withdrawn
        # deterministically.
        service, _ = scheduling.blocked(build_smoke("Pythia"), ServeOptions(
            max_batch_size=64, compile=CompileOptions(faults=NO_FAULTS)))
        return service

    def test_sync_cancel_raises_request_cancelled(self, scheduling):
        inputs, _ = make_burst(1)
        service = self.busy_service(scheduling)
        future = service.submit(InferenceRequest(inputs=inputs[0]))
        assert future.cancel()
        assert future.cancelled()
        assert not future.cancel()  # second call: already resolved
        with pytest.raises(RequestCancelled):
            future.result(timeout=10)
        assert service.report().cancelled == 1

    def test_cancelled_awaitable_withdraws_queued_request(self, scheduling):
        inputs, _ = make_burst(2)
        service = self.busy_service(scheduling)

        async def run():
            keep = service.submit_async(InferenceRequest(inputs=inputs[0]))
            drop = service.submit_async(InferenceRequest(inputs=inputs[1]))
            drop.cancel()
            response = await keep
            with pytest.raises(asyncio.CancelledError):
                await drop
            return response

        response = asyncio.run(run())
        assert response.outputs
        assert response.batch_size == 1  # the withdrawn one never ran
        assert service.report().cancelled == 1

    def test_cancel_after_resolution_is_a_noop(self, pythia_service):
        inputs, _ = make_burst(1)
        future = pythia_service.submit(InferenceRequest(inputs=inputs[0]))
        future.result(timeout=60)
        assert not future.cancel()
        assert not future.cancelled()
        assert pythia_service.report().cancelled == 0


class TestDeadlines:
    def test_deadline_expiry_while_queued(self, scheduling):
        inputs, _ = make_burst(1)
        service, _ = scheduling.blocked(
            build_smoke("Pythia"), ServeOptions(
                max_batch_size=64, compile=CompileOptions(faults=NO_FAULTS)),
            hold_ms=50.0)

        async def run():
            call = service.submit_async(InferenceRequest(
                inputs=inputs[0], deadline_ms=1.0))
            with pytest.raises(DeadlineExceeded):
                await call

        asyncio.run(run())
        assert service.report().expired == 1
