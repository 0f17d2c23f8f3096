"""``RunStats.pool`` is a static fact of the plan that served a request.

The slot plan's accounting is computed once per program
(``ExecutionProgram.report``); no request replays it against a run-time
pool.  The contract, on the in-process runner and every route -
solo, stacked, symbolic at an off-base extent - plus one parallel burst:

* ``RunStats.pool`` *is* the serving program's (or variant's) report, and
  its fields are the plan's steady-state values;
* the first request of a fresh session already reports
  ``allocations == 0`` - there is nothing to warm;
* a request that raises mid-graph leaves nothing behind: the next good
  request's outputs are byte-identical to a fresh session's.
"""

import numpy as np
import pytest

import repro
from repro.api import CompileOptions
from repro.models import build_smoke
from repro.runtime import FaultPlan, parallel_supported
from repro.runtime.batching import bucket, rebatch, symbolize
from repro.runtime.session import _admit, _compile_session

ROUTES = ("solo", "stacked", "symbolic")
STACKED = 3
OFF_BASE_EXTENT = 3
NO_FAULTS = FaultPlan()  # explicit empty plan: overrides ambient chaos


def fresh_session():
    graph = build_smoke("Pythia", batch=1)
    return _compile_session(
        graph, "Ours", faults=NO_FAULTS, max_extent=8,
        signature={name: (None,) + tuple(graph.shape(name))[1:]
                   for name in graph.inputs})


def route(session, kind):
    """``(admitted requests, the program that serves them)``."""
    program = session.program
    if kind == "solo":
        seeds, extent, serving = [0], 1, program
    elif kind == "stacked":
        seeds, extent = range(STACKED), 1
        serving = rebatch(program, bucket(STACKED))
    else:
        seeds, extent = [0], OFF_BASE_EXTENT
        serving = symbolize(program,
                            session.symbolic.factor(OFF_BASE_EXTENT))
    requests = [_admit(session, {
        name: np.resize(value, (extent,) + value.shape[1:])
        for name, value in session.make_inputs(seed=seed).items()})
        for seed in seeds]
    return requests, serving


def assert_plan_report(report, program):
    plan = program.slot_plan
    assert report is program.report
    assert (report.allocations, report.reuses, report.peak_bytes,
            report.total_allocated_bytes, report.final_bytes,
            report.peak_copy_bytes) == (
        0, plan.allocs_per_run, plan.peak_bytes,
        plan.total_allocated_bytes, 0, 0)
    assert [(e.step, e.live_bytes) for e in report.timeline] == \
        list(enumerate(plan.timeline_live))


def serve(session, requests):
    return session._serve([dict(values) for values in requests])


@pytest.mark.parametrize("kind", ROUTES)
class TestStaticPoolReport:
    def test_first_request_reports_the_serving_plan(self, kind):
        session = fresh_session()
        requests, serving = route(session, kind)
        served = serve(session, requests)
        assert [stats.batched for _, stats in served] == \
            [kind == "stacked"] * len(requests)
        for _, stats in served:
            assert stats.backend == "numpy"
            assert_plan_report(stats.pool, serving)

    def test_failed_request_leaves_nothing_behind(self, kind):
        session = fresh_session()
        requests, serving = route(session, kind)
        program = session.program
        # A wrong-shaped packed weight past the midpoint: admission never
        # sees it, the dense step reading it raises mid-graph.
        packs = {p for p, _, _ in program.packs}
        packed = next(
            name for step in program.steps[program.num_steps // 2:]
            for name in step.arg_names if name in packs)
        poison = np.zeros((3, 3), np.float32)
        with pytest.raises(ValueError):
            session.execute_values(
                [dict(values, **{packed: poison}) for values in requests])
        assert session.stats.requests == 0
        served = serve(session, requests)
        reference = serve(fresh_session(), requests)
        for (got, stats), (want, _) in zip(served, reference):
            assert_plan_report(stats.pool, serving)
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.skipif(not parallel_supported(),
                    reason="fork start method unavailable")
def test_parallel_burst_reports_the_dispatched_plan():
    graph = build_smoke("Pythia", batch=1)
    model = repro.compile(graph, CompileOptions(
        backend="parallel", workers=1, faults=NO_FAULTS))
    try:
        requests = [model.make_request(seed=s) for s in range(4)]
        responses = model.run_batch(requests)
        assert model.session._parallel_pool is not None  # worker-served
    finally:
        model.close()
    reference = repro.compile(graph, CompileOptions(faults=NO_FAULTS))
    for request, response in zip(requests, responses):
        assert response.stats.backend == "parallel"
        assert_plan_report(response.stats.pool, model.program)
        want = reference.run(request).outputs
        for name in want:
            assert response.outputs[name].tobytes() == \
                want[name].tobytes(), name
