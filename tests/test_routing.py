"""Route choice on the one in-process runner.

A ``"parallel"`` session offers each invocation to its worker pool
(``WorkerPool.run``); what the pool declines, every invocation of an
in-process session, and any invocation passed an explicit ``backend``
run on the shared runner (``get_backend("numpy")``), whose
``run_many`` / ``run_stacked`` calls show how the requests were
grouped.  ``Session._route`` reports ``(rows, batched)``.
"""

import numpy as np
import pytest

from repro.models import build_smoke
from repro.runtime import (
    FaultPlan, WorkerPool, get_backend, parallel_supported,
)
from repro.runtime.session import _admit, _compile_session

needs_fork = pytest.mark.skipif(
    not parallel_supported(), reason="fork start method unavailable")


@pytest.fixture
def runner_calls(monkeypatch):
    """``(method, request count)`` per call the route makes on the
    shared runner, which still executes each call (``run_stacked``'s own
    ``run_many`` pass is not a route call)."""
    runner = get_backend("numpy")
    calls, inside = [], []
    for method in ("run_many", "run_stacked"):
        def recorded(*args, _method=method, _run=getattr(runner, method)):
            if not inside:
                calls.append((_method, len(args[-1])))
            inside.append(_method)
            try:
                return _run(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(runner, method, recorded)
    return calls


def untouchable(*_args, **_kwargs):
    raise AssertionError("the worker pool was touched")


def session_of(**kwargs):
    return _compile_session(build_smoke("Pythia", batch=1), "Ours",
                            faults=FaultPlan(), **kwargs)


def pooled_session(runner_calls):
    """A ``"parallel"`` session whose pool is up, its warm-up unrecorded."""
    session = session_of(backend="parallel", workers=1)
    session.ensure_parallel_pool()
    runner_calls.clear()
    return session


def admitted(session, extents):
    base = session.make_inputs(seed=0)
    return [_admit(session, {
        name: np.resize(value, (extent,) + value.shape[1:])
        for name, value in base.items()}) for extent in extents]


def test_an_in_process_session_never_touches_the_pool(
        runner_calls, monkeypatch):
    monkeypatch.setattr(WorkerPool, "__init__", untouchable)
    monkeypatch.setattr(WorkerPool, "run", untouchable)
    session = session_of()
    rows, name, batched = session.execute_values(admitted(session, [1]))
    assert (len(rows), name, batched) == (1, "numpy", False)
    rows, name, batched = session.execute_values(
        admitted(session, [1, 1, 1]))
    assert (len(rows), name, batched) == (3, "numpy", True)
    assert runner_calls == [("run_many", 1), ("run_stacked", 3)]


@needs_fork
def test_a_declined_offer_runs_on_the_in_process_runner(
        runner_calls, monkeypatch):
    session = pooled_session(runner_calls)
    offers = []

    def decline(_pool, values_list):
        offers.append(len(values_list))
        return None

    monkeypatch.setattr(WorkerPool, "run", decline)
    try:
        rows, name, batched = session.execute_values(
            admitted(session, [1, 1]))
    finally:
        session.close()
    assert offers == [2]
    assert (len(rows), name, batched) == (2, "parallel", True)
    assert runner_calls == [("run_stacked", 2)]


@needs_fork
def test_an_accepted_offer_is_returned_as_it_is(runner_calls, monkeypatch):
    session = pooled_session(runner_calls)
    reply = (["row-0", "row-1"], True)
    monkeypatch.setattr(WorkerPool, "run", lambda _pool, _values: reply)
    try:
        rows, name, batched = session.execute_values(
            admitted(session, [1, 1]))
    finally:
        session.close()
    assert rows is reply[0]
    assert (name, batched) == ("parallel", True)
    assert runner_calls == []


@needs_fork
def test_a_backend_override_never_touches_the_pool(
        runner_calls, monkeypatch):
    monkeypatch.setattr(WorkerPool, "__init__", untouchable)
    monkeypatch.setattr(WorkerPool, "run", untouchable)
    session = session_of(backend="parallel", workers=1)
    rows, name, batched = session.execute_values(
        admitted(session, [1, 1]), backend=get_backend("numpy"))
    assert (len(rows), name, batched) == (2, "numpy", True)
    assert runner_calls == [("run_stacked", 2)]
    assert session._parallel_pool is None


@pytest.mark.parametrize("extents,batched,calls", [
    ([1, 1], True, [("run_stacked", 2)]),
    ([1, 3], False, [("run_many", 1), ("run_many", 1)]),
    ([3, 3], False, [("run_many", 2)]),
    ([1, 3, 1], True, [("run_stacked", 2), ("run_many", 1)]),
    ([5, 1, 6], False, [("run_many", 1), ("run_many", 1), ("run_many", 1)]),
])
def test_mixed_extent_groups_report_batched(
        runner_calls, extents, batched, calls):
    graph = build_smoke("Pythia", batch=1)
    session = session_of(max_extent=8, signature={
        name: (None,) + tuple(graph.shape(name))[1:]
        for name in graph.inputs})
    rows, was_batched = session._route(admitted(session, extents))
    assert was_batched is batched
    assert runner_calls == calls
    # rows scatter back in request order, each at its own extent
    for extent, (outputs, _report, _wall) in zip(extents, rows):
        assert {value.shape[0] for value in outputs.values()} == {extent}
