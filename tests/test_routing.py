"""Route choice by declared capability, driven with fake backends.

``Session._route`` picks how one invocation executes from what the
backend *declares* (``shards_requests``) - never from probing it - and
reports ``(rows, batched)``.  An offer a sharding backend declines runs
on the one in-process runner.
"""

import numpy as np
import pytest

from repro.models import build_smoke
from repro.runtime import (
    ExecutionBackend, FaultPlan, get_backend, register_backend,
)
from repro.runtime.program import BACKEND_REGISTRY, _BACKEND_INSTANCES
from repro.runtime.session import _admit, _compile_session


class Spy(ExecutionBackend):
    """Records the route it was given, then lets the reference backend
    execute it."""

    name = "route-spy"

    def __init__(self):
        self.calls = []

    def run_many(self, program, values_list):
        self.calls.append(("run_many", len(values_list)))
        return get_backend("numpy").run_many(program, values_list)

    def run_stacked(self, program, variant, values_list):
        self.calls.append(("run_stacked", len(values_list)))
        return get_backend("numpy").run_stacked(
            program, variant, values_list)

    def try_sharded(self, session, values_list):
        raise AssertionError("a non-sharding backend was asked to shard")


class Sharder(ExecutionBackend):
    """Declares sharding; answers offers with ``reply``."""

    name = "route-sharder"
    shards_requests = True

    def __init__(self, reply=None):
        self.reply = reply
        self.offers = []

    def try_sharded(self, session, values_list):
        self.offers.append(len(values_list))
        return self.reply

    def run_many(self, program, values_list):
        raise AssertionError("the sharding backend ran in-process itself")

    run_stacked = run_many


@pytest.fixture
def spy():
    register_backend(Spy)
    yield get_backend(Spy.name)
    BACKEND_REGISTRY.pop(Spy.name)
    _BACKEND_INSTANCES.pop(Spy.name)


def session_of(**kwargs):
    return _compile_session(build_smoke("Pythia", batch=1), "Ours",
                            faults=FaultPlan(), **kwargs)


def admitted(session, extents):
    base = session.make_inputs(seed=0)
    return [_admit(session, {
        name: np.resize(value, (extent,) + value.shape[1:])
        for name, value in base.items()}) for extent in extents]


def test_a_non_sharding_backend_is_never_asked_to_shard(spy):
    session = session_of()
    assert not spy.shards_requests
    rows, batched = session._route(spy, admitted(session, [1]))
    assert len(rows) == 1 and not batched
    rows, batched = session._route(spy, admitted(session, [1, 1, 1]))
    assert len(rows) == 3 and batched
    assert spy.calls == [("run_many", 1), ("run_stacked", 3)]


def test_a_declined_offer_runs_on_the_in_process_runner(
        spy, monkeypatch):
    session = session_of()
    sharder = Sharder(reply=None)
    runner = get_backend("numpy")
    run_stacked = runner.run_stacked
    calls = []

    def recorded(program, variant, values_list):
        calls.append(len(values_list))
        return run_stacked(program, variant, values_list)

    monkeypatch.setattr(runner, "run_stacked", recorded)
    rows, batched = session._route(sharder, admitted(session, [1, 1]))
    assert sharder.offers == [2]
    assert len(rows) == 2 and batched
    assert calls == [2] and spy.calls == []


def test_an_accepted_offer_is_returned_as_it_is(spy):
    session = session_of()
    reply = (["row-0", "row-1"], True)
    sharder = Sharder(reply=reply)
    assert session._route(sharder, admitted(session, [1, 1])) is reply
    assert spy.calls == []


@pytest.mark.parametrize("extents,batched,calls", [
    ([1, 1], True, [("run_stacked", 2)]),
    ([1, 3], False, [("run_many", 1), ("run_many", 1)]),
    ([3, 3], False, [("run_many", 2)]),
    ([1, 3, 1], True, [("run_stacked", 2), ("run_many", 1)]),
    ([5, 1, 6], False, [("run_many", 1), ("run_many", 1), ("run_many", 1)]),
])
def test_mixed_extent_groups_report_batched(spy, extents, batched, calls):
    graph = build_smoke("Pythia", batch=1)
    session = session_of(max_extent=8, signature={
        name: (None,) + tuple(graph.shape(name))[1:]
        for name in graph.inputs})
    rows, was_batched = session._route(spy, admitted(session, extents))
    assert was_batched is batched
    assert spy.calls == calls
    # rows scatter back in request order, each at its own extent
    for extent, (outputs, _report, _wall) in zip(extents, rows):
        assert {value.shape[0] for value in outputs.values()} == {extent}


def test_execute_values_names_the_backend_that_served(spy):
    session = session_of()
    sharder = Sharder(reply=None)
    rows, name, batched = session.execute_values(
        admitted(session, [1, 1]), backend=sharder)
    assert (len(rows), name, batched) == (2, Sharder.name, True)
