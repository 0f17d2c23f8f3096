"""Tests for tensor-level dynamic batching: stacked micro-batches.

The contract: a micro-batch of batch-compatible requests against a
*stackable* program executes as ONE kernel pass per step (the cached
stacked variant of its power-of-two bucket, run at the batch's exact
size), with per-request outputs byte-identical to solo runs and to the
sequential ``run_many`` path, non-bucket batch sizes included.
Non-stackable
programs must fall back to the sequential path explicitly, never
produce wrong stacked results.
"""

import numpy as np
import pytest

import repro
from repro import FaultPlan, FaultRule
from repro.api import (
    CompileOptions, InferenceRequest, ServeOptions, Service,
)
from repro.bench.harness import clear_cell_cache
from repro.ir import GraphBuilder
from repro.ir.symbolic import SYM
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import get_backend, lower, make_inputs, run_node
from repro.runtime import parallel_backend as pb
from repro.runtime.batching import (
    NotStackable, analyze, bucket, mark_unstackable, rebatch, symbolize,
)
from repro.runtime.session import _admit, _compile_session

from front_door import serve_batch, serve_one

STACKED_MODELS = ("Pythia", "SD-TextEncoder")
"""Dispatch-bound models the serving benchmark stacks (both stackable)."""


def _smoke(name):
    return build(name, **SMOKE_CONFIGS[name])


def _interpret(graph, inputs):
    """The independent reference: run_node over the topo order."""
    values = dict(inputs)
    for node in graph.topo_order():
        run_node(graph, node, values)
    return {name: values[name] for name in graph.outputs}


def _assert_same_outputs(got, want, context=""):
    assert set(got) == set(want), context
    for key in want:
        assert np.array_equal(got[key], want[key]), f"{context}: {key}"


@pytest.fixture
def private_program():
    """Programs are shared by graph content, so a test asserting on (or
    demoting) a program's ``backend_cache`` compiles against an empty
    compile cache and leaves none of its state behind."""
    clear_cell_cache()
    yield
    clear_cell_cache()


def _mini_stackable():
    """Elementwise/dense/norm chain: stackable by the documented rules."""
    b = GraphBuilder("mini-stackable")
    x = b.input("x", (1, 8, 16))
    y = b.layernorm(x)
    y = b.dense(y, 16)
    y = b.relu(y)
    b.output(b.add(y, x))
    return b.finish()


class TestBucket:
    def test_power_of_two_buckets(self):
        assert [bucket(n) for n in (1, 2, 3, 4, 5, 8, 9, 16, 17)] == \
            [1, 2, 4, 4, 8, 8, 16, 16, 32]

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            bucket(0)


# ---------------------------------------------------------------------------
# Parity across the model zoo (satellite: all SMOKE_CONFIGS)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
class TestZooParity:
    def test_batched_matches_sequential_and_solo(self, name):
        model = repro.compile(_smoke(name), CompileOptions())
        session = model.session
        program = session.program
        stackable = analyze(program).stackable
        # three requests: a non-power-of-two batch runs at its exact size
        inputs = [session.make_inputs(seed=s) for s in range(3)]
        solo = [serve_one(session, dict(i)) for i in inputs]
        outs = serve_batch(session, [dict(i) for i in inputs])
        stats = list(session.stats.runs)[-3:]
        assert [s.batched for s in stats] == [stackable] * 3
        for got, want in zip(outs, solo):
            _assert_same_outputs(got, want, name)
        if not stackable:
            with pytest.raises(NotStackable):
                rebatch(program, 2)
            return
        # the stacked pass must also match the sequential run_many path
        # (the explicit fallback both paths share)
        seq = get_backend("numpy").run_many(
            program, [_admit(session, dict(i)) for i in inputs])
        for got, (want, _, _) in zip(outs, seq):
            _assert_same_outputs(got, want, f"{name}/seq")
        # shared attribution: the pass reports its variant's static plan
        assert stats[0].pool is stats[1].pool is stats[2].pool \
            is rebatch(program, bucket(3)).report

    def test_batched_matches_interpretation(self, name):
        """The independent reference: each row of a batch of three equals
        ``run_node`` interpretation of the compiled graph on that row."""
        model = repro.compile(_smoke(name), CompileOptions())
        session = model.session
        params = make_inputs(session.graph)
        inputs = [session.make_inputs(seed=s) for s in range(3)]
        outs = serve_batch(session, [dict(i) for i in inputs])
        for seed, (got, row) in enumerate(zip(outs, inputs)):
            _assert_same_outputs(
                got, _interpret(session.graph, {**params, **row}),
                f"{name}/row {seed}")


# ---------------------------------------------------------------------------
# Exact-size stacked passes and the variant cache
# ---------------------------------------------------------------------------


def _row_spy(monkeypatch, session):
    """Record, per ``run_many`` call on the in-process runner, the
    serving program and the leading extent of each values dict it ran."""
    calls = []
    backend = get_backend("numpy")
    original = backend.run_many
    lead = session.program.input_names[0]

    def spy(program, values_list):
        calls.append((program, [v[lead].shape[0] for v in values_list]))
        return original(program, values_list)

    monkeypatch.setattr(backend, "run_many", spy)
    return calls


@pytest.mark.usefixtures("private_program")
@pytest.mark.parametrize("name", STACKED_MODELS)
class TestExactSizeBatches:
    def test_non_bucket_batches_execute_exactly_their_rows(
            self, name, monkeypatch):
        model = repro.compile(_smoke(name), CompileOptions(
            faults=FaultPlan()))
        session = model.session
        program = session.program
        B = analyze(program).batch_extent
        calls = _row_spy(monkeypatch, session)
        for n in (3, 5):  # buckets 4 and 8: nothing is padded
            inputs = [session.make_inputs(seed=100 + s) for s in range(n)]
            solo = [serve_one(session, dict(i)) for i in inputs]
            calls.clear()
            outs = serve_batch(session, [dict(i) for i in inputs])
            assert session.stats.runs[-1].batched
            # one pass of the bucket's stacked variant over n*B rows
            assert calls == [(rebatch(program, bucket(n)), [n * B])]
            for got, want in zip(outs, solo):
                _assert_same_outputs(got, want, f"{name}/n={n}")
        variants = program.backend_cache["batching.variants"]
        assert sorted(variants) == [(4, True), (8, True)]
        assert variants[4, True].symbolic_extent == 4 * B


class TestOneKernelPass:
    def test_stacked_batch_is_one_backend_invocation(self, monkeypatch):
        session = _compile_session(_mini_stackable(), "Ours",
                                   faults=FaultPlan())
        calls = _row_spy(monkeypatch, session)
        serve_batch(session, [session.make_inputs(seed=s) for s in range(3)])
        # one invocation, one stacked values dict of 3 rows through the
        # bucket-4 variant: each program step ran its kernel exactly once
        assert calls == [(rebatch(session.program, 4), [3])]

    def test_variant_is_extent_polymorphic_with_plans_at_the_bound(self):
        program = lower(_mini_stackable())
        variant = rebatch(program, 4)
        assert variant.symbolic_extent == 4
        assert [shape for _, shape, _ in variant.input_signature] == \
            [(SYM, 8, 16)]
        assert variant.num_steps == program.num_steps
        for base, scaled in zip(program.steps, variant.steps):
            assert scaled.out_shapes == tuple(
                (SYM,) + s[1:] for s in base.out_shapes)
        plan = variant.slot_plan
        assert plan.peak_bytes == 4 * program.slot_plan.peak_bytes
        assert plan.allocs_per_run == program.slot_plan.allocs_per_run

    def test_one_cache_entry_per_bucket_and_flavour(self):
        program = lower(_mini_stackable())
        stacked, exact = rebatch(program, 4), symbolize(program, 4)
        assert stacked is not exact
        assert rebatch(program, 4) is stacked
        assert symbolize(program, 4) is exact
        assert program.backend_cache["batching.variants"] == {
            (4, True): stacked, (4, False): exact}

    def test_codegen_emits_bucket_variant_source(self):
        from repro.runtime.codegen_backend import program_source

        variant = rebatch(lower(_mini_stackable()), 4)
        source = program_source(variant)
        assert "Symbolic bucket variant (extent bound 4)" in source
        assert "def run_plain(values):" in source


# ---------------------------------------------------------------------------
# Non-stackable programs fall back explicitly (satellite: batch_key rules)
# ---------------------------------------------------------------------------


def _non_stackable_graphs():
    b = GraphBuilder("reduce-over-batch")
    x = b.input("x", (1, 8))
    b.output(b.reduce(b.dense(x, 8), "reduce_sum", axes=0))
    yield "reduce over axis 0", b.finish()

    b = GraphBuilder("batch-merging-reshape")
    x = b.input("x", (1, 8))
    b.output(b.relu(b.reshape(x, (8,))))
    yield "reshape merges batch", b.finish()

    b = GraphBuilder("transpose-moves-batch")
    x = b.input("x", (1, 8))
    b.output(b.relu(b.transpose(x, (1, 0))))
    yield "transpose moves batch", b.finish()

    b = GraphBuilder("softmax-over-batch")
    x = b.input("x", (1, 8))
    b.output(b.softmax(x, axis=0))
    yield "softmax over batch", b.finish()


class TestNonStackableFallback:
    @pytest.mark.parametrize(
        "label,graph", list(_non_stackable_graphs()),
        ids=lambda v: v if isinstance(v, str) else "")
    def test_refuted_programs_run_sequentially_and_correctly(
            self, label, graph):
        program = lower(graph)
        verdict = analyze(program)
        assert not verdict.stackable, label
        assert verdict.reason, label
        with pytest.raises(NotStackable):
            rebatch(program, 2)
        session = _compile_session(graph, "Ours")
        inputs = [session.make_inputs(seed=s) for s in range(3)]
        solo = [serve_one(session, dict(i)) for i in inputs]
        outs = serve_batch(session, [dict(i) for i in inputs])
        assert not session.stats.runs[-1].batched
        for got, want in zip(outs, solo):
            _assert_same_outputs(got, want, label)

    def test_stackable_analysis_names_batched_values(self):
        verdict = analyze(lower(_mini_stackable()))
        assert verdict.stackable
        assert verdict.batch_extent == 1
        assert "x" in verdict.batched

    @pytest.mark.usefixtures("private_program")
    def test_mark_unstackable_demotes_for_good(self):
        session = _compile_session(_mini_stackable(), "Ours")
        program = session.program
        assert analyze(program).stackable
        mark_unstackable(program, "test demotion")
        assert not analyze(program).stackable
        assert analyze(program).reason == "test demotion"
        outs = serve_batch(
            session, [session.make_inputs(seed=s) for s in range(2)])
        assert len(outs) == 2
        assert not session.stats.runs[-1].batched


# ---------------------------------------------------------------------------
# Stats attribution (batched=True, the variant's shared PoolReport)
# ---------------------------------------------------------------------------


class TestStackedStats:
    def test_run_stats_flag_wall_share_and_shared_pool(self):
        model = repro.compile(_smoke("Pythia"), CompileOptions())
        requests = [InferenceRequest(inputs=model.session.make_inputs(seed=s),
                                     request_id=s) for s in range(3)]
        responses = model.run_batch(requests)
        reports = {id(r.stats.pool) for r in responses}
        assert len(reports) == 1  # one PoolReport for the stacked pass
        for response in responses:
            assert response.batch_size == 3
            assert response.stats.batched
            assert response.stats.wall_s > 0
            assert response.stats.backend == "numpy"

    def test_solo_requests_stay_unbatched(self):
        session = _compile_session(_mini_stackable(), "Ours")
        serve_one(session, session.make_inputs(seed=0))
        assert not session.stats.runs[-1].batched


# ---------------------------------------------------------------------------
# Reliability semantics on the stacked path
# ---------------------------------------------------------------------------


class TestStackedReliability:
    def test_faulting_batchmate_is_isolated_from_stacked_batch(self):
        plan = FaultPlan(rules=(FaultRule(kind="kernel", request_id="bad"),))
        compiled = repro.compile(_smoke("Pythia"), CompileOptions())
        reference = {}
        service = Service(
            compiled, ServeOptions(max_batch_size=4, faults=plan),
            _start=False)
        futures = {}
        for rid in ("ok-1", "bad", "ok-2"):
            inputs = compiled.session.make_inputs(seed=hash(rid) % 100)
            reference[rid] = compiled.run(dict(inputs)).outputs
            futures[rid] = service.submit(
                InferenceRequest(inputs=inputs, request_id=rid))
        service._execute(service._next_batch())
        for rid in ("ok-1", "ok-2"):
            response = futures[rid].result()
            _assert_same_outputs(response.outputs, reference[rid], rid)
            assert not response.stats.batched  # isolation re-runs are solo
        assert futures["bad"].exception() is not None
        report = service.report()
        assert report.isolated == 3
        assert report.failed == 1
        service.close()

    def test_service_counts_stacked_batches(self, scheduling):
        service = scheduling.parked(_smoke("Pythia"), max_batch_size=8)
        model = service.compiled
        futures = [service.submit(model.make_request(seed=s))
                   for s in range(16)]
        scheduling.release(service)
        responses = [f.result(timeout=60) for f in futures]
        report = service.report()
        assert report.requests == 16
        assert report.batches == report.stacked_batches == 2
        assert all(r.stats.batched for r in responses)

    def test_stacked_batch_degrades_as_a_unit(self, monkeypatch):
        # No respawn budget: the lost shard is rescued in-process.
        monkeypatch.setattr(pb, "_MAX_SHARD_RETRIES", 0)
        plan = FaultPlan(rules=(FaultRule(kind="worker_crash"),))
        model = repro.compile(_smoke("Pythia"), CompileOptions(
            backend="parallel", workers=1, faults=plan))
        session = model.session
        requests = [InferenceRequest(inputs=session.make_inputs(seed=s))
                    for s in range(3)]
        responses = model.run_batch(requests)
        model.close()
        assert [r.stats.backend for r in responses] == ["parallel"] * 3
        if pb.parallel_supported():
            assert session.stats.fallbacks == 1
        # the in-process rescue kept the stacked routing
        assert all(r.stats.batched for r in responses)
        reference = repro.compile(_smoke("Pythia"), CompileOptions())
        for seed, response in enumerate(responses):
            want = reference.run(reference.make_request(seed=seed)).outputs
            _assert_same_outputs(response.outputs, want, f"seed={seed}")
