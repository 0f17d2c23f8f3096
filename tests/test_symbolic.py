"""Symbolic shapes: one compiled program serves any leading extent.

The core contract under test: a model compiled once with a symbolic
leading dim (``CompileOptions(signature=..., max_extent=N)``) serves
every extent in ``1..N`` **byte-identical** to a fresh concrete compile
at that extent - requests execute at their exact runtime extent through
per-bucket variants, never padded, never stacked.  The property is
exercised zoo-wide over randomized extents, under chaos (process-pool
degradation, worker crashes), and guarded by compile-count and
shm-layout regressions.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.api import (
    AdmissionError, CompileOptions, ExecutionError, InvalidOptions,
)
from repro.ir.symbolic import (
    OPEN_STOP, SYM, SymDim, concretize, is_placeholder, is_symbolic_shape,
)
from repro.models import build_smoke
from repro.models.registry import SMOKE_CONFIGS
from repro.runtime import (
    FaultPlan, FaultRule, active_segments, get_backend,
    make_inputs, run_node,
)
from repro.runtime.batching import NotStackable, analyze, bucket, symbolize
from repro.runtime.codegen_backend import emission_count
from repro.runtime import parallel_backend as pb
from repro.runtime.parallel_backend import parallel_supported
from repro.runtime.program import ExecutionProgram
from repro.runtime.session import _admit, _compile_session
from repro.runtime.shm import ShardLayout

NO_FAULTS = FaultPlan()  # explicit empty plan: overrides ambient chaos

MAX_EXTENT = 8


def symbolic_signature(graph):
    """Every graph input with its leading dim replaced by a placeholder."""
    return {name: (None,) + tuple(graph.tensors[name].shape)[1:]
            for name in graph.inputs}


def stackability(name):
    session = _compile_session(build_smoke(name, batch=1), "Ours",
                               faults=NO_FAULTS)
    return analyze(session.program)


STACKABLE = [n for n in SMOKE_CONFIGS if stackability(n).stackable]
UNSTACKABLE = [n for n in SMOKE_CONFIGS if not stackability(n).stackable]


def sweep_extents(name, per_bucket=3):
    """Seeded random extents covering every bucket of ``1..MAX_EXTENT``.

    Deterministic per model (no salted ``hash``): the property suite
    re-runs the same shapes every time, but different models probe
    different extents inside each bucket.
    """
    rng = np.random.default_rng(
        sum(ord(c) for c in name) * 1_000_003 + 17)
    buckets = {}
    for extent in range(1, MAX_EXTENT + 1):
        buckets.setdefault(bucket(extent), []).append(extent)
    chosen = set()
    for members in buckets.values():
        take = min(per_bucket, len(members))
        chosen.update(int(e) for e in rng.choice(
            members, size=take, replace=False))
    return sorted(chosen)


def concrete_reference(session, name, extent, seed=None):
    """(request inputs, reference outputs) at ``extent``: the inputs of a
    fresh concrete compile at that extent, and its outputs on the
    symbolic ``session``'s own parameters (the two graphs materialize
    different parameters from their seeds)."""
    concrete = _compile_session(build_smoke(name, batch=extent), "Ours",
                                faults=NO_FAULTS)
    inputs = concrete.make_inputs(seed=extent if seed is None else seed)
    outputs = concrete.execute_values(
        [{**session._params, **inputs}])[0][0][0]
    return inputs, outputs


def assert_outputs_identical(got, want, context=""):
    assert set(got) == set(want), context
    for key in want:
        assert got[key].shape == want[key].shape, f"{context} {key}"
        assert got[key].tobytes() == want[key].tobytes(), f"{context} {key}"


# ---------------------------------------------------------------------------
# the symbolic dim itself
# ---------------------------------------------------------------------------


class TestSymDim:
    def test_singleton_and_repr(self):
        assert SymDim() is SYM
        assert repr(SYM) == "?"
        assert str((SYM, 8, 32)) == "(?, 8, 32)"

    def test_pickle_preserves_identity(self):
        import pickle
        assert pickle.loads(pickle.dumps(SYM)) is SYM

    def test_placeholder_and_shape_helpers(self):
        assert is_placeholder(None) and is_placeholder(SYM)
        assert not is_placeholder(4)
        assert is_symbolic_shape((SYM, 8))
        assert not is_symbolic_shape((4, 8)) and not is_symbolic_shape(())
        assert concretize((SYM, 8, 32), 5) == (5, 8, 32)
        assert concretize((4, 8), 5) == (4, 8)

    def test_open_stop_clamps_like_basic_slicing(self):
        x = np.arange(24).reshape(6, 4)
        assert np.array_equal(x[0:OPEN_STOP:1], x)


# ---------------------------------------------------------------------------
# satellite 1: zoo-wide parity properties
# ---------------------------------------------------------------------------


class TestZooParity:
    @pytest.mark.parametrize("name", STACKABLE)
    def test_symbolic_serves_randomized_extents_byte_identical(self, name):
        graph = build_smoke(name, batch=1)
        session = _compile_session(
            build_smoke(name, batch=1), "Ours",
            faults=NO_FAULTS, signature=symbolic_signature(graph),
            max_extent=MAX_EXTENT)
        for extent in sweep_extents(name):
            values, want = concrete_reference(session, name, extent)
            admitted = _admit(session, values)
            results, _backend, _batched = session.execute_values([admitted])
            assert_outputs_identical(
                results[0][0], want, f"{name} S={extent}")

    @pytest.mark.parametrize("name", STACKABLE)
    def test_symbolic_matches_interpretation_at_every_bucket(self, name):
        """The independent reference: one extent per bucket, served
        symbolically, equals ``run_node`` interpretation of a concrete
        compile's graph at that extent on the same parameters."""
        graph = build_smoke(name, batch=1)
        session = _compile_session(
            build_smoke(name, batch=1), "Ours",
            faults=NO_FAULTS, signature=symbolic_signature(graph),
            max_extent=MAX_EXTENT)
        params = {key: value
                  for key, value in make_inputs(session.graph).items()
                  if key not in session.graph.inputs}
        for extent in sweep_extents(name, per_bucket=1):
            concrete = _compile_session(build_smoke(name, batch=extent),
                                        "Ours", faults=NO_FAULTS)
            inputs = concrete.make_inputs(seed=extent)
            results, _backend, _batched = session.execute_values(
                [_admit(session, dict(inputs))])
            values = {**params, **inputs}
            for node in concrete.graph.topo_order():
                run_node(concrete.graph, node, values)
            want = {key: values[key] for key in concrete.graph.outputs}
            assert_outputs_identical(
                results[0][0], want, f"{name} S={extent}")

    @pytest.mark.parametrize("name", UNSTACKABLE)
    def test_non_symbolizable_models_refuse_with_recorded_reason(self, name):
        graph = build_smoke(name, batch=1)
        reason = stackability(name).reason
        assert reason  # the analysis records *why*
        with pytest.raises(InvalidOptions, match="symbolic leading extent"):
            _compile_session(
                build_smoke(name, batch=1), "Ours", faults=NO_FAULTS,
                signature=symbolic_signature(graph), max_extent=MAX_EXTENT)
        try:
            _compile_session(
                build_smoke(name, batch=1), "Ours", faults=NO_FAULTS,
                signature=symbolic_signature(graph), max_extent=MAX_EXTENT)
        except InvalidOptions as err:
            assert reason in str(err)

    def test_mixed_extent_batch_scatters_results_in_order(self):
        graph = build_smoke("Pythia", batch=1)
        session = _compile_session(
            build_smoke("Pythia", batch=1), "Ours", faults=NO_FAULTS,
            signature=symbolic_signature(graph), max_extent=MAX_EXTENT)
        extents = [3, 1, 8, 5, 1, 2]
        batch, expected = [], []
        for extent in extents:
            values, want = concrete_reference(session, "Pythia", extent)
            batch.append(_admit(session, values))
            expected.append(want)
        results, _backend, _batched = session.execute_values(batch)
        for extent, (got, _report, _wall), want in zip(
                extents, results, expected):
            assert_outputs_identical(got, want, f"mixed S={extent}")

    def test_front_door_one_compile_three_sequence_lengths(self):
        graph = build_smoke("Pythia", batch=1)
        model = repro.compile(graph, CompileOptions(
            faults=NO_FAULTS, signature=symbolic_signature(graph),
            max_extent=MAX_EXTENT))
        for extent in (1, 3, 8):
            inputs, want = concrete_reference(
                model.session, "Pythia", extent)
            response = model.run(repro.InferenceRequest(inputs=inputs))
            assert_outputs_identical(response.outputs, want, f"S={extent}")

    def test_symbolize_factor_one_serves_below_base_extents(self):
        base = _compile_session(build_smoke("ViT", batch=4), "Ours",
                                faults=NO_FAULTS)
        variant = symbolize(base.program, 1)
        assert variant.symbolic_extent == 4  # the bucket's max bound
        graph = build_smoke("ViT", batch=4)
        sym_session = _compile_session(
            build_smoke("ViT", batch=4), "Ours", faults=NO_FAULTS,
            signature=symbolic_signature(graph), max_extent=8)
        values, want = concrete_reference(sym_session, "ViT", 2)
        got = sym_session.execute_values(
            [_admit(sym_session, values)])[0][0][0]
        assert_outputs_identical(got, want, "below-base extent")

    def test_symbolize_refuses_unstackable_programs(self):
        session = _compile_session(build_smoke("Swin", batch=1), "Ours",
                                   faults=NO_FAULTS)
        with pytest.raises(NotStackable):
            symbolize(session.program, 2)

    def test_wrong_leading_extent_raises_identically(self):
        # A symbolic spec pins the leading extent too: it is the pass's
        # live extent, so a kernel dropping a row fails at its own step,
        # with the same words in the emitted runner and the per-step
        # timing walk.
        graph = build_smoke("Pythia", batch=1)
        session = _compile_session(
            graph, "Ours", faults=NO_FAULTS,
            signature=symbolic_signature(graph), max_extent=MAX_EXTENT)
        variant = symbolize(session.program, 4)
        index, step = next(
            (i, step) for i, step in enumerate(variant.steps)
            if step.op_type not in ("reshape", "transpose")
            and len(step.out_shapes) == 1
            and is_symbolic_shape(step.out_shapes[0]))

        def drops_a_row(inputs, attrs, _kernel=step.kernel):
            return _kernel(inputs, attrs)[1:]

        steps = list(variant.steps)
        steps[index] = replace(step, kernel=drops_a_row)
        broken = ExecutionProgram(
            variant.graph, tuple(steps), variant.slot_plan,
            input_signature=variant.input_signature,
            symbolic_extent=variant.symbolic_extent, packs=variant.packs)
        values, _ = concrete_reference(session, "Pythia", 3)

        def timing_walk(values):
            for execute, drops in broken.op_list:
                execute(values, 3)
                for name in drops:
                    values.pop(name, None)

        messages = []
        for run in (lambda values: get_backend("numpy").run(broken, values),
                    timing_walk):
            with pytest.raises(ExecutionError) as caught:
                run(_admit(session, values))
            messages.append(str(caught.value))
        want = (3,) + tuple(step.out_shapes[0][1:])
        assert f"({step.node_id}) produced shape {(2,) + want[1:]}, " \
            f"spec says {want}" in messages[0]
        assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# satellite 2: reliability under chaos
# ---------------------------------------------------------------------------


class TestSymbolicReliability:
    def test_pool_degradation_preserves_parity_at_odd_extents(
            self, monkeypatch):
        # No respawn budget: every lost shard is rescued in-process.
        monkeypatch.setattr(pb, "_MAX_SHARD_RETRIES", 0)
        graph = build_smoke("Pythia", batch=1)
        plan = FaultPlan(rules=(
            FaultRule(kind="worker_crash", times=None),))
        session = _compile_session(
            build_smoke("Pythia", batch=1), "Ours", backend="parallel",
            workers=1, faults=plan, signature=symbolic_signature(graph),
            max_extent=MAX_EXTENT)
        try:
            for extent in (3, 5, 7):
                values, want = concrete_reference(session, "Pythia", extent)
                results, _backend, _batched = session.execute_values(
                    [_admit(session, values)])
                assert_outputs_identical(results[0][0], want, f"S={extent}")
            if parallel_supported():
                assert session.stats.fallbacks == 3  # rescued, not failed
        finally:
            session.close()

    @pytest.mark.skipif(not parallel_supported(),
                        reason="fork start method unavailable")
    def test_worker_crash_redispatch_preserves_parity(self):
        graph = build_smoke("Pythia", batch=1)
        plan = FaultPlan(rules=(
            FaultRule(kind="worker_crash", probability=1.0, times=1),))
        session = _compile_session(
            build_smoke("Pythia", batch=1), "Ours", backend="parallel",
            workers=2, faults=plan,
            signature=symbolic_signature(graph), max_extent=MAX_EXTENT)
        try:
            values, want = concrete_reference(session, "Pythia", 5)
            admitted = _admit(session, values)
            batch = [dict(admitted) for _ in range(4)]
            results, _backend, _batched = session.execute_values(batch)
            for got, _report, _wall in results:
                assert_outputs_identical(got, want, "crash redispatch")
            assert session.parallel_restarts == 1
        finally:
            session.close()
        assert not active_segments()

    @pytest.mark.parametrize("seed", [7, 20_240_428])
    def test_chaos_seeds_preserve_mixed_extent_isolation(self, seed):
        graph = build_smoke("Pythia", batch=1)
        session = _compile_session(
            build_smoke("Pythia", batch=1), "Ours", backend="parallel",
            workers=1, faults=FaultPlan.chaos(seed),
            signature=symbolic_signature(graph), max_extent=MAX_EXTENT)
        extents = [5, 1, 3, 8]
        batch, expected = [], []
        for extent in extents:
            values, want = concrete_reference(session, "Pythia", extent)
            batch.append(_admit(session, values))
            expected.append(want)
        try:
            for _ in range(3):  # repeated bursts so chaos rules fire
                results, _backend, _batched = session.execute_values(
                    [dict(v) for v in batch])
                for extent, (got, _r, _w), want in zip(
                        extents, results, expected):
                    assert_outputs_identical(got, want, f"chaos S={extent}")
        finally:
            session.close()


# ---------------------------------------------------------------------------
# satellite 3: admission errors
# ---------------------------------------------------------------------------


class TestSymbolicAdmission:
    def model(self, **overrides):
        graph = build_smoke("Pythia", batch=1)
        return graph, repro.compile(graph, CompileOptions(
            faults=NO_FAULTS, signature=symbolic_signature(graph),
            max_extent=4, **overrides))

    def test_rank_mismatch_names_tensor_and_symbolic_spec(self):
        graph, model = self.model()
        name = next(iter(graph.inputs))
        spec = graph.tensors[name]
        bad = np.zeros((2,) + tuple(spec.shape)[1:] + (3,),
                       dtype=spec.dtype.numpy_dtype)
        with pytest.raises(AdmissionError) as err:
            model.run(repro.InferenceRequest(inputs={name: bad}))
        message = str(err.value)
        assert name in message and "(?" in message and "1..4" in message

    def test_signature_naming_unknown_input_refused(self):
        with pytest.raises(InvalidOptions, match="not a graph input"):
            _compile_session(
                build_smoke("Pythia", batch=1), "Ours", faults=NO_FAULTS,
                signature={"no_such_tensor": (None, 8)}, max_extent=4)

    def test_signature_tail_mismatch_refused(self):
        graph = build_smoke("Pythia", batch=1)
        name = next(iter(graph.inputs))
        with pytest.raises(InvalidOptions, match="compiled graph expects"):
            _compile_session(
                build_smoke("Pythia", batch=1), "Ours", faults=NO_FAULTS,
                signature={name: (None, 999)}, max_extent=4)

    def test_options_validation(self):
        with pytest.raises(InvalidOptions, match="lead with a symbolic"):
            CompileOptions(signature={"x": (4, 8)}, max_extent=4)
        with pytest.raises(InvalidOptions, match="only the leading"):
            CompileOptions(signature={"x": (None, None)}, max_extent=4)
        with pytest.raises(InvalidOptions, match="max_extent"):
            CompileOptions(signature={"x": (None, 8)})
        with pytest.raises(InvalidOptions, match="requires a symbolic"):
            CompileOptions(max_extent=4)

    def test_serving_signature_spells_sym(self):
        _graph, model = self.model()
        for _name, (shape, _dtype) in model.session.serving_signature.items():
            assert shape[0] is SYM


# ---------------------------------------------------------------------------
# satellite 4: compile-count regression
# ---------------------------------------------------------------------------


class TestCompileCount:
    def test_shape_sweep_compiles_once_per_bucket(self):
        graph = build_smoke("Pythia", batch=1)
        session = _compile_session(
            build_smoke("Pythia", batch=1), "Ours",
            faults=NO_FAULTS, signature=symbolic_signature(graph),
            max_extent=MAX_EXTENT)
        references = {
            extent: concrete_reference(session, "Pythia", extent)
            for extent in range(1, MAX_EXTENT + 1)}
        before = emission_count()
        for _round in range(3):
            for extent in range(1, MAX_EXTENT + 1):
                values, want = references[extent]
                results, _b, _s = session.execute_values(
                    [_admit(session, values)])
                assert_outputs_identical(results[0][0], want, f"S={extent}")
        emitted = emission_count() - before
        variants = session.program.backend_cache.get("batching.variants", {})
        # Base extent (1) routes the concrete path; every other extent
        # lands in the power-of-two bucket covering it, exact flavour.
        expected_buckets = {bucket(extent)
                            for extent in range(2, MAX_EXTENT + 1)}
        assert {factor for factor, rows in variants if not rows} \
            == expected_buckets
        # One lowering + one codegen emission per bucket, plus at most
        # one for the base program itself - never per shape, never per
        # round.
        assert emitted <= len(expected_buckets) + 1

    def test_second_sweep_emits_nothing_new(self):
        graph = build_smoke("ViT", batch=1)
        session = _compile_session(
            build_smoke("ViT", batch=1), "Ours",
            faults=NO_FAULTS, signature=symbolic_signature(graph),
            max_extent=MAX_EXTENT)
        values = {extent: concrete_reference(session, "ViT", extent)[0]
                  for extent in (2, 3, 5, 8)}
        for extent, admitted in values.items():
            session.execute_values([_admit(session, admitted)])
        before = emission_count()
        variants_before = dict(
            session.program.backend_cache["batching.variants"])
        for extent, admitted in values.items():
            session.execute_values([_admit(session, admitted)])
        assert emission_count() == before
        assert dict(session.program.backend_cache["batching.variants"]) \
            == variants_before


    def test_new_in_bucket_shape_beats_a_cold_compile_10x(self):
        # Same process, both sides timed here - a ratio, not a wall: a
        # request at a new extent inside a warm bucket reuses the
        # bucket's variant and pool, where serving that shape without
        # symbolic compilation pays a fresh concrete compile (~17x).
        from repro.bench.serving import measure_symbolic

        for name, entry in measure_symbolic()["models"].items():
            assert entry["speedup"] >= 10.0, (name, entry)
            assert entry["buckets_compiled"] == 1, (name, entry)


# ---------------------------------------------------------------------------
# tentpole plumbing: per-bucket slot plans, scratch, shm layouts
# ---------------------------------------------------------------------------


class TestBucketedPlans:
    def test_variant_slot_plan_sized_at_bucket_bound(self):
        session = _compile_session(build_smoke("Pythia", batch=1), "Ours",
                                   faults=NO_FAULTS)
        small = symbolize(session.program, 2)
        large = symbolize(session.program, 8)
        assert small.symbolic_extent == 2
        assert large.symbolic_extent == 8
        assert large.slot_plan.peak_bytes > small.slot_plan.peak_bytes

    def test_shard_layout_per_extent(self):
        session = _compile_session(build_smoke("Pythia", batch=1), "Ours",
                                   faults=NO_FAULTS)
        program = session.program
        base = ShardLayout(program, capacity=4)
        at5 = ShardLayout(program, capacity=4, extent=5)
        for slot in at5.inputs:
            assert slot.shape[0] == 5
        for base_slot, slot in zip(base.outputs, at5.outputs):
            if base_slot.shape != slot.shape:  # batched output: scaled
                assert slot.shape[0] == base_slot.shape[0] * 5
        assert at5.segment_bytes > base.segment_bytes

    def test_shard_layout_refuses_unstackable_programs(self):
        session = _compile_session(build_smoke("Swin", batch=1), "Ours",
                                   faults=NO_FAULTS)
        with pytest.raises(ValueError, match="batch-scalable"):
            ShardLayout(session.program, capacity=4, extent=5)

    @pytest.mark.skipif(not parallel_supported(),
                        reason="fork start method unavailable")
    def test_parallel_uniform_extent_shards_and_cleans_up(self):
        graph = build_smoke("Pythia", batch=1)
        session = _compile_session(
            build_smoke("Pythia", batch=1), "Ours", backend="parallel",
            workers=2, faults=NO_FAULTS,
            signature=symbolic_signature(graph), max_extent=MAX_EXTENT)
        try:
            values, want = concrete_reference(session, "Pythia", 6)
            admitted = _admit(session, values)
            batch = [dict(admitted) for _ in range(4)]
            results, _backend, _batched = session.execute_values(batch)
            for got, _report, _wall in results:
                assert_outputs_identical(got, want, "parallel S=6")
        finally:
            session.close()
        assert not active_segments()
