"""Tests for the emitted in-process runner.

The contract: every program runs as one generated Python function,
emitted once per program and cached on it, with the outputs and the
shape-error text of per-node ``run_node`` interpretation - the
independent reference.  ``"numpy"`` and ``"codegen"`` name this one
runner.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import CompileOptions
from repro.bench.harness import clear_cell_cache
from repro.core import smartmem_optimize
from repro.models import SMOKE_CONFIGS, build, build_smoke
from repro.runtime import (
    FaultPlan, NumPyBackend, WorkerPool, available_backends,
    compile_program, emit_program_source, execute, get_backend, lower,
    make_inputs, parallel_supported, program_source, run_node,
)
from repro.runtime.batching import analyze
from repro.runtime.kernels import get_kernel
from repro.runtime.session import _admit, _compile_session

from front_door import serve_one

SRC = str(Path(repro.__file__).resolve().parents[1])


def _interpret(graph, inputs):
    """The independent reference: run_node over the topo order."""
    values = dict(inputs)
    for node in graph.topo_order():
        run_node(graph, node, values)
    return {name: values[name] for name in graph.outputs}


def _untouchable(*_args, **_kwargs):
    raise AssertionError("the worker pool was touched")


@pytest.mark.skipif(not parallel_supported(),
                    reason="fork start method unavailable")
@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
class TestCodegenParity:
    """Every accepted backend name, passed to ``execute_values``, runs
    the one in-process runner on the whole zoo - even on a
    ``"parallel"`` session, whose own route goes to its pool."""

    def test_every_name_runs_in_process(self, name, monkeypatch):
        monkeypatch.setattr(WorkerPool, "__init__", _untouchable)
        monkeypatch.setattr(WorkerPool, "run", _untouchable)
        session = _compile_session(build_smoke(name), "Ours",
                                   faults=FaultPlan(), backend="parallel",
                                   workers=1)
        batch = [_admit(session, session.make_inputs(seed=s))
                 for s in range(2)]
        # executing the compiled graph directly, as test_session does
        refs = [execute(session.graph, values) for values in batch]
        for backend in available_backends():
            rows, reported, _ = session.execute_values(
                [dict(values) for values in batch],
                backend=get_backend(backend))
            assert reported == "numpy"
            assert len(rows) == len(refs)
            for (out, _, _), ref in zip(rows, refs):
                assert list(out) == list(ref)
                for key in ref:
                    assert np.array_equal(out[key], ref[key]), (backend, key)
        # the session's own route asks the pool, and its refusal surfaces
        with pytest.raises(AssertionError, match="pool was touched"):
            session.execute_values([dict(values) for values in batch])


class TestGeneratedModule:
    def test_source_is_fused_python(self, attention_graph):
        optimized = smartmem_optimize(attention_graph).graph
        program = lower(optimized)
        source = program_source(program)
        # one runner, and no pool traffic in it: the slot plan is a
        # static fact of the program, never replayed per request
        assert re.findall(r"^def \w+", source, re.M) == ["def run_plain"]
        assert "def run_plain(values):" in source
        assert "allocate(" not in source
        # per-step closure dispatch is gone: kernels are called directly
        assert "_k_matmul(" in source
        # pre-resolved views are inlined as direct ndarray method calls
        assert ".reshape(" in source or ".transpose(" in source

    def test_emit_is_pure_and_compile_is_cached(self, attention_graph):
        program = lower(attention_graph)
        source, namespace = emit_program_source(program)
        assert "run_plain" not in namespace  # emitted, not executed
        module = compile_program(program)
        assert module is compile_program(program)  # cached on the program
        assert module.source == source
        assert module.namespace["run_plain"] is module.run_plain

    def test_runner_cache_follows_graph_generation(self, attention_graph):
        from repro.ir.tensor import TensorSpec

        module = compile_program(lower(attention_graph))
        assert compile_program(lower(attention_graph)) is module
        attention_graph.add_tensor(TensorSpec("scratch", (1,)))
        # a structural mutation re-lowers, and the new program carries a
        # fresh (empty) backend cache
        assert compile_program(lower(attention_graph)) is not module

    def test_emission_reads_lowering_time_views_not_the_live_graph(
            self, attention_graph):
        """The generated module must be faithful to the state the
        program was lowered from: a graph mutated after lower() (without
        a structural invalidation) may not leak into a later first-run
        emission - it emits from the steps' lowering-time capture."""
        optimized = smartmem_optimize(attention_graph).graph
        program = lower(optimized)
        inputs = {k: v for k, v in make_inputs(attention_graph).items()
                  if k in optimized.tensors}
        ref = _interpret(optimized, inputs)
        viewed = [n for n in optimized.iter_nodes()
                  if any(not v.is_identity for v in n.input_views.values())]
        assert viewed, "the optimized graph must carry absorbed views"
        assert "codegen.module" not in program.backend_cache
        for node in viewed:
            node.input_views.clear()  # in-place: no cache invalidation
        out = get_backend("numpy").run(program, dict(inputs))
        for key in ref:
            assert np.array_equal(out[key], ref[key]), key

    def test_plain_runner_matches_interpretation(self, attention_graph):
        program = lower(attention_graph)
        values = make_inputs(attention_graph)
        out = compile_program(program).run_plain(
            program.bind_packs(dict(values)))
        ref = _interpret(attention_graph, values)
        for key in ref:
            assert np.array_equal(out[key], ref[key]), key

    def test_relayout_steps_bind_no_kernel(self):
        # every reshape/transpose step is the ndarray method call its
        # kernel makes, emitted inline: no module global binds either
        relayouts = {get_kernel("reshape"), get_kernel("transpose")}
        emitted = 0
        for name in sorted(SMOKE_CONFIGS):
            program = lower(build(name, **SMOKE_CONFIGS[name]))
            _, namespace = emit_program_source(program)
            assert not relayouts & {
                value for value in namespace.values() if callable(value)}
            emitted += sum(step.op_type in ("reshape", "transpose")
                           for step in program.steps)
        assert emitted > 0


def test_emitted_source_and_slots_do_not_depend_on_the_hash_seed():
    """Drops follow first-seen order, not set order: two processes with
    different ``PYTHONHASHSEED`` emit the same module and slot map."""
    script = (
        "import json, repro\n"
        "from repro.models import build_smoke\n"
        "from repro.runtime import program_source\n"
        "program = repro.optimize(build_smoke('Conformer')).program\n"
        "print(json.dumps([program_source(program),\n"
        "                  sorted(program.slot_plan.tensor_slot.items())]))\n")
    results = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout))
    assert results[0] == results[1]


class TestEmittedAtCompile:
    def test_an_emission_bug_fails_the_compile(self, attention_graph,
                                               monkeypatch):
        from repro.api import BackendCompilationError
        from repro.runtime import codegen_backend

        def broken(program):
            raise RuntimeError("emitter bug")

        monkeypatch.setattr(codegen_backend, "emit_program_source", broken)
        with pytest.raises(BackendCompilationError, match="emitter bug"):
            repro.compile(attention_graph)

    def test_serving_builds_no_step_closures(self):
        clear_cell_cache()  # a fresh program: nothing read its op_list
        graph = build_smoke("Pythia", batch=1)
        model = repro.compile(graph, CompileOptions(
            max_extent=4, signature={
                name: (None,) + tuple(graph.shape(name))[1:]
                for name in graph.inputs}))
        program = model.program
        model.run_batch([model.make_request(seed=s) for s in range(3)])
        wide = {name: np.resize(value, (3,) + value.shape[1:])
                for name, value in model.make_request(seed=0).inputs.items()}
        model.run(repro.InferenceRequest(inputs=wide))
        variants = program.backend_cache["batching.variants"].values()
        assert len(variants) == 2  # one stacked, one exact
        for served in (program, *variants):
            assert "codegen.module" in served.backend_cache
            assert "op_list" not in served.backend_cache
        # the per-step timing walk builds its closures on first read
        assert program.op_list is program.op_list
        assert len(program.op_list) == program.num_steps

    @pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
    def test_zoo_serving_builds_no_step_closures(self, name):
        """Solo and batched requests run emitted modules only, on every
        model: neither the program nor a bucket variant it served from
        builds the per-step timing walk."""
        clear_cell_cache()  # a fresh program: nothing read its op_list
        model = repro.compile(build_smoke(name), CompileOptions())
        program = model.program
        model.run(model.make_request(seed=0))
        model.run_batch([model.make_request(seed=s) for s in range(3)])
        variants = program.backend_cache.get("batching.variants", {})
        # a stackable program served the batch from its stacked variant
        assert len(variants) == analyze(program).stackable
        for owner in (program, *variants.values()):
            assert "codegen.module" in owner.backend_cache
            assert "op_list" not in owner.backend_cache


class TestCodegenServing:
    def test_shape_error_matches_interpretation(self, attention_graph):
        program = lower(attention_graph)
        values = make_inputs(attention_graph)
        bad = dict(values)
        bad["x"] = bad["x"][:, :-1]
        errors = {}
        for who, run in (
                ("runner", lambda: get_backend("numpy").run(
                    program, dict(bad))),
                ("run_node", lambda: _interpret(attention_graph, bad))):
            with pytest.raises(Exception) as info:
                run()
            errors[who] = str(info.value)
        assert errors["runner"] == errors["run_node"]
        assert "spec says" in errors["runner"]

    def test_run_many_matches_single_runs(self, attention_graph):
        program = lower(attention_graph)
        backend = get_backend("numpy")
        batch = [make_inputs(attention_graph, seed=s) for s in range(3)]
        results = backend.run_many(program, [dict(b) for b in batch])
        for inputs, (out, report, wall_s) in zip(batch, results):
            ref = _interpret(attention_graph, inputs)
            assert wall_s > 0
            assert report is program.report
            for key in ref:
                assert np.array_equal(out[key], ref[key])


class TestCodegenPlumbing:
    """backend="codegen" selects the one runner end-to-end through the
    typed API."""

    def test_registered(self):
        assert "codegen" in available_backends()
        assert isinstance(get_backend("codegen"), NumPyBackend)
        assert get_backend("codegen") is get_backend("numpy")

    def test_session_backend_selection(self, attention_graph):
        session = _compile_session(attention_graph, "Ours", backend="codegen")
        assert session.backend == "numpy"  # the canonical name
        # the base module was emitted when the session was built
        assert "codegen.module" in session.program.backend_cache
        inputs = session.make_inputs(seed=3)
        out = serve_one(session, dict(inputs))
        ref = _interpret(session.graph,
                         {**make_inputs(session.graph), **inputs})
        for key in ref:
            assert np.array_equal(out[key], ref[key]), key
        # every request reports the program's static slot-plan report
        assert session.stats.runs[-1].pool is session.program.report

    def test_compile_options_front_door(self, attention_graph):
        fast = repro.compile(attention_graph,
                             CompileOptions(backend="codegen"))
        baseline = repro.compile(attention_graph)
        assert baseline.program is fast.program  # both names share it
        assert baseline.session is not fast.session
        request = fast.make_request(seed=1)
        response = fast.run(request)
        assert response.stats.backend == "numpy"
        ref = _interpret(fast.graph,
                         {**make_inputs(fast.graph), **request.inputs})
        for key in ref:
            assert np.array_equal(response.outputs[key], ref[key]), key

    def test_serve_coalesces_on_codegen_backend(self, attention_graph,
                                                scheduling):
        service = scheduling.parked(
            attention_graph, max_batch_size=8,
            compile=CompileOptions(backend="codegen"))
        model = service.compiled
        futures = [service.submit(model.make_request(seed=s))
                   for s in range(16)]
        scheduling.release(service)
        responses = [f.result(timeout=60) for f in futures]
        assert model.session.backend == "numpy"
        assert [r.batch_size for r in responses] == [8] * 16
        ref = _interpret(model.graph, {**make_inputs(model.graph),
                                       **model.make_request(seed=2).inputs})
        for key in ref:
            assert np.array_equal(responses[2].outputs[key], ref[key]), key
