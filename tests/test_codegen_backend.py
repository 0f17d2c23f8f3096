"""Tests for the fused codegen execution backend.

The contract: the ``codegen`` backend is a drop-in for ``numpy`` -
identical outputs, identical failure semantics - with the whole step
loop compiled to Python source once per program and cached on it.
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
from repro.core import smartmem_optimize
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import (
    CodegenBackend, available_backends, compile_program, execute,
    emit_program_source, get_backend, lower, make_inputs, program_source,
    verify_equivalence,
)
from repro.runtime.kernels import get_kernel
from repro.runtime.session import _compile_session

from front_door import serve_one

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
class TestCodegenParity:
    """Generated-module execution == reference backend on the whole zoo,
    through the verifier's own backend selection."""

    def test_verify_equivalence_on_codegen_backend(self, name):
        graph = build(name, **SMOKE_CONFIGS[name])
        optimized = smartmem_optimize(graph).graph
        report = verify_equivalence(graph, optimized, backend="codegen")
        assert report.passed, report.summary()


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
        emission - the numpy backend executes its lowering-time
        appliers, and codegen must emit from the same capture."""
        optimized = smartmem_optimize(attention_graph).graph
        program = lower(optimized)
        inputs = {k: v for k, v in make_inputs(attention_graph).items()
                  if k in optimized.tensors}
        ref = get_backend("numpy").run(program, dict(inputs))
        viewed = [n for n in optimized.iter_nodes()
                  if any(not v.is_identity for v in n.input_views.values())]
        assert viewed, "the optimized graph must carry absorbed views"
        for node in viewed:
            node.input_views.clear()  # in-place: no cache invalidation
        out = get_backend("codegen").run(program, dict(inputs))
        for key in ref:
            assert np.array_equal(out[key], ref[key]), key

    def test_plain_runner_matches_execute(self, attention_graph):
        program = lower(attention_graph)
        values = make_inputs(attention_graph)
        out = get_backend("codegen").run(program, dict(values))
        ref = execute(attention_graph, values)
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


class TestCodegenServing:
    def test_shape_error_matches_reference_backend(self, attention_graph):
        program = lower(attention_graph)
        values = make_inputs(attention_graph)
        bad = dict(values)
        bad["x"] = bad["x"][:, :-1]
        errors = {}
        for backend in ("numpy", "codegen"):
            with pytest.raises(Exception) as info:
                get_backend(backend).run(program, dict(bad))
            errors[backend] = str(info.value)
        assert errors["numpy"] == errors["codegen"]

    def test_run_many_matches_single_runs(self, attention_graph):
        program = lower(attention_graph)
        backend = get_backend("codegen")
        batch = [make_inputs(attention_graph, seed=s) for s in range(3)]
        results = backend.run_many(program, [dict(b) for b in batch])
        for inputs, (out, report, wall_s) in zip(batch, results):
            ref = execute(attention_graph, inputs)
            assert wall_s > 0
            assert report is program.report
            for key in ref:
                assert np.array_equal(out[key], ref[key])


class TestCodegenPlumbing:
    """backend="codegen" is selectable end-to-end through the typed API."""

    def test_registered(self):
        assert "codegen" in available_backends()
        assert isinstance(get_backend("codegen"), CodegenBackend)
        assert get_backend("codegen") is get_backend("codegen")

    def test_session_backend_selection(self, attention_graph):
        session = _compile_session(attention_graph, "Ours", backend="codegen")
        assert session.backend == "codegen"
        reference = _compile_session(attention_graph, "Ours")
        inputs = session.make_inputs(seed=3)
        out = serve_one(session, dict(inputs))
        ref = serve_one(reference, dict(inputs))
        for key in ref:
            assert np.array_equal(out[key], ref[key]), key
        # every request reports the program's static slot-plan report
        assert session.stats.runs[-1].pool is session.program.report

    def test_compile_options_front_door(self, attention_graph):
        import repro

        fast = repro.compile(attention_graph,
                             CompileOptions(backend="codegen"))
        assert fast.session.backend == "codegen"
        baseline = repro.compile(attention_graph)
        assert baseline.program is fast.program  # backends share it
        assert baseline.session is not fast.session
        request = fast.make_request(seed=1)
        out = fast.run(request).outputs
        ref = baseline.run(baseline.make_request(seed=1)).outputs
        for key in ref:
            assert np.array_equal(out[key], ref[key]), key

    def test_serve_coalesces_on_codegen_backend(self, attention_graph,
                                                scheduling):
        import repro

        service = scheduling.parked(
            attention_graph, max_batch_size=8,
            compile=CompileOptions(backend="codegen"))
        model = service.compiled
        futures = [service.submit(model.make_request(seed=s))
                   for s in range(16)]
        scheduling.release(service)
        responses = [f.result(timeout=60) for f in futures]
        assert service._backend is get_backend("codegen")
        assert [r.batch_size for r in responses] == [8] * 16
        baseline = repro.compile(attention_graph)  # numpy-backend reference
        ref = baseline.run(baseline.make_request(seed=2)).outputs
        for key in ref:
            assert np.array_equal(responses[2].outputs[key], ref[key]), key
