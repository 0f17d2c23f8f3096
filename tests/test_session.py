"""Tests for the compile-once/run-many Session layer."""

import inspect

import numpy as np
import pytest

import repro
from repro.api import CompileOptions
from repro.bench.harness import cell_cache_stats
from repro.core import PipelineStages
from repro.models import ALL_MODELS, SMOKE_CONFIGS as SMALL_CONFIGS, build
from repro.runtime import SD8GEN2, Session, execute, get_backend, make_inputs
from repro.runtime.session import _admit

from front_door import serve_batch, serve_one


def fresh_session(model, framework="Ours", device=SD8GEN2, **options):
    """A fresh private session (own stats), as ``repro.serve`` builds
    one."""
    return repro.compile(model, CompileOptions(
        framework=framework, device=device, **options)).session


def _session_and_reference(name):
    g = build(name, **SMALL_CONFIGS[name])
    session = fresh_session(g, "Ours")
    inputs = make_inputs(g)
    return g, session, inputs


@pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
class TestEveryRegistryModel:
    """Compile-once/run-many equals direct execute() on the whole zoo."""

    def test_run_many_matches_reference(self, name):
        g, session, inputs = _session_and_reference(name)
        ref = execute(g, inputs)
        request = {k: inputs[k] for k in g.inputs}
        # byte-identical to executing the compiled graph directly
        compiled_ref = execute(session.graph, {**session._params, **request})
        out1 = serve_one(session, request)
        out2 = serve_one(session, request)
        assert list(out1) == list(ref)
        for key in ref:
            assert np.array_equal(out1[key], compiled_ref[key]), key
            assert np.array_equal(out1[key], out2[key]), key
            assert np.allclose(ref[key], out1[key], rtol=1e-4, atol=1e-5), key


class TestSessionAccounting:
    @pytest.fixture(scope="class")
    def vit_session(self):
        g = build("ViT", **SMALL_CONFIGS["ViT"])
        return g, fresh_session(g, "Ours")

    def test_per_request_stats(self, vit_session):
        g, session = vit_session
        start = session.stats.requests
        serve_one(session, session.make_inputs(seed=3))
        stats = session.stats.runs[-1]
        assert session.stats.requests == start + 1
        assert stats.wall_s > 0
        assert stats.est_latency_ms > 0
        assert stats.pool.total_allocated_bytes > 0
        assert len(stats.pool.timeline) == len(session.graph.topo_order())
        assert session.stats.mean_wall_s > 0

    def test_run_batch(self, vit_session):
        g, session = vit_session
        start = session.stats.requests
        batch = [session.make_inputs(seed=s) for s in range(3)]
        outs = serve_batch(session, batch)
        assert len(outs) == 3
        assert session.stats.requests == start + 3
        # different seeds produce different outputs
        name = next(iter(outs[0]))
        assert not np.array_equal(outs[0][name], outs[1][name])

    def test_seeded_run_without_inputs(self, vit_session):
        _, session = vit_session
        a = serve_one(session, session.make_inputs(seed=11))
        b = serve_one(session, session.make_inputs(seed=11))
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_one_admission_door(self):
        """A session serves only through the front doors, and admission
        takes the session, the request's inputs and its id - nothing
        else."""
        for gone in ("run", "run_batch", "_admit"):
            assert not hasattr(Session, gone), gone
        assert list(inspect.signature(_admit).parameters) == [
            "session", "inputs", "request_id"]

    def test_failed_run_records_nothing(self, vit_session):
        """A refused request records nothing, and the session keeps
        serving."""
        _, session = vit_session
        inputs = session.make_inputs()
        bad = dict(inputs)
        name = next(iter(bad))
        bad[name] = bad[name][..., :-1]  # wrong shape
        requests_before = session.stats.requests
        with pytest.raises(Exception):
            serve_one(session, bad)
        assert session.stats.requests == requests_before
        out = serve_one(session, inputs)  # session still serves correctly
        assert out

    def test_graph_model_batch_rejected(self):
        g = build("ViT", **SMALL_CONFIGS["ViT"])
        with pytest.raises(ValueError, match="batch"):
            fresh_session(g, "Ours", batch=2)

    def test_est_latency_matches_cell_report(self, vit_session):
        _, session = vit_session
        assert session.est_latency_ms == pytest.approx(
            session.report.latency_ms)


class TestInputValidation:
    """Malformed requests fail at admission, never deep inside a kernel
    (what is malformed, and the errors: ``tests/test_admission.py``)."""

    @pytest.fixture(scope="class")
    def session(self):
        g = build("ViT", **SMALL_CONFIGS["ViT"])
        return fresh_session(g, "Ours")

    def test_rejection_happens_before_execution(self, session):
        inputs = session.make_inputs()
        name = next(iter(inputs))
        inputs[name] = inputs[name][..., :-1]
        requests = session.stats.requests
        with pytest.raises(ValueError):
            serve_one(session, inputs)
        assert session.stats.requests == requests


class TestProgramPlumbing:
    def test_sessions_share_one_lowering(self):
        g = build("ViT", **SMALL_CONFIGS["ViT"])
        a = fresh_session(g, "Ours")
        b = fresh_session(g, "Ours")
        assert a.program is b.program  # program rides the compile cache
        assert a is not b

    def test_ours_program_comes_from_lower_pass(self):
        g = build("Swin", **SMALL_CONFIGS["Swin"])
        session = fresh_session(g, "Ours")
        assert session.program is session._cell.result.program
        assert session.program.graph is session.graph

    def test_baseline_framework_lowers_at_session_build(self):
        g = build("ResNext", **SMALL_CONFIGS["ResNext"])
        session = fresh_session(g, "DNNF")
        assert session.program.num_steps == len(session.graph.nodes)
        # lowered to emit its runner: an emission bug fails the compile
        assert "codegen.module" in session.program.backend_cache

    def test_unknown_backend_rejected(self):
        g = build("ViT", **SMALL_CONFIGS["ViT"])
        with pytest.raises(KeyError, match="unknown backend"):
            fresh_session(g, "Ours", backend="tpu")

    def test_run_batch_single_backend_invocation(self, monkeypatch):
        g = build("ViT", **SMALL_CONFIGS["ViT"])
        session = fresh_session(g, "Ours")
        calls = []
        runner = get_backend("numpy")
        original = runner.run_many

        def counting_run_many(program, values_list):
            calls.append(len(values_list))
            return original(program, values_list)

        monkeypatch.setattr(runner, "run_many", counting_run_many)
        serve_batch(session, [session.make_inputs(seed=s) for s in range(3)])
        # One backend invocation for the whole batch: the sequential
        # path passes all 3 value dicts at once, the stacked path passes
        # 1 concatenated dict through the bucket's stacked variant.
        assert len(calls) == 1
        assert calls[0] in (1, 3)


class TestCompileOnce:
    def test_compiles_share_one_program_per_stages(self):
        g = build("ViT", **SMALL_CONFIGS["ViT"])
        a, b = repro.compile(g), repro.compile(g)
        assert a.program is b.program
        assert a.session is not b.session
        other = repro.compile(g, stages=PipelineStages(lte=False))
        assert other.program is not a.program

    def test_compile_reuses_cell_cache(self):
        g = build("Swin", **SMALL_CONFIGS["Swin"])
        fresh_session(g, "Ours")
        before = cell_cache_stats()
        second = fresh_session(g, "Ours")
        after = cell_cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1
        assert isinstance(second, Session)

    def test_unsupported_framework_raises(self):
        g = build("ViT", **SMALL_CONFIGS["ViT"])
        with pytest.raises(RuntimeError, match="cannot serve"):
            fresh_session(g, "NCNN")

    def test_baseline_framework_sessions_execute(self):
        g = build("ResNext", **SMALL_CONFIGS["ResNext"])
        session = fresh_session(g, "DNNF")
        inputs = make_inputs(g)
        ref = execute(g, inputs)
        out = serve_one(session, {k: inputs[k] for k in g.inputs})
        for key in ref:
            assert np.allclose(ref[key], out[key], rtol=1e-4, atol=1e-5), key

    def test_registry_names_compile_directly(self):
        session = fresh_session("ViT", "Ours", SD8GEN2)
        assert session.model == "ViT"
        assert session.graph.num_operators > 0
        assert "ViT" in ALL_MODELS
