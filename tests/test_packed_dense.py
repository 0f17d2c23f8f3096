"""One ``dense`` semantics: every route computes on ``pack(w)``.

``lower()`` binds a ``dense`` whose weight is a parameter to its
``(K, N)``-contiguous GEMM operand, the compiled cell materialises that
operand once, and every other way of executing a ``dense`` - the graph
interpreter, ``executor.execute`` - packs per call through the same
:func:`repro.runtime.kernels.pack`.  A request never supplies a weight:
admission refuses anything but the declared inputs.
BLAS's no-transpose and transposed-operand GEMMs differ in the last
float bits, so the contract is byte-identity across *routes* (which all
read the packed layout), never against a transposed view.
"""

import gc
import re
import time
import weakref

import numpy as np
import pytest

from repro.bench import harness
from repro.bench.harness import clear_cell_cache, run_cell
from repro.ir import GraphBuilder
from repro.ir.view import ViewChain
from repro.models import SMOKE_CONFIGS, build, build_smoke
from repro.runtime import FaultPlan, execute, get_kernel, lower, make_inputs
from repro.runtime import kernels
from repro.runtime.batching import analyze, rebatch, symbolize
from repro.runtime.executor import make_params, run_node
from repro.runtime.kernels import dense_packed, pack
from repro.runtime.parallel_backend import parallel_supported
from repro.runtime.session import _admit, _compile_session

from front_door import serve_batch, serve_one

NO_FAULTS = FaultPlan()  # explicit empty plan: overrides ambient chaos

#: benchmarks/perf's ``kernel_open`` model (perfkit/spec.py).
CONFORMER_MEDIUM = dict(frames=64, mels=80, dim=96, depth=2, heads=4)
MEDIUM = "Conformer-medium"


def graph_of(name, batch=1):
    if name == MEDIUM:
        return build("Conformer", batch=batch, **CONFORMER_MEDIUM)
    return build_smoke(name, batch=batch)


def has_dense(graph):
    return any(node.op_type == "dense" for node in graph.nodes.values())


DENSE_MODELS = [name for name in sorted(SMOKE_CONFIGS)
                if has_dense(build_smoke(name))] + [MEDIUM]
#: Smoke CNNs whose pass is all conv (up to 0.4 s solo): their only
#: ``dense`` is the classifier head, so the matrix stacks 2, not 16.
HEAVY = {"RegNet", "ResNet50", "ResNext"}


def session_of(name, backend="numpy", **kwargs):
    return _compile_session(graph_of(name), "Ours", backend=backend,
                            faults=NO_FAULTS, **kwargs)


def source_params(graph):
    """The cell's parameters under the *graph's* names and layouts."""
    return {name: value for name, value in make_inputs(graph, seed=0).items()
            if name not in graph.inputs}


def same(got, want, context=""):
    assert set(got) == set(want), context
    for key in want:
        assert got[key].dtype == want[key].dtype, f"{context} {key}"
        assert got[key].tobytes() == want[key].tobytes(), f"{context} {key}"


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_cell_cache()
    yield
    clear_cell_cache()


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------


class TestDenseKernel:
    def test_pack_is_the_kn_contiguous_transpose(self):
        w = np.arange(12, dtype=np.float32).reshape(3, 4)
        packed = pack(w)
        assert packed.shape == (4, 3) and packed.flags.c_contiguous
        assert np.array_equal(packed, w.T)

    def test_registered_dense_is_dense_packed_over_pack(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 8)).astype(np.float32)
        w = rng.standard_normal((6, 8)).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        want = np.matmul(x, pack(w)) + b
        for inputs in ([x, w, b], [x, w]):
            got = get_kernel("dense")(inputs, {})
            bound = dense_packed([x, pack(w), *inputs[2:]], {})
            assert got.tobytes() == bound.tobytes()
        assert get_kernel("dense")([x, w, b], {}).tobytes() == want.tobytes()

    def test_bias_is_added_in_place_without_touching_an_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        w_kn = pack(rng.standard_normal((6, 8)).astype(np.float32))
        b = rng.standard_normal(6).astype(np.float32)
        frozen = [x.copy(), w_kn.copy(), b.copy()]
        for array in (x, w_kn, b):
            array.setflags(write=False)  # an aliased write would raise
        out = dense_packed([x, w_kn, b], {})
        assert out.dtype == np.float32 and out.flags.writeable
        assert out.tobytes() == (np.matmul(x, w_kn) + b).tobytes()
        for array, before in zip((x, w_kn, b), frozen):
            assert not np.shares_memory(out, array)
            assert np.array_equal(array, before)

    def test_mixed_dtype_bias_adds_out_of_place(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        w_kn = pack(rng.standard_normal((6, 8)).astype(np.float32))
        b = rng.standard_normal(6)  # float64
        out = dense_packed([x, w_kn, b], {})
        assert out.dtype == np.float64  # promoted, as ``out + bias`` is
        assert out.tobytes() == (np.matmul(x, w_kn) + b).tobytes()
        assert not any(np.shares_memory(out, a) for a in (x, w_kn, b))


# ---------------------------------------------------------------------------
# lowering decides the layout
# ---------------------------------------------------------------------------


def _tied():
    """One weight read by a ``dense`` and, as it is, by a ``matmul``."""
    b = GraphBuilder("tied")
    x = b.input("x", (1, 8, 16))
    w = b.param((16, 16), "tied_w")
    y = b._emit("dense", [b.layernorm(x), w])
    b.output(b.add(y, b.matmul(x, w)))
    return b.finish()


def _shared():
    """One weight read by two ``dense`` steps and nothing else."""
    b = GraphBuilder("shared")
    x = b.input("x", (1, 8, 16))
    w = b.param((16, 16), "shared_w")
    y = b._emit("dense", [x, w])
    b.output(b._emit("dense", [b.relu(y), w]))
    return b.finish()


class TestLowering:
    def test_parameter_weights_are_bound_to_the_packed_operand(
            self, attention_graph):
        program = lower(attention_graph)
        dense = [s for s in program.steps if s.op_type == "dense"]
        assert dense and len(program.packs) == len(dense)
        for step, (packed, source, source_read) in zip(dense, program.packs):
            assert step.kernel is dense_packed
            assert step.arg_names[1] == packed != source
            assert packed not in attention_graph.tensors
            assert not source_read

    def test_a_weight_the_request_supplies_packs_per_call(self):
        b = GraphBuilder("input-weight")
        x = b.input("x", (1, 4, 8))
        w = b.input("w", (6, 8))
        b.output(b._emit("dense", [x, w]))
        graph = b.finish()
        program = lower(graph)
        assert program.packs == ()
        assert program.steps[0].kernel is get_kernel("dense")
        values = make_inputs(graph, seed=3)
        want = np.matmul(values["x"], pack(values["w"]))
        same(execute(graph, values), {graph.outputs[0]: want})

    def test_a_viewed_weight_packs_per_call(self):
        b = GraphBuilder("viewed-weight")
        x = b.input("x", (1, 4, 8))
        w = b.param((8, 6), "stored_kn")
        b.output(b.dense(x, 6))
        graph = b.finish()
        node = next(iter(graph.nodes.values()))
        node.inputs[1] = w  # read the (8, 6) parameter through a view
        node.input_views[1] = ViewChain.identity((8, 6)).then_transpose(
            (1, 0))
        program = lower(graph)
        assert program.packs == ()
        assert program.steps[0].kernel is get_kernel("dense")
        values = make_inputs(graph, seed=1)
        want = np.matmul(values["x"], pack(values[w].T)) \
            + values[node.inputs[2]]
        same(execute(graph, values), {graph.outputs[0]: want})

    def test_two_steps_share_one_pack(self):
        program = lower(_shared())
        (packed, source, source_read), = program.packs
        assert not source_read
        assert [s.arg_names[1] for s in program.steps
                if s.op_type == "dense"] == [packed, packed]
        assert sorted(make_params(program.graph)) == [packed]

    def test_tied_weights_keep_source_and_pack(self):
        graph = _tied()
        program = lower(graph)
        (packed, source, source_read), = program.packs
        assert source_read
        params = make_params(graph)
        assert {packed, source} <= set(params)
        assert np.array_equal(params[packed], params[source].T)
        # both readers read the cell's weight
        session = _compile_session(_tied(), "Ours", faults=NO_FAULTS)
        request = session.make_inputs(1)
        same(serve_one(session, request),
             execute(session.graph, {**source_params(session.graph),
                                     **request}))

    def test_variants_share_the_base_programs_packs(self):
        program = lower(_shared())
        assert rebatch(program, 4).packs is program.packs
        assert symbolize(program, 2).packs is program.packs


# ---------------------------------------------------------------------------
# cell parameters: same bytes, read-only, freed with the cell
# ---------------------------------------------------------------------------


class TestCellParameters:
    @pytest.mark.parametrize("name", DENSE_MODELS)
    def test_packs_replace_their_sources_byte_for_byte(self, name):
        cell = run_cell(graph_of(name), "Ours")
        graph, program = cell.result.graph, lower(cell.result.graph)
        assert program.packs and not any(r for _, _, r in program.packs)
        sources = source_params(graph)
        params = cell.params
        assert sum(v.nbytes for v in params.values()) \
            == sum(v.nbytes for v in sources.values())
        for packed, source, _ in program.packs:
            assert source not in params
            assert not params[packed].flags.writeable
            assert params[packed].flags.c_contiguous
            assert params[packed].tobytes() == pack(sources[source]).tobytes()

    def test_an_evicted_fingerprints_packs_are_freed(self, monkeypatch):
        monkeypatch.setattr(harness, "GRAPH_CACHE_CAPACITY", 2)
        session = _compile_session(_shared(), "Ours")
        serve_one(session, session.make_inputs(seed=0))
        serve_batch(session, [session.make_inputs(seed=s) for s in range(4)])
        refs = [weakref.ref(session._params[packed])
                for packed, _, _ in session.program.packs]
        assert refs
        del session
        gc.collect()
        assert all(ref() is not None for ref in refs)  # the cell owns them
        for index in range(2):
            run_cell(_wide(20 + index), "Ours")
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


def _wide(width):
    b = GraphBuilder("wide")
    x = b.input("x", (1, 8, 16))
    b.output(b.dense(b.dense(x, width), 16))
    return b.finish()


# ---------------------------------------------------------------------------
# the matrix: every route, byte-identical
# ---------------------------------------------------------------------------


class TestRouteMatrix:
    @pytest.mark.parametrize("name", DENSE_MODELS)
    def test_every_route_is_byte_identical(self, name):
        session = session_of(name)
        graph, program = session.graph, session.program
        stackable = analyze(program).stackable
        sizes = (2,) if name in HEAVY else (4, 16)
        requests = [session.make_inputs(seed=s) for s in range(max(sizes))]

        # cell params: the reference route
        want = [serve_one(session, dict(r)) for r in requests]

        # un-lowered and source-keyed routes pack per call
        full = {**source_params(graph), **requests[0]}
        same(execute(graph, full), want[0], "executor.execute")
        values = dict(full)
        for node in graph.topo_order():
            run_node(graph, node, values)
        same({k: values[k] for k in graph.outputs}, want[0], "run_node")

        # stacked == solo
        for size in sizes:
            outs = serve_batch(session, [dict(r) for r in requests[:size]])
            assert session.stats.runs[-1].batched == stackable
            for got, ref in zip(outs, want):
                same(got, ref, f"stacked batch-{size}")

        # symbolic extent == a concrete compile at that extent
        if stackable:
            extent = analyze(program).batch_extent * 2
            symbolic = session_of(
                name, max_extent=extent, signature={
                    t: (None,) + tuple(graph.shape(t))[1:]
                    for t in graph.inputs})
            concrete = _compile_session(graph_of(name, batch=2), "Ours",
                                        faults=NO_FAULTS)
            inputs = concrete.make_inputs(seed=5)
            got = symbolic.execute_values(
                [_admit(symbolic, inputs)])[0][0][0]
            # the reference reads the symbolic session's own weights
            ref = concrete.execute_values(
                [{**symbolic._params, **inputs}])[0][0][0]
            same(got, ref, "symbolic")

        # parallel == in-process
        if parallel_supported():
            parallel = session_of(name, backend="parallel", workers=2)
            parallel.parallel_capacity = sizes[-1]
            try:
                outs = serve_batch(
                    parallel, [dict(r) for r in requests[:sizes[-1]]])
                assert parallel._parallel_pool is not None
            finally:
                parallel.close()
            for got, ref in zip(outs, want):
                same(got, ref, "parallel")

    def test_vit_m1_head_dense_78(self):
        """The regression the prototype tripped on: ViT's classifier head
        is an M=1 GEMM, where no-transpose and transposed-operand sgemm
        disagree - every route must read the packed operand."""
        session = session_of("ViT")
        head = session.program.steps[-1]
        assert head.out_names == ("dense_78",) and head.kernel is dense_packed
        rows = session.graph.shape(head.arg_names[0])[:-1]
        assert int(np.prod(rows)) == 1
        want = execute(session.graph, make_inputs(session.graph, seed=0))
        request = session.make_inputs(seed=0)
        same(serve_one(session, request), want, "cell params")


# ---------------------------------------------------------------------------
# overrides are refused, packs are computed once
# ---------------------------------------------------------------------------


class TestOverridesAndCounts:
    def test_a_packed_operand_is_refused_at_admission(self):
        first = session_of("Pythia")
        admitted = _admit(first, first.make_inputs(seed=2))
        clear_cell_cache()
        second = session_of("Pythia")
        assert second._params is not first._params
        request = second.make_inputs(seed=2)
        again = _admit(second, request)
        for packed, _, _ in second.program.packs:
            assert again[packed] is second._params[packed]
            with pytest.raises(ValueError, match=re.escape(
                    f"unknown input tensor {packed!r}")):
                _admit(second, {**request, packed: admitted[packed]})

    def test_each_weight_is_packed_once_per_cell(self, monkeypatch):
        packed_shapes = []
        original = np.ascontiguousarray

        def counting(array, *args, **kwargs):
            if array.ndim == 2 and not array.flags.c_contiguous:
                packed_shapes.append(array.shape)
            return original(array, *args, **kwargs)

        monkeypatch.setattr(kernels.np, "ascontiguousarray", counting)
        backends = ["numpy", "numpy"]
        if parallel_supported():
            backends.append("parallel")
        sessions = [session_of("Pythia", backend=b, workers=2)
                    for b in backends]
        graph = sessions[0].graph
        sessions.append(session_of("Pythia", max_extent=4, signature={
            t: (None,) + tuple(graph.shape(t))[1:] for t in graph.inputs}))
        try:
            for session in sessions:
                requests = [session.make_inputs(seed=s) for s in range(16)]
                serve_one(session, dict(requests[0]))
                serve_batch(session, [dict(r) for r in requests[:4]])
                serve_batch(session, [dict(r) for r in requests])
            wide = {name: np.resize(value, (3,) + value.shape[1:])
                    for name, value in requests[0].items()}
            serve_one(sessions[-1], wide)
        finally:
            for session in sessions:
                session.close()
        program = sessions[0].program
        assert all(s.program is program for s in sessions)
        assert sorted(packed_shapes) == sorted(
            tuple(graph.shape(source))[::-1]
            for _, source, _ in program.packs)


def _best(fn, repeats):
    perf = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        start = perf()
        fn()
        best = min(best, perf() - start)
    return best


def test_dense_steps_cost_what_their_gemms_cost():
    """Conformer medium (the ``kernel_open`` model), one solo pass: the
    summed ``dense`` step wall is at most 1.5x the summed bare
    ``np.matmul(x, w_kn, out=...)`` wall at the same shapes - same
    process, interleaved, best-of-N each; a ratio, not a wall.  It read
    2.6x on a transposed weight view, ~1.4x on the packed operand (the
    rest is the bias add and one closure call per step)."""
    session = session_of(MEDIUM)
    program = session.program
    values = _admit(session, session.make_inputs())
    step_s = bare_s = 0.0
    for step, (execute, drops) in zip(program.steps, program.op_list):
        execute(values)
        if step.op_type == "dense":
            x, w_kn = (values[name] for name in step.arg_names[:2])
            for idx, view in step.views:
                if idx == 0:
                    x = view.apply(x)
            out = np.empty_like(values[step.out_names[0]])
            step_s += _best(lambda: execute(values), 100)
            bare_s += _best(lambda: np.matmul(x, w_kn, out=out), 100)
        for name in drops:
            values.pop(name, None)
    assert step_s <= 1.5 * bare_s, (
        f"dense steps cost {step_s / bare_s:.2f}x their bare GEMMs: the "
        f"weight is not read in the GEMM's layout")
