"""In-place epilogues: ``lower()`` decides once which operand a step owns.

A ``unary`` / ``binary`` / ``batchnorm`` step that owns an input array
(``Step.owned``) is bound to a kernel that writes its result into that
array instead of allocating one.  The emitted runner calls that bound
kernel, so the contract is that owning changes no byte anywhere:

* every in-place recipe equals its reference kernel bytewise (values,
  dtype and layout), inf/NaN/-0.0 included, on float32 and float16;
* the ownership rule never hands a step an array something else can
  still read - not even one that dies at the step while a live
  reshape/transpose view aliases it;
* a batch variant whose owned operand is not batched falls back to the
  reference kernel (the write would have to grow the operand);
* over the zoo, each owned step's kernel returns its operand object, each
  kernel declared fresh returns memory no argument holds, and outputs
  equal the same program with every step back on its reference kernel;
* a process-pool request degraded to the in-process runner by an
  injected compile failure, after earlier requests wrote in place,
  replays byte-identically.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.ir import GraphBuilder
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import FaultPlan, FaultRule, get_backend, lower
from repro.runtime import parallel_backend as pb
from repro.runtime.batching import analyze, bucket, rebatch, symbolize
from repro.runtime.executor import make_inputs
from repro.runtime.kernels import (
    _BINARY_INTO, _UNARY_INTO, batchnorm, binary, bind_in_place, get_kernel,
    returns_fresh, unary,
)
from repro.runtime.program import ExecutionProgram
from repro.runtime.session import _compile_session

from front_door import serve_batch, serve_one

NO_FAULTS = FaultPlan()  # explicit empty plan: overrides ambient chaos
DTYPES = (np.float32, np.float16)
CONFORMER_MEDIUM = dict(frames=64, mels=80, dim=96, depth=2, heads=4)


def operand(dtype, shape=(6, 8), seed=0):
    """Random values with inf, -inf, NaN, +-0.0 and overflow-sized
    entries planted first (as many as fit)."""
    x = np.random.default_rng(seed).normal(0, 3, shape).astype(dtype)
    special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 80.0, -80.0,
                        6.0], dtype=dtype)[:x.size]
    x.reshape(-1)[:len(special)] = special
    return x


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides  # same layout, not only values
    assert got.tobytes() == want.tobytes()


def unowned(program: ExecutionProgram) -> ExecutionProgram:
    """``program`` with every owned step back on its reference kernel:
    the allocate-everything oracle in-place execution must equal."""
    steps = tuple(
        replace(step, kernel=get_kernel(step.op_type), owned=None)
        if step.owned is not None else step for step in program.steps)
    return ExecutionProgram(program.graph, steps, program.slot_plan,
                            fused_chains=program.fused_chains,
                            packs=program.packs)


def walk(program, values):
    """Run ``program`` step by step as its emitted runner does, yielding
    ``(step, kernel arguments, result)``."""
    program.bind_packs(values)
    for step in program.steps:
        args = [values[name] for name in step.arg_names]
        for idx, view in step.views:
            args[idx] = view.apply(args[idx])
        result = step.kernel(args, step.attrs)
        outs = result if len(step.out_names) > 1 else (
            result[0] if type(result) in (tuple, list) else result,)
        values.update(zip(step.out_names, outs))
        yield step, args, outs[0]
        for name in step.drops:
            values.pop(name, None)


# ---------------------------------------------------------------------------
# the recipe table
# ---------------------------------------------------------------------------


class TestRecipes:
    def test_the_table(self):
        assert set(_UNARY_INTO) == {"relu", "relu6", "tanh", "exp", "neg",
                                    "abs", "sqrt", "silu", "sigmoid",
                                    "gelu"}
        assert _BINARY_INTO == {"add", "sub", "mul", "div", "maximum",
                                "minimum"}

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("func", sorted(_UNARY_INTO))
    def test_unary_equals_reference(self, func, dtype):
        attrs = {"func": func}
        x = operand(dtype)
        with np.errstate(all="ignore"):
            want = unary([x], attrs)
            into = x.copy()
            got = bind_in_place("unary", attrs, 0, x.ndim)([into], attrs)
        assert got is into
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("owned", (0, 1))
    @pytest.mark.parametrize("func", sorted(_BINARY_INTO))
    def test_binary_equals_reference(self, func, owned, dtype):
        attrs = {"func": func}
        kernel = bind_in_place("binary", attrs, owned, 2)
        full = operand(dtype, seed=1)
        others = (operand(dtype, seed=2),                # same shape
                  operand(dtype, (1, 8), seed=3),        # broadcast row
                  np.asfortranarray(operand(dtype, seed=4)))  # other order
        for other in others:
            pair = [full, other] if owned == 0 else [other, full]
            with np.errstate(all="ignore"):
                want = binary(pair, attrs)
                args = [a.copy(order="K") for a in pair]
                got = kernel(args, attrs)
            assert got is args[owned]
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("func", sorted(_BINARY_INTO))
    def test_binary_keeps_the_reference_layout_off_c_order(self, func):
        # An owned operand in another order (computed from a transposed
        # view) would hand the consumer a layout the reference never
        # produces: the kernel allocates like the reference instead.
        attrs = {"func": func}
        into = np.asfortranarray(operand(np.float32, seed=5))
        other = operand(np.float32, seed=6)
        before = into.copy(order="K")
        with np.errstate(all="ignore"):
            want = binary([into, other], attrs)
            got = bind_in_place("binary", attrs, 0, 2)([into, other], attrs)
        assert got is not into
        assert_same_bytes(got, want)
        assert_same_bytes(into, before)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (4, 3), (3,)])
    @pytest.mark.parametrize("arity", (1, 2, 3))
    def test_batchnorm_equals_reference(self, arity, shape, dtype):
        x = operand(dtype, shape, seed=7)
        params = [operand(dtype, (3,), seed=s) for s in (8, 9)][:arity - 1]
        with np.errstate(all="ignore"):
            want = batchnorm([x, *params], {})
            into = x.copy()
            got = bind_in_place("batchnorm", {}, 0, len(shape))(
                [into, *params], {})
        assert got is into
        assert_same_bytes(got, want)

    @pytest.mark.parametrize("op, attrs, owned", [
        ("unary", {"func": "rsqrt"}, 0),
        ("unary", {"func": "erf"}, 0),
        ("unary", {"func": "identity"}, 0),
        ("unary", {"func": "hardswish"}, 0),
        ("binary", {"func": "pow"}, 0),
        ("batchnorm", {}, 1),
        ("layernorm", {}, 0),
        ("dense", {}, 0),
    ])
    def test_no_recipe_no_binding(self, op, attrs, owned):
        assert bind_in_place(op, attrs, owned, 2) is None


# ---------------------------------------------------------------------------
# the ownership rule: hazards
# ---------------------------------------------------------------------------


def _aliased_graph():
    """``d`` dies at ``relu(d)`` while ``v``, a reshape view of ``d``
    taken earlier, is still live and read afterwards."""
    b = GraphBuilder("aliased")
    x = b.input("x", (4, 8))
    d = b.relu(x)
    v = b.reshape(d, (8, 4))
    y = b.relu(d)
    b.output(b.add(y, b.reshape(v, (4, 8))))
    return b.finish()


def _assert_matches_oracle(graph, program):
    inputs = make_inputs(graph, seed=1)
    want = get_backend("numpy").run(unowned(program), dict(inputs))
    got = get_backend("numpy").run(program, dict(inputs))
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


class TestOwnershipRule:
    def test_a_value_a_live_view_aliases_is_never_owned(self):
        graph = _aliased_graph()
        program = lower(graph)
        owned = {step.node_id: step.owned for step in program.steps
                 if step.op_type in ("unary", "binary")}
        relu_d = next(step for step in program.steps
                      if step.op_type == "unary"
                      and graph.producer(step.arg_names[0]) is not None)
        # d dies at relu(d), but its reshape view is still to be read
        assert relu_d.owned is None
        assert list(owned.values()).count(0) == 1  # only the final add
        _assert_matches_oracle(graph, program)

    def test_graph_inputs_and_outputs_are_never_owned(self):
        b = GraphBuilder("edges")
        x = b.input("x", (4, 8))
        d = b.relu(x)           # reads a graph input
        b.output(d)
        b.output(b.silu(d))     # reads a graph output
        graph = b.finish()
        program = lower(graph)
        assert [step.owned for step in program.steps] == [None, None]
        _assert_matches_oracle(graph, program)

    def test_a_window_model_matches_its_oracle(self):
        # Swin reads its windows through reshape/transpose views: with a
        # "dies at this step" rule, in-place writes corrupt live views.
        graph = build("Swin", **SMOKE_CONFIGS["Swin"])
        session = _compile_session(graph, "Ours", faults=NO_FAULTS)
        program = session.program
        assert any(step.owned is not None for step in program.steps)
        _assert_matches_oracle(program.graph, program)


# ---------------------------------------------------------------------------
# variants: a non-batched owned operand falls back
# ---------------------------------------------------------------------------


def _broadcast_graph(batch):
    """``relu(p)`` - a fresh parameter subexpression - is added to the
    batched ``x``: at batch 1 the add owns it."""
    b = GraphBuilder("param_owned")
    x = b.input("x", (batch, 8))
    q = b.relu(b.param((1, 8), "p"))
    b.output(b.relu(b.add(x, q)))
    return b.finish()


def _add_step(program):
    return next(i for i, step in enumerate(program.steps)
                if step.op_type == "binary")


class TestVariantOwnership:
    def test_rebatch_falls_back_and_matches_solo(self):
        session = _compile_session(_broadcast_graph(1), "Ours",
                                   faults=NO_FAULTS)
        program = session.program
        add = _add_step(program)
        assert program.steps[add].owned == 1
        assert analyze(program).stackable
        variant = rebatch(program, bucket(3))
        assert variant.steps[add].owned is None
        assert variant.steps[add].kernel is get_kernel("binary")
        # the relu after it owns a batched value: still in place
        assert variant.steps[add + 1].owned == 0
        batch = [session.make_inputs(seed=s) for s in (1, 2, 3)]
        stacked = serve_batch(session, [dict(values) for values in batch])
        assert all(run.batched for run in session.stats.runs)
        for values, got in zip(batch, stacked):
            want = serve_one(session, dict(values))
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()

    def test_symbolize_falls_back_and_matches_concrete(self):
        graph = _broadcast_graph(1)
        session = _compile_session(
            graph, "Ours", faults=NO_FAULTS,
            signature={"x": (None, 8)}, max_extent=4)
        add = _add_step(session.program)
        for factor in (1, 2, 4):
            step = symbolize(session.program, factor).steps[add]
            assert step.owned is None
            assert step.kernel is get_kernel("binary")
        for extent in range(1, 5):
            concrete = _compile_session(_broadcast_graph(extent), "Ours",
                                        faults=NO_FAULTS)
            inputs = concrete.make_inputs(seed=extent)
            # parameters are seeded by graph content: the reference
            # reads the symbolic session's own
            want = concrete.execute_values(
                [{**session._params, **inputs}])[0][0][0]
            got = serve_one(session, dict(inputs))
            for name in want:
                assert got[name].tobytes() == want[name].tobytes()


# ---------------------------------------------------------------------------
# the zoo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
def test_zoo_owned_steps_write_in_place(name):
    graph = build(name, **SMOKE_CONFIGS[name])
    program = _compile_session(graph, "Ours", faults=NO_FAULTS).program
    inputs = make_inputs(program.graph, seed=1)
    for step, args, out in walk(program, dict(inputs)):
        if step.owned is not None:
            into = args[step.owned]
            # the one exception: a binary operand in another order
            # allocates, to keep the reference's layout
            assert (out is into) == (step.op_type != "binary"
                                     or into.flags.c_contiguous)
            others = [a for i, a in enumerate(args) if i != step.owned]
        elif returns_fresh(step.kernel):
            others = args
        else:
            continue
        assert not any(np.may_share_memory(out, a) for a in others), \
            step.node_id
    want = get_backend("numpy").run(unowned(program), dict(inputs))
    got = get_backend("numpy").run(program, dict(inputs))
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), key


def test_conformer_medium_owns_26_of_28_epilogues():
    graph = build("Conformer", **CONFORMER_MEDIUM)
    program = _compile_session(graph, "Ours", faults=NO_FAULTS).program
    epilogues = [step for step in program.steps
                 if step.op_type in ("unary", "binary", "batchnorm")]
    owned = [step.owned for step in epilogues if step.owned is not None]
    # the two unowned are the GLU sigmoids reading a sliced view of a
    # GEMM result that the gating multiply reads too
    assert (len(epilogues), len(owned), owned.count(1)) == (28, 26, 10)


# ---------------------------------------------------------------------------
# degradation replays in-place programs byte-identically
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan", [
    FaultPlan((FaultRule(kind="worker_crash", after=1, times=None),)),
    None,  # the ambient plan: REPRO_FAULT_SEED's chaos, or none
], ids=["worker-crash-after-first", "ambient"])
@pytest.mark.parametrize("name", ["Conformer", "Swin"])
def test_degraded_pool_replays_in_place_byte_identically(name, plan,
                                                        monkeypatch):
    if plan is not None:
        # No respawn budget: every lost shard is rescued in-process.  The
        # ambient case keeps the default budget, so chaos re-dispatches.
        monkeypatch.setattr(pb, "_MAX_SHARD_RETRIES", 0)
    graph = build(name, **SMOKE_CONFIGS[name])
    clean = _compile_session(graph, "Ours", faults=NO_FAULTS)
    chaotic = _compile_session(graph, "Ours", backend="parallel",
                               workers=1, faults=plan)
    try:
        batch = [chaotic.make_inputs(seed=s) for s in range(3)]
        outputs = [serve_one(chaotic, dict(values)) for values in batch]
        outputs += serve_batch(chaotic, [dict(values) for values in batch])
        if plan is not None and pb.parallel_supported():
            # the first request wrote in place in a worker; every later
            # invocation lost its worker and replayed in-process
            assert chaotic.stats.fallbacks == 3
        for values, got in zip(batch + batch, outputs):
            want = serve_one(clean, dict(values))
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), key
    finally:
        chaotic.close()
