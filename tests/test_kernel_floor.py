"""Tests for the kernel-floor work: runner/timing-walk parity, the
GEMM-shaped conv2d with slot-plan scratch, and the roofline stamps.

The parity contract is two-tiered, matching how the kernels compose:

* paths sharing ONE conv implementation (the emitted runner vs the
  per-step timing walk, solo vs stacked, bound vs unbound scratch) must
  agree BYTE-FOR-BYTE;
* the GEMM conv vs the einsum reference agree to float tolerance only
  (BLAS and einsum accumulate float32 sums in different orders).
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import smartmem_optimize
from repro.ir import GraphBuilder
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import get_backend, lower, make_inputs, run_node
from repro.runtime.batching import analyze, rebatch
from repro.runtime.faults import FaultPlan
from repro.runtime.kernels import (
    ConvScratch, _arena_cols, _pair, arena_bytes, bind_conv2d, conv2d_gemm,
    get_kernel, layout_convert_elided,
)
from repro.runtime import parallel_backend as pb
from repro.runtime.session import _compile_session

from front_door import serve_batch, serve_one
from repro.runtime.traffic import FAMILIES, family, roofline_summary

# ---------------------------------------------------------------------------
# GEMM-shaped conv2d
# ---------------------------------------------------------------------------


def conv2d_reference(inputs, attrs):
    """Pre-GEMM reference conv2d (per-tap Python im2col + einsum).

    The parity oracle for the GEMM path: the im2col columns it gathers
    are byte-identical to ``kernels._im2col``'s, while the contraction
    (einsum vs. BLAS matmul) agrees to float tolerance only - which is
    why zoo-wide byte-identity is asserted across backends/batching (all
    sharing one kernel), and GEMM-vs-reference is asserted via allclose.
    """
    x, w = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    groups = int(attrs.get("groups", 1))
    sh, sw = _pair(attrs.get("stride", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    dh, dw = _pair(attrs.get("dilation", 1))
    n, c, h, wd = x.shape
    oc, cpg, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - (dh * (kh - 1) + 1)) // sh + 1
    ow = (wd + 2 * pw - (dw * (kw - 1) + 1)) // sw + 1
    ocpg = oc // groups
    out = np.zeros((n, oc, oh, ow), dtype=x.dtype)
    # im2col per group
    for g in range(groups):
        xg = xp[:, g * cpg:(g + 1) * cpg]
        cols = np.empty((n, cpg * kh * kw, oh * ow), dtype=x.dtype)
        col = 0
        for ci in range(cpg):
            for ki in range(kh):
                for kj in range(kw):
                    patch = xg[:, ci,
                               ki * dh: ki * dh + oh * sh: sh,
                               kj * dw: kj * dw + ow * sw: sw]
                    cols[:, col] = patch.reshape(n, -1)
                    col += 1
        wg = w[g * ocpg:(g + 1) * ocpg].reshape(ocpg, -1)
        res = np.einsum("ok,nkp->nop", wg, cols)
        out[:, g * ocpg:(g + 1) * ocpg] = res.reshape(n, ocpg, oh, ow)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    return out


#: (x_shape, w_shape, attrs) grid covering stride / padding / dilation /
#: groups, including the ViT-patchify and Conformer-depthwise regimes.
CONV_CASES = [
    ((1, 3, 16, 16), (8, 3, 3, 3), {"stride": 1, "padding": 1}),
    ((2, 4, 9, 9), (6, 4, 3, 3), {"stride": 2, "padding": 0}),
    ((1, 4, 12, 12), (8, 4, 3, 3), {"stride": 1, "padding": 2,
                                    "dilation": 2}),
    ((1, 8, 10, 10), (8, 1, 3, 3), {"groups": 8, "padding": 1}),  # depthwise
    ((1, 6, 8, 8), (12, 3, 1, 1), {"groups": 2}),                 # grouped 1x1
    ((1, 3, 32, 32), (48, 3, 16, 16), {"stride": 16}),            # patchify
    ((2, 5, 7, 11), (10, 5, 2, 4), {"stride": (2, 1),
                                    "padding": (1, 2)}),          # asymmetric
    ((1, 96, 16, 1), (96, 1, 31, 1), {"padding": (15, 0),
                                      "groups": 96}),     # Conformer medium
    ((1, 4, 8, 8), (8, 1, 3, 3), {"groups": 4,
                                  "padding": 1}),         # channel multiplier
    ((1, 6, 13, 13), (6, 3, 3, 3), {"groups": 2, "stride": 2,
                                    "dilation": 2, "padding": 2}),
    ((3, 6, 8, 8), (12, 3, 3, 3), {"groups": 2, "padding": 1}),
    ((16, 8, 6, 6), (8, 1, 3, 3), {"groups": 8, "padding": 1}),
]

#: the grouped half of the grid, re-run in half precision
GROUPED_CASES = [case for case in CONV_CASES if case[2].get("groups", 1) > 1]


def _conv_inputs(x_shape, w_shape, bias, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(x_shape).astype(dtype),
              rng.standard_normal(w_shape).astype(dtype)]
    if bias:
        inputs.append(rng.standard_normal(w_shape[0]).astype(dtype))
    return inputs


def _conv2d_group_loop(inputs, attrs):
    """The per-group loop ``conv2d_gemm`` used to run: one window gather
    and one GEMM per group, on the operand bytes the batched matmul sees.
    Lives here as the byte-identity oracle for the single-gather path."""
    x, w = inputs[0], inputs[1]
    groups = int(attrs.get("groups", 1))
    sh, sw = np.broadcast_to(attrs.get("stride", 1), 2)
    ph, pw = np.broadcast_to(attrs.get("padding", 0), 2)
    dh, dw = np.broadcast_to(attrs.get("dilation", 1), 2)
    (n, _, h, wd), (oc, cpg, kh, kw) = x.shape, w.shape
    oh = (h + 2 * ph - (dh * (kh - 1) + 1)) // sh + 1
    ow = (wd + 2 * pw - (dw * (kw - 1) + 1)) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    s0, s1, s2, s3 = xp.strides
    ocpg = oc // groups
    cols = np.empty((n, cpg * kh * kw, oh * ow), dtype=x.dtype)
    out = np.empty((n, oc, oh * ow), dtype=x.dtype)
    for g in range(groups):
        patches = np.lib.stride_tricks.as_strided(
            xp[:, g * cpg:(g + 1) * cpg], (n, cpg, kh, kw, oh, ow),
            (s0, s1, s2 * dh, s3 * dw, s2 * sh, s3 * sw))
        np.copyto(cols.reshape(n, cpg, kh, kw, oh, ow), patches)
        np.matmul(w[g * ocpg:(g + 1) * ocpg].reshape(ocpg, -1), cols,
                  out=out[:, g * ocpg:(g + 1) * ocpg])
    out = out.reshape(n, oc, oh, ow)
    if len(inputs) > 2:
        out += inputs[2].reshape(1, -1, 1, 1)
    return out


@pytest.mark.parametrize("x_shape,w_shape,attrs", CONV_CASES)
@pytest.mark.parametrize("bias", [False, True])
class TestConvGemm:
    def test_matches_einsum_reference_to_tolerance(self, x_shape, w_shape,
                                                   attrs, bias):
        inputs = _conv_inputs(x_shape, w_shape, bias)
        got = conv2d_gemm(inputs, attrs)
        ref = conv2d_reference(inputs, attrs)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.allclose(ref, got, rtol=1e-3, atol=1e-4)

    def test_registered_and_bound_kernels_match_the_oracle(
            self, x_shape, w_shape, attrs, bias):
        # nothing reroutes conv2d: the registered kernel IS the GEMM one,
        # and it and every lowered step's closure agree with the oracle
        registered = get_kernel("conv2d")
        assert registered is conv2d_gemm
        bound, _ = bind_conv2d(x_shape, w_shape, attrs)
        inputs = _conv_inputs(x_shape, w_shape, bias)
        want = conv2d_reference(inputs, attrs)
        for kernel in (registered, bound):
            got = kernel(inputs, attrs)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.allclose(want, got, rtol=1e-3, atol=1e-4)

    def test_matches_per_group_loop_byte_for_byte(self, x_shape, w_shape,
                                                  attrs, bias):
        inputs = _conv_inputs(x_shape, w_shape, bias)
        got = conv2d_gemm(inputs, attrs)
        want = _conv2d_group_loop(inputs, attrs)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_bound_scratch_is_byte_identical_and_reusable(self, x_shape,
                                                          w_shape, attrs,
                                                          bias):
        bound, scratch = bind_conv2d(x_shape, w_shape, attrs)
        inputs = _conv_inputs(x_shape, w_shape, bias)
        unbound = conv2d_gemm(inputs, attrs)
        first = bound(inputs, attrs)
        assert np.array_equal(first, unbound)
        # scratch reuse across runs: a different input in between must
        # not leak into a repeated run (the padded halo stays zero)
        bound(_conv_inputs(x_shape, w_shape, bias, seed=7), attrs)
        again = bound(inputs, attrs)
        assert np.array_equal(again, first)

    def test_strided_input_matches_contiguous(self, x_shape, w_shape,
                                              attrs, bias):
        # as_strided im2col must work on non-contiguous inputs (e.g. a
        # transposed or sliced upstream value) byte-for-byte
        inputs = _conv_inputs(x_shape, w_shape, bias)
        n, c, h, w = x_shape
        big = np.zeros((n, c, h, 2 * w), dtype=np.float32)
        big[:, :, :, ::2] = inputs[0]
        strided = big[:, :, :, ::2]
        assert not strided.flags.c_contiguous
        ref = conv2d_gemm(inputs, attrs)
        got = conv2d_gemm([strided] + inputs[1:], attrs)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("x_shape,w_shape,attrs", GROUPED_CASES)
def test_float16_grouped_conv(x_shape, w_shape, attrs):
    inputs = _conv_inputs(x_shape, w_shape, bias=True, dtype=np.float16)
    got = conv2d_gemm(inputs, attrs)
    assert got.dtype == np.float16
    assert np.array_equal(got, _conv2d_group_loop(inputs, attrs))
    ref = conv2d_reference([a.astype(np.float32) for a in inputs], attrs)
    assert np.allclose(ref, got, rtol=2e-2, atol=2e-2)


@pytest.mark.parametrize("groups", [1, 2, 96])
def test_one_gather_and_one_matmul_whatever_the_groups(monkeypatch, groups):
    # the structural perf guard: the numpy-call count of a conv does not
    # scale with ``groups`` (the per-group Python loop was 4 calls each)
    inputs = _conv_inputs((2, 96, 16, 1), (96, 96 // groups, 31, 1),
                          bias=True)
    attrs = {"padding": (15, 0), "groups": groups}
    bound, _ = bind_conv2d(inputs[0].shape, inputs[1].shape, attrs)
    bound(inputs, attrs)  # allocate this thread's buffers first
    calls = {"matmul": 0, "copyto": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, counting)
    bound(inputs, attrs)
    assert calls == {"matmul": 1, "copyto": 1}


def _in_thread(fn, timeout=60):
    """Run ``fn`` on a brand-new thread and return its result."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestConvScratch:
    def test_plan_sizes_padded_and_cols(self):
        scratch = ConvScratch.plan((1, 3, 16, 16), (8, 3, 3, 3),
                                   {"padding": 1})
        assert scratch.pad_shape == (1, 3, 18, 18)
        assert scratch.cols_shape == (1, 27, 256)
        assert scratch.pad_bytes(4) == 4 * 3 * 18 * 18
        assert scratch.cols_bytes(4) == 4 * 27 * 256
        unpadded = ConvScratch.plan((1, 3, 16, 16), (8, 3, 3, 3), {})
        assert unpadded.pad_shape is None
        assert unpadded.pad_bytes(4) == 0
        assert unpadded.cols_bytes(4) == 4 * 27 * 14 * 14
        # the columns hold every group's taps: one gather serves them all
        grouped = ConvScratch.plan((2, 96, 16, 1), (96, 1, 31, 1),
                                   {"padding": (15, 0), "groups": 96})
        assert grouped.cols_shape == (2, 96 * 31, 16)

    def test_buffers_are_thread_local(self):
        scratch = ConvScratch.plan((1, 3, 8, 8), (4, 3, 3, 3),
                                   {"padding": 1})
        dtype = np.dtype(np.float32)

        def buffers():
            return (scratch.padded(dtype, 1),
                    _arena_cols(scratch.cols_shape, dtype))

        mine = buffers()
        theirs = _in_thread(buffers)
        for ours, other in zip(mine, theirs):
            assert not np.shares_memory(ours, other)
        # the same thread gets (fresh views of) the same memory back
        for ours, again in zip(mine, buffers()):
            assert np.shares_memory(ours, again)

    def test_arena_is_shared_across_steps_and_only_grows(self):
        dtype = np.dtype(np.float32)

        def grow():
            assert arena_bytes() == 0
            small = _arena_cols((1, 4, 9), dtype)
            assert arena_bytes() == small.nbytes
            big = _arena_cols((2, 27, 64), dtype)
            assert arena_bytes() == big.nbytes
            # a smaller (or other-dtype) request reuses the grown buffer
            half = _arena_cols((1, 4, 9), np.dtype(np.float16))
            assert np.shares_memory(half, big)
            return arena_bytes() == big.nbytes

        assert _in_thread(grow)

    def test_lowering_owns_the_scratch_sizes(self):
        graph = build("ResNet50", **SMOKE_CONFIGS["ResNet50"])
        program = lower(graph)
        convs = [step for step in program.steps if step.op_type == "conv2d"]
        assert convs and all(step.arena_bytes > 0 for step in convs)
        for step in convs:
            # padded convs own their halo buffer, unpadded ones nothing
            assert (step.scratch_bytes > 0) \
                == (step.kernel.scratch.pad_shape is not None)
            assert step.kernel.scratch.node_id == step.node_id
        padded = tuple(step.scratch_bytes for step in convs
                       if step.scratch_bytes)
        assert padded and len(padded) < len(convs)
        plan = program.slot_plan
        assert plan.scratch_sizes == padded
        assert plan.arena_bytes == max(step.arena_bytes for step in convs)
        assert plan.scratch_bytes == sum(padded) + plan.arena_bytes
        non_conv = [step for step in program.steps
                    if step.op_type != "conv2d"]
        assert all(step.scratch_bytes == 0 and step.arena_bytes == 0
                   for step in non_conv)

    @pytest.mark.parametrize("extent", [1, 2, 3, 5, 7])
    def test_extent_beyond_the_plan_runs_in_chunks(self, extent):
        # Planned at a leading extent of 2: any live extent runs on that
        # scratch, in chunks of 2 rows and a short last one, with the
        # bytes of one unchunked call.
        attrs = {"padding": 1, "groups": 3}
        x_shape, w_shape = (extent, 6, 8, 8), (6, 2, 3, 3)
        inputs = _conv_inputs(x_shape, w_shape, bias=True, seed=extent)
        expected = conv2d_gemm(inputs, attrs)

        def chunked():
            bound, scratch = bind_conv2d((2,) + x_shape[1:], w_shape, attrs,
                                         "conv_7")
            got = bound(inputs, attrs)
            held = scratch.held_bytes() + arena_bytes()
            return got, held, scratch.pad_bytes(4) + scratch.cols_bytes(4)

        got, held, planned = _in_thread(chunked)
        assert got.tobytes() == expected.tobytes()
        # never more than the plan; all of it once a full chunk ran
        assert held == planned if extent >= 2 else held < planned


class TestArenaSharing:
    """Every conv of every program borrows one per-thread arena; what a
    run returns must not depend on what else the thread (or another
    thread) ran in between."""

    GEOMETRIES = [
        ((3, 6, 8, 8), (12, 3, 3, 3), {"groups": 2, "padding": 1}),
        ((1, 96, 16, 1), (96, 1, 31, 1), {"padding": (15, 0),
                                          "groups": 96}),
    ]

    def _bound_cases(self):
        cases = []
        for x_shape, w_shape, attrs in self.GEOMETRIES:
            bound, _ = bind_conv2d(x_shape, w_shape, attrs)
            runs = [_conv_inputs(x_shape, w_shape, bias=True, seed=seed)
                    for seed in range(4)]
            serial = [bound(inputs, attrs).copy() for inputs in runs]
            cases.append((bound, attrs, runs, serial))
        return cases

    def test_one_thread_interleaving_two_geometries(self):
        first, second = self._bound_cases()
        for i in range(4):
            for bound, attrs, runs, serial in (first, second, first):
                assert np.array_equal(bound(runs[i], attrs), serial[i])

    def test_two_threads_on_different_geometries(self):
        cases = self._bound_cases()
        stop = threading.Event()
        rounds = 200

        def hammer(bound, attrs, runs, serial):
            for i in range(rounds):
                if stop.is_set():
                    return i
                j = i % len(runs)
                if not np.array_equal(bound(runs[j], attrs), serial[j]):
                    stop.set()
                    return -1
            return rounds

        done = {}
        threads = [
            threading.Thread(
                target=lambda k=k, case=case: done.__setitem__(
                    k, hammer(*case)))
            for k, case in enumerate(cases * 2)]  # more workers than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert done == {k: rounds for k in range(len(threads))}


def _stacked_inputs(graph, program):
    """``make_inputs`` widened to a bucket variant's bound extent."""
    inputs = {k: v for k, v in make_inputs(graph).items()
              if k in program.graph.tensors}
    if program.symbolic_extent is not None:
        for name in program.input_names:
            repeats = program.symbolic_extent // inputs[name].shape[0]
            inputs[name] = np.concatenate([inputs[name]] * repeats)
    return inputs


CONFORMER_MEDIUM = dict(frames=64, mels=80, dim=96, depth=2, heads=4)

#: every program whose conv geometries the chunked-conv tests walk: the
#: smoke zoo without its two conv-free language models, and the
#: ``kernel_open`` model
CONV_PROGRAMS = sorted(set(SMOKE_CONFIGS) - {"Pythia", "SD-TextEncoder"}) \
    + ["Conformer-medium"]


def _optimized_program(name):
    if name == "Conformer-medium":
        return lower(smartmem_optimize(
            build("Conformer", **CONFORMER_MEDIUM)).graph)
    return lower(smartmem_optimize(build(name, **SMOKE_CONFIGS[name])).graph)


def _conv_steps(program):
    """``(step, x_shape, w_shape)`` per conv2d step, distinct geometries
    only (the shapes its bound kernel reads, post-view)."""
    graph = program.graph
    seen, found = set(), []
    for step in program.steps:
        if step.op_type != "conv2d":
            continue
        chains = dict(step.views)
        x_shape, w_shape = (
            tuple(chains[i].out_shape) if i in chains
            else tuple(graph.shape(step.arg_names[i])) for i in (0, 1))
        key = (x_shape, w_shape, repr(sorted(step.attrs.items())),
               len(step.arg_names))
        if key not in seen:
            seen.add(key)
            found.append((step, x_shape, w_shape))
    return found


class TestChunkedConv:
    """A stacked conv runs on the step's solo scratch, in chunks of the
    planned extent; the bytes are those of each request run alone."""

    @pytest.mark.parametrize("name", CONV_PROGRAMS)
    def test_stacked_equals_solo_for_every_zoo_geometry(self, name):
        convs = _conv_steps(_optimized_program(name))
        assert convs
        rng = np.random.default_rng(0)
        for step, x_shape, w_shape in convs:
            bias = len(step.arg_names) > 2
            params = _conv_inputs(x_shape, w_shape, bias)[1:]
            for n in (3, 5, 16):
                rows = [rng.standard_normal(x_shape).astype(np.float32)
                        for _ in range(n)]
                stacked = step.kernel([np.concatenate(rows), *params],
                                      step.attrs)
                solo = np.concatenate([step.kernel([x, *params], step.attrs)
                                       for x in rows])
                assert stacked.tobytes() == solo.tobytes(), \
                    (name, step.node_id, n)

    @pytest.mark.parametrize("n", [3, 5, 16])
    def test_conformer_medium_stacked_equals_solo(self, n):
        graph = build("Conformer", **CONFORMER_MEDIUM)
        session = _compile_session(graph, "Ours", faults=FaultPlan())
        batch = [session.make_inputs(seed=s) for s in range(n)]
        outputs = serve_batch(session, [dict(b) for b in batch])
        assert all(run.batched for run in list(session.stats.runs)[-n:])
        for inputs, got in zip(batch, outputs):
            want = serve_one(session, dict(inputs))
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), key

    def test_every_bucket_of_conformer_medium_holds_the_solo_scratch(self):
        # The pinned fact: 470 544 B - the base plan's padded buffers
        # plus its widest column matrix - whatever buckets a thread has
        # run.  A variant with its own conv bindings, sized at its
        # bound, held 10 439 664 B here after all four buckets.
        program = _optimized_program("Conformer-medium")
        graph = build("Conformer", **CONFORMER_MEDIUM)
        variants = [rebatch(program, factor) for factor in (2, 4, 8, 16)]
        assert program.slot_plan.scratch_bytes == 470_544
        for variant in variants:
            assert variant.slot_plan.scratch_bytes == 470_544

        def run_every_bucket():
            backend = get_backend("numpy")
            for served in [program, *variants]:
                backend.run(served, _stacked_inputs(graph, served))
            kernels = {id(step.kernel): step.kernel for served in
                       [program, *variants] for step in served.steps
                       if step.op_type == "conv2d"}
            return arena_bytes() + sum(
                kernel.scratch.held_bytes() for kernel in kernels.values())

        assert _in_thread(run_every_bucket) == 470_544


class TestScratchAccountingIsReal:
    """``slot_plan.scratch_bytes`` is a claim about memory; check it
    against what a thread holds after running the program once."""

    @pytest.mark.parametrize("name,config,factor", [
        ("ResNet50", SMOKE_CONFIGS["ResNet50"], 1),
        ("Conformer", dict(frames=64, mels=80, dim=96, depth=2, heads=4), 1),
        ("Conformer", dict(frames=64, mels=80, dim=96, depth=2, heads=4), 4),
    ])
    def test_plan_equals_what_a_fresh_thread_holds(self, name, config,
                                                   factor):
        graph = build(name, **config)
        program = lower(smartmem_optimize(graph).graph)
        if factor > 1:
            program = rebatch(program, factor)
        inputs = _stacked_inputs(graph, program)

        def run_and_measure():
            assert arena_bytes() == 0
            get_backend("numpy").run(program, inputs)
            return arena_bytes() + sum(
                step.kernel.scratch.held_bytes() for step in program.steps
                if step.op_type == "conv2d")

        plan = program.slot_plan
        assert plan.arena_bytes > 0 and plan.scratch_sizes
        assert _in_thread(run_and_measure) == plan.scratch_bytes


# ---------------------------------------------------------------------------
# runner parity
# ---------------------------------------------------------------------------


def _timing_walk(program, values):
    """``program`` run through its per-step closures
    (``ExecutionProgram.op_list``), as the per-step timing walk runs it."""
    program.bind_packs(values)
    for execute, drops in program.op_list:
        execute(values)
        for name in drops:
            values.pop(name, None)
    return {name: values[name] for name in program.output_names}


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
class TestChainParity:
    """The emitted runner and the per-step timing walk agree
    byte-for-byte on the whole zoo - in-place epilogues, inlined
    relayouts, GEMM conv, and elided layout_converts included - so the
    walk times what requests run."""

    def test_runner_and_timing_walk_byte_identical(self, name):
        graph = build(name, **SMOKE_CONFIGS[name])
        runner = get_backend("numpy")
        for candidate in (graph, smartmem_optimize(graph).graph):
            inputs = {k: v for k, v in make_inputs(graph).items()
                      if k in candidate.tensors}
            program = lower(candidate)
            ref = _timing_walk(program, dict(inputs))
            got = runner.run(program, dict(inputs))
            for key in ref:
                assert np.array_equal(ref[key], got[key]), key


class TestStackedParity:
    @pytest.mark.parametrize("name", ["Pythia", "AutoFormer"])
    def test_run_batch_matches_solo(self, name):
        # AutoFormer covers conv-scratch rebinding in batch variants;
        # Pythia covers in-place epilogues under stacking
        graph = build(name, **SMOKE_CONFIGS[name])
        session = _compile_session(graph, "Ours")
        reference = _compile_session(graph, "Ours")
        assert analyze(session.program).stackable
        batch = [session.make_inputs(seed=s) for s in (1, 2, 3, 4)]
        outputs = serve_batch(session, [dict(b) for b in batch])
        assert all(run.batched for run in session.stats.runs)
        for inputs, out in zip(batch, outputs):
            ref = serve_one(reference, dict(inputs))
            for key in ref:
                assert np.array_equal(out[key], ref[key]), key

    def test_rebatch_scales_stamps_and_shares_scratch(self):
        graph = smartmem_optimize(
            build("AutoFormer", **SMOKE_CONFIGS["AutoFormer"])).graph
        program = lower(graph)
        variant = rebatch(program, 4)
        assert variant.fused_chains == program.fused_chains
        for base, scaled in zip(program.steps, variant.steps):
            assert scaled.bytes_read >= base.bytes_read
            assert scaled.flops >= base.flops
            if base.op_type == "conv2d":
                # the variant runs the base step's kernel, in chunks
                assert scaled.kernel is base.kernel
                assert scaled.scratch_bytes == base.scratch_bytes
                assert scaled.arena_bytes == base.arena_bytes > 0
        assert variant.slot_plan.scratch_sizes \
            == program.slot_plan.scratch_sizes
        assert variant.slot_plan.scratch_bytes \
            == program.slot_plan.scratch_bytes > 0


class TestChaosDegradation:
    # seeds whose chaos plan crashes a worker within three requests
    @pytest.mark.parametrize("chaos_seed", ["1", "7"])
    def test_fused_programs_degrade_as_a_unit(self, monkeypatch,
                                              chaos_seed):
        # under ambient chaos (REPRO_FAULT_SEED) a process-pool session
        # loses a worker mid-shard, and with no respawn budget the shard
        # runs in-process; outputs stay byte-identical to the clean
        # reference
        monkeypatch.setenv("REPRO_FAULT_SEED", chaos_seed)
        monkeypatch.setattr(pb, "_MAX_SHARD_RETRIES", 0)
        for name in ("Conformer", "AutoFormer"):
            graph = build(name, **SMOKE_CONFIGS[name])
            clean = _compile_session(graph, "Ours", faults=FaultPlan(()))
            chaotic = _compile_session(graph, "Ours", backend="parallel",
                                       workers=1)
            assert chaotic.faults is not None
            try:
                for seed in (0, 1, 2):
                    inputs = chaotic.make_inputs(seed=seed)
                    out = serve_one(chaotic, dict(inputs))
                    ref = serve_one(clean, dict(inputs))
                    for key in ref:
                        assert np.array_equal(out[key], ref[key]), key
                if pb.parallel_supported():
                    assert chaotic.parallel_restarts > 0
                    assert chaotic.stats.fallbacks > 0
            finally:
                chaotic.close()


# ---------------------------------------------------------------------------
# roofline stamps
# ---------------------------------------------------------------------------


class TestRooflineStamps:
    def test_steps_are_stamped_at_lowering(self):
        graph = build("Conformer", **SMOKE_CONFIGS["Conformer"])
        program = lower(graph)
        for step in program.steps:
            assert step.bytes_read > 0
            assert step.bytes_written > 0
            if step.op_type in ("conv2d", "matmul", "dense"):
                assert step.flops > 0

    def test_summary_aggregates_per_family(self):
        graph = build("ResNet50", **SMOKE_CONFIGS["ResNet50"])
        program = lower(graph)
        summary = program.roofline()
        assert program.roofline() is summary  # memoized
        assert set(summary) <= set(FAMILIES)
        assert summary["conv"]["flops"] > summary["elementwise"]["flops"]
        for key, entry in summary.items():
            moved = entry["bytes_read"] + entry["bytes_written"]
            count = sum(1 for step in program.steps
                        if family(step.op_type) == key)
            assert entry["steps"] == count
            assert entry["intensity"] \
                == pytest.approx(entry["flops"] / moved, abs=1e-3)
        # the summary is exactly the aggregation of the step stamps
        assert roofline_summary(program.steps) == summary

    def test_measured_report_puts_us_per_step_beside_intensity(self):
        from repro.bench.serving import measure_roofline

        entry = measure_roofline(("Conformer",), repeats=1)["models"][
            "Conformer"]
        assert {"conv", "gemm", "norm"} <= set(entry["families"])
        for fam in entry["families"].values():
            assert "intensity" in fam
            assert fam["us_per_step"] == pytest.approx(
                fam["time_ms"] * 1e3 / fam["steps"], abs=0.06)
            # static FLOPs over the same measured wall: what a
            # "BLAS-bound" reading is checked against
            assert fam["gflops_per_s"] == pytest.approx(
                fam["mflops"] / fam["time_ms"], rel=0.02, abs=0.02)
        assert entry["families"]["gemm"]["gflops_per_s"] > 0

    def test_measured_report_covers_every_smoke_model(self):
        from repro.bench.serving import measure_roofline

        models = measure_roofline(repeats=0)["models"]
        assert set(models) == set(SMOKE_CONFIGS)
        for name, entry in models.items():
            assert entry["families"] and entry["run_ms"] > 0, name

    def test_a_conv_step_costs_at_most_6_5x_a_gemm_step(self):
        # Same run, same process - a ratio, not a wall: the depthwise
        # conv must not pay Python dispatch per group again (~11x with
        # the per-group loop, ~4.4x with one gather + one batched
        # matmul, against a gemm step on the packed operand).
        from repro.bench.serving import measure_roofline

        families = measure_roofline(("Conformer",), repeats=20)["models"][
            "Conformer"]["families"]
        conv, gemm = (families[key]["us_per_step"]
                      for key in ("conv", "gemm"))
        assert conv <= 6.5 * gemm, (
            f"Conformer conv costs {conv / gemm:.1f}x a gemm step per "
            f"call: grouped conv is dispatch-bound")


# ---------------------------------------------------------------------------
# layout_convert copy elision
# ---------------------------------------------------------------------------


def _convert_graph(direct_from_input: bool):
    b = GraphBuilder("convert")
    x = b.input("x", (4, 8))
    src = x if direct_from_input else b.relu(x)
    y = b._emit("layout_convert", [src])
    b.output(b.relu(y))
    return b.finish()


class TestLayoutConvertElision:
    def test_graph_input_is_never_elided(self):
        program = lower(_convert_graph(direct_from_input=True))
        step = next(s for s in program.steps
                    if s.op_type == "layout_convert")
        # the caller's array must never be aliased: reference kernel
        assert step.kernel is not layout_convert_elided

    def test_dying_interior_is_elided_and_byte_identical(self):
        graph = _convert_graph(direct_from_input=False)
        program = lower(graph)
        step = next(s for s in program.steps
                    if s.op_type == "layout_convert")
        assert step.kernel is layout_convert_elided
        inputs = make_inputs(graph)
        ref = dict(inputs)
        for node in graph.topo_order():  # interpretation: no elision
            run_node(graph, node, ref)
        got = get_backend("numpy").run(program, dict(inputs))
        for key in graph.outputs:
            assert np.array_equal(ref[key], got[key])

    @pytest.mark.parametrize("op, attrs", [
        ("batchnorm", {}), ("unary", {"func": "identity"}),
        ("layout_convert", {})])
    def test_reference_identities_copy(self, op, attrs):
        # a registered kernel never returns (a view of) the caller's
        # array - only the lowering-bound elided kernel passes through
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = get_kernel(op)([x], attrs)
        assert np.array_equal(out, x)
        assert not np.shares_memory(out, x)

    def test_elided_kernel_passes_contiguous_through(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert layout_convert_elided([x], {}) is x
        strided = x[:, ::2]
        out = layout_convert_elided([strided], {})
        assert out is not strided and out.flags.c_contiguous
        assert np.array_equal(out, strided)
