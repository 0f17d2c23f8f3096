"""Tests for the lowered ExecutionProgram + pluggable backend layer."""

import hashlib
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.baselines import make_framework
from repro.core import smartmem_optimize
from repro.ir.tensor import TensorSpec
from repro.memory.pool import liveness_schedule
from repro.models import SMOKE_CONFIGS, build, build_smoke
from repro.runtime import (
    SD8GEN2, ExecutionProgram, NumPyBackend, available_backends, execute,
    get_backend, lower, make_inputs, parallel_supported, run_node,
)
from repro.runtime import program as program_module
from repro.runtime.batching import analyze, rebatch, symbolize
from repro.runtime.program import fill_once
from repro.runtime.session import _compile_session


def _interpret(graph, inputs):
    """The pre-lowering reference: run_node over the topo order."""
    values = dict(inputs)
    for node in graph.topo_order():
        run_node(graph, node, values)
    return {name: values[name] for name in graph.outputs}


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
class TestBackendParity:
    """Program execution == per-node interpretation on the whole zoo."""

    def test_program_outputs_match_execute(self, name):
        graph = build(name, **SMOKE_CONFIGS[name])
        inputs = make_inputs(graph)
        ref = _interpret(graph, inputs)
        out = execute(graph, inputs)  # the program path
        assert list(out) == list(ref)
        for key in ref:
            assert np.array_equal(out[key], ref[key]), key
        # and through the full Ours pipeline (views attached, nodes fused)
        optimized = smartmem_optimize(graph).graph
        opt_inputs = {k: v for k, v in inputs.items()
                      if k in optimized.tensors}
        opt_interp = _interpret(optimized, dict(opt_inputs))
        opt_program = execute(optimized, opt_inputs)
        for key in opt_interp:
            assert np.array_equal(opt_program[key], opt_interp[key]), key
            assert np.allclose(ref[key], opt_program[key],
                               rtol=1e-4, atol=1e-5), key


@pytest.mark.parametrize("name", ["ViT", "Swin", "Pythia", "SD-UNet",
                                  "ResNext", "Conformer"])
class TestSlotPlan:
    """Static buffer-slot assignment is a valid register allocation."""

    def _replay(self, graph):
        """Walk the liveness schedule over the plan, checking invariants."""
        program = lower(graph)
        plan = program.slot_plan
        schedule = liveness_schedule(graph)
        live_slot: dict[int, str] = {}
        live_by_class: Counter = Counter()
        peak_by_class: Counter = Counter()

        def acquire(tensor):
            slot = plan.tensor_slot[tensor]
            size = graph.tensors[tensor].size_bytes
            # exact size class, and never shared while both tensors live
            assert plan.slot_sizes[slot] == size
            assert slot not in live_slot, (tensor, live_slot[slot])
            live_slot[slot] = tensor
            live_by_class[size] += 1
            peak_by_class[size] = max(peak_by_class[size], live_by_class[size])

        for t in graph.inputs:
            acquire(t)
        order = graph.topo_order()
        for step, node in enumerate(order):
            for t in node.outputs:
                if t in schedule.materialized:
                    acquire(t)
            for t in schedule.releases_at[step]:
                slot = plan.tensor_slot.get(t)
                if slot is not None and live_slot.get(slot) == t:
                    del live_slot[slot]
                    live_by_class[plan.slot_sizes[slot]] -= 1
        return plan, peak_by_class

    def test_no_two_live_tensors_share_a_slot(self, name):
        graph = build(name, **SMOKE_CONFIGS[name])
        self._replay(graph)  # acquire() asserts per step

    def test_slot_count_bounded_by_liveness_peak(self, name):
        graph = build(name, **SMOKE_CONFIGS[name])
        plan, peak_by_class = self._replay(graph)
        for size, count in Counter(plan.slot_sizes).items():
            assert count <= peak_by_class[size], size
        # and in bytes: the plan never exceeds the walk's peak footprint
        assert plan.peak_bytes <= sum(
            size * count for size, count in peak_by_class.items())


# Per SMOKE_CONFIGS model under ``Ours``, for the base program and - where
# stackable - ``rebatch(., 4)`` and ``symbolize(., 2)``:
# (peak_bytes, total_allocated_bytes, allocs_per_run, scratch_bytes,
#  num_slots, sha256 of (sorted slot_sizes, timeline_live) [:16]).
# Pinned from the commit that replayed the plan against a run-time pool,
# before the base and variant allocators were merged into one; the rows
# of EfficientVit, FlattenFormer, Pythia, RegNet, ResNet50 and ResNext
# were re-pinned when the plan began slotting exactly the compiler's
# materialized values (a runtime-chain interior that is a fusion-group
# boundary now holds a slot).  The variant rows' scratch_bytes were
# re-pinned to their base row's when variants began sharing the base
# conv kernels and scratch (a longer extent runs in chunks of the
# planned one).  Slot ids are deterministic, but the digest sorts the
# sizes anyway; nothing else may move.
PLAN_FACTS = {
    ('AutoFormer', 'base'): (75264, 117672, 14, 150528, 9, 'a8f90b35782ba5fe'),
    ('AutoFormer', 'rebatch4'): (301056, 470688, 14, 150528, 9, '35513cc0d0c1e667'),
    ('AutoFormer', 'symbolize2'): (150528, 235344, 14, 150528, 9, '70d83427812ffc4e'),
    ('BiFormer', 'base'): (31360, 158048, 33, 204512, 20, '52ecb3b8893092a7'),
    ('CSwin', 'base'): (39200, 222368, 33, 174832, 16, '31119c9a7fb87436'),
    ('Conformer', 'base'): (16256, 24064, 22, 21392, 8, '022b9e86d7e994f8'),
    ('Conformer', 'rebatch4'): (65024, 96256, 22, 21392, 8, '9a5ff05a6f49a172'),
    ('Conformer', 'symbolize2'): (32512, 48128, 22, 21392, 8, '4e72afd56d8c3878'),
    ('ConvNext', 'base'): (10240, 37904, 16, 226048, 11, 'abb8ea129eae13b3'),
    ('ConvNext', 'rebatch4'): (40960, 151616, 16, 226048, 11, '7b32fbfa673d5152'),
    ('ConvNext', 'symbolize2'): (20480, 75808, 16, 226048, 11, 'dcfbfee5e9a4d431'),
    ('CrossFormer', 'base'): (101920, 286656, 30, 700800, 16, '74916aefa21d19cb'),
    ('EfficientVit', 'base'): (10240, 60848, 38, 241200, 21, 'c95beb3fd35a3c32'),
    ('EfficientVit', 'rebatch4'): (40960, 243392, 38, 241200, 21, 'cf629042e3d4fab8'),
    ('EfficientVit', 'symbolize2'): (20480, 121696, 38, 241200, 21, 'b44ec48e95877cc7'),
    ('FST', 'base'): (196608, 913408, 32, 12045568, 7, 'b8ff5fd2d7dcd8b1'),
    ('FST', 'rebatch4'): (786432, 3653632, 32, 12045568, 7, '92840985692f8420'),
    ('FST', 'symbolize2'): (393216, 1826816, 32, 12045568, 7, 'a147f22823b52db7'),
    ('FlattenFormer', 'base'): (31616, 185992, 37, 139648, 20, '15c221be5c568409'),
    ('FlattenFormer', 'rebatch4'): (126464, 743968, 37, 139648, 20, 'c49dc4d72dc1d18e'),
    ('FlattenFormer', 'symbolize2'): (63232, 371984, 37, 139648, 20, '78125567fa3bdd63'),
    ('Pythia', 'base'): (3072, 9760, 15, 0, 9, 'aadcac2224162649'),
    ('Pythia', 'rebatch4'): (12288, 39040, 15, 0, 9, '104dc936d7ac8ac2'),
    ('Pythia', 'symbolize2'): (6144, 19520, 15, 0, 9, 'ef2680280926ade5'),
    ('RegNet', 'base'): (49152, 474096, 83, 1162992, 14, '75c9d8f0b15ad0a7'),
    ('RegNet', 'rebatch4'): (196608, 1896384, 83, 1162992, 14, 'e4dd83329886a408'),
    ('RegNet', 'symbolize2'): (98304, 948192, 83, 1162992, 14, '848791bfddb0dd04'),
    ('ResNet50', 'base'): (40960, 474064, 57, 539568, 9, 'd826843bceebaee0'),
    ('ResNet50', 'rebatch4'): (163840, 1896256, 57, 539568, 9, '2d5a63280a551a3d'),
    ('ResNet50', 'symbolize2'): (81920, 948128, 57, 539568, 9, 'b30cd668a4ac80a9'),
    ('ResNext', 'base'): (49152, 608208, 57, 1055664, 8, '41767318f7dce9b4'),
    ('ResNext', 'rebatch4'): (196608, 2432832, 57, 1055664, 8, '206429895af9fe89'),
    ('ResNext', 'symbolize2'): (98304, 1216416, 57, 1055664, 8, 'b44d70e7b3d9a007'),
    ('SD-TextEncoder', 'base'): (2816, 7712, 12, 0, 7, 'b8405ed5bf2a7026'),
    ('SD-TextEncoder', 'rebatch4'): (11264, 30848, 12, 0, 7, '7c144bb5a483eceb'),
    ('SD-TextEncoder', 'symbolize2'): (5632, 15424, 12, 0, 7, '95260c41bb355f45'),
    ('SD-UNet', 'base'): (62720, 1313384, 460, 793664, 51, 'fe1bd0057fa6257a'),
    ('SD-UNet', 'rebatch4'): (250880, 5253536, 460, 793664, 51, 'e95da89550b45c4f'),
    ('SD-UNet', 'symbolize2'): (125440, 2626768, 460, 793664, 51, '227737f5ad5794ae'),
    ('SD-VAEDecoder', 'base'): (163840, 1068288, 72, 2564672, 19, 'e8ba0e46e7bbe5e1'),
    ('SD-VAEDecoder', 'rebatch4'): (655360, 4273152, 72, 2564672, 19, 'd17b5f3317125dea'),
    ('SD-VAEDecoder', 'symbolize2'): (327680, 2136576, 72, 2564672, 19, 'eb09ab1c2cefeaf3'),
    ('SMTFormer', 'base'): (31360, 124368, 25, 359024, 19, 'a5fd08ab68a2d81a'),
    ('SMTFormer', 'rebatch4'): (125440, 497472, 25, 359024, 19, 'cfc96d62c6273c3a'),
    ('SMTFormer', 'symbolize2'): (62720, 248736, 25, 359024, 19, '2cad19bf1df974b1'),
    ('Swin', 'base'): (114464, 352544, 27, 37632, 14, 'daa7dadf7bc45318'),
    ('ViT', 'base'): (6144, 11008, 14, 12288, 9, '1e97b9471a301018'),
    ('ViT', 'rebatch4'): (24576, 44032, 14, 12288, 9, '15f3c78ebf793b9d'),
    ('ViT', 'symbolize2'): (12288, 22016, 14, 12288, 9, '28874391690fabbe'),
    ('Yolo-V8', 'base'): (40960, 432000, 67, 748848, 29, '13e9522098ce014a'),
    ('Yolo-V8', 'rebatch4'): (163840, 1728000, 67, 748848, 29, 'eba7fd75561f5a44'),
    ('Yolo-V8', 'symbolize2'): (81920, 864000, 67, 748848, 29, '34f518f5c754c41d'),
}


def _plan_facts(program):
    plan = program.slot_plan
    digest = hashlib.sha256(repr(
        (sorted(plan.slot_sizes), plan.timeline_live)).encode()).hexdigest()
    return (plan.peak_bytes, plan.total_allocated_bytes, plan.allocs_per_run,
            plan.scratch_bytes, plan.num_slots, digest[:16])


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
def test_one_allocator_reproduces_the_pinned_plans(name):
    """The merged slot allocator builds the base plan from spec sizes and
    every variant plan from scaled sizes, releasing ``step.drops`` that
    hold a slot in both: the plans match the pinned ones exactly, so a
    base and a variant cannot disagree on when a slot is released."""
    program = smartmem_optimize(build(name, **SMOKE_CONFIGS[name])).program
    got = {(name, "base"): _plan_facts(program)}
    if analyze(program).stackable:
        got[name, "rebatch4"] = _plan_facts(rebatch(program, 4))
        got[name, "symbolize2"] = _plan_facts(symbolize(program, 2))
    assert got == {key: value for key, value in PLAN_FACTS.items()
                   if key[0] == name}


@pytest.mark.parametrize("framework", ["raw", "TVM", "DNNF", "Ours"])
@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
def test_program_plans_and_reports_the_compiler_groups(name, framework):
    """One fusion decision: the program's ``fused_chains`` are the
    compiler's ``node.group`` partition (groups of two or more steps),
    and the slot plan slots exactly the graph inputs and the values those
    groups materialize."""
    graph = build(name, **SMOKE_CONFIGS[name])
    if framework != "raw":
        graph = make_framework(framework).compile(
            graph, SD8GEN2, check_memory=False).graph
    program = lower(graph)
    groups: dict = {}
    for index, node in enumerate(graph.topo_order()):
        if node.group is not None:
            groups.setdefault(node.group, set()).add(index)
    assert sorted(map(sorted, program.fused_chains)) == sorted(
        sorted(members) for members in groups.values() if len(members) > 1)
    assert program.fused_step_count == sum(
        len(members) - 1 for members in program.fused_chains)
    assert set(program.slot_plan.tensor_slot) \
        == set(graph.inputs) | liveness_schedule(graph).materialized


class TestLowering:
    def test_program_memoized_per_generation(self, attention_graph):
        a = lower(attention_graph)
        assert lower(attention_graph) is a
        attention_graph.add_tensor(TensorSpec("scratch", (1,)))
        b = lower(attention_graph)
        assert b is not a

    def test_two_threads_lowering_one_graph_share_one_program(self):
        # One lowering per graph generation even under a race: two
        # programs would mean two ``backend_cache``s, and a demotion
        # recorded on one would go unseen through the other.
        graph = build_smoke("Conformer")
        barrier = threading.Barrier(2)
        got = [None, None]

        def lower_at_once(index):
            barrier.wait()
            got[index] = lower(graph)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-lowering
        try:
            threads = [threading.Thread(target=lower_at_once, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert got[0] is not None
        assert got[0] is got[1]

    def test_optimize_result_carries_program(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        assert isinstance(result.program, ExecutionProgram)
        assert result.program.graph is result.graph
        assert result.program is lower(result.graph)  # one lowering
        lower_record = [r for r in result.pass_records if r.name == "lower"]
        assert len(lower_record) == 1
        assert lower_record[0].stats["steps"] == len(result.graph.nodes)

    def test_static_pool_walk(self, attention_graph):
        program = lower(attention_graph)
        plan = program.slot_plan
        assert len(plan.timeline_live) == len(attention_graph.topo_order())
        assert plan.peak_bytes == max(plan.timeline_live)
        assert plan.allocs_per_run >= plan.num_slots

    def test_views_preresolved(self, attention_graph):
        optimized = smartmem_optimize(attention_graph).graph
        program = lower(optimized)
        lowered_views = sum(len(s.views) for s in program.steps)
        graph_views = sum(
            1 for node in optimized.iter_nodes()
            for view in node.input_views.values() if not view.is_identity)
        assert lowered_views == graph_views > 0


class TestFillOnce:
    """The one build-once primitive: a hit takes no lock; a miss builds
    under its key's own in-flight lock, so one key builds once and no
    key waits on another's build."""

    def test_a_held_build_does_not_block_another_keys_fill(self):
        cache = {}
        started, release = threading.Event(), threading.Event()

        def slow():
            started.set()
            release.wait(timeout=30)
            return "slow"

        holder = threading.Thread(target=fill_once,
                                  args=(cache, "slow", slow))
        holder.start()
        assert started.wait(timeout=10)
        got = []
        other = threading.Thread(
            target=lambda: got.append(fill_once(cache, "fast", lambda: 2)))
        other.start()
        try:
            other.join(timeout=5)
            assert not other.is_alive()  # never waited on "slow"
            assert got == [2]
            assert holder.is_alive()  # "slow" is still building
            assert (id(cache), "slow") in program_module._FILLING
        finally:
            release.set()
            holder.join(timeout=30)
            other.join(timeout=30)
        assert cache == {"slow": "slow", "fast": 2}
        assert not program_module._FILLING

    def test_a_build_may_fill_other_keys(self):
        cache, inner = {}, {}

        def outer():
            return fill_once(cache, "a", lambda: 1) \
                + fill_once(inner, "a", lambda: 10)

        assert fill_once(cache, "b", outer) == 11
        assert cache == {"a": 1, "b": 11} and inner == {"a": 10}
        assert not program_module._FILLING

    def test_threads_missing_one_key_build_it_once(self):
        cache, builds, k = {}, [], 8
        barrier = threading.Barrier(k)
        got = [None] * k

        def build():
            builds.append(threading.current_thread().name)
            return object()

        def fill(index):
            barrier.wait()
            got[index] = fill_once(cache, "key", build)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=fill, args=(i,))
                       for i in range(k)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert got[0] is not None and all(item is got[0] for item in got)
        assert not program_module._FILLING

    def test_a_raising_build_caches_nothing(self):
        cache = {}

        def broken():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError, match="build failed"):
            fill_once(cache, "key", broken)
        assert not cache
        assert not program_module._FILLING
        assert fill_once(cache, "key", lambda: 3) == 3  # the key is free

    def test_a_caller_finding_the_key_built_leaves_no_entry(self):
        # A caller can miss, then register the key after another caller
        # built it and left; it finds the value and must still leave.
        class Racing(dict):
            raced = False

            def get(self, key, default=None):
                found = super().get(key, default)
                if found is None and not self.raced:
                    self.raced = True
                    fill_once(self, key, lambda: 1)  # built meanwhile
                return found

        assert fill_once(Racing(), "key", lambda: 2) == 1
        assert not program_module._FILLING

    def test_after_a_raising_build_the_key_builds_once_more(self):
        # The caller that waited on a raising build takes the key afresh
        # before it builds, so a caller arriving during that rebuild
        # waits on it instead of building a second copy.
        cache, builds = {}, []
        entered = [threading.Event(), threading.Event()]
        gates = [threading.Event(), threading.Event()]

        def build():
            index = len(builds)
            builds.append(index)
            if index < 2:
                entered[index].set()
                gates[index].wait(timeout=30)
            if index == 0:
                raise RuntimeError("build failed")
            return index

        def fill(into):
            try:
                into.append(fill_once(cache, "key", build))
            except RuntimeError as err:
                into.append(err)

        failed, got = [], []
        threads = [threading.Thread(target=fill, args=(into,))
                   for into in (failed, got, got)]
        threads[0].start()
        try:
            assert entered[0].wait(timeout=10)
            threads[1].start()
            threads[1].join(timeout=0.2)
            assert threads[1].is_alive()  # parked on the failing build
            gates[0].set()
            assert entered[1].wait(timeout=10)  # the waiter rebuilds
            threads[2].start()
            threads[2].join(timeout=0.2)
            assert threads[2].is_alive()  # parked on the rebuild
            assert builds == [0, 1]
        finally:
            for gate in gates:
                gate.set()
            for thread in threads:
                if thread.is_alive():
                    thread.join(timeout=30)
        assert isinstance(failed[0], RuntimeError)
        assert got == [1, 1] and cache == {"key": 1}
        assert not program_module._FILLING


class TestServingExecution:
    def test_run_many_matches_single_runs(self, attention_graph):
        program = lower(attention_graph)
        backend = get_backend("numpy")
        batch = [make_inputs(attention_graph, seed=s) for s in range(3)]
        results = backend.run_many(program, [dict(b) for b in batch])
        assert len(results) == 3
        for inputs, (out, report, wall_s) in zip(batch, results):
            ref = execute(attention_graph, inputs)
            assert wall_s > 0
            assert report is program.report
            for key in ref:
                assert np.array_equal(out[key], ref[key])


class TestBackendRegistry:
    def test_numpy_backend_registered(self):
        assert "numpy" in available_backends()
        assert isinstance(get_backend("numpy"), NumPyBackend)
        assert get_backend("numpy") is get_backend("numpy")  # singleton

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("tpu")

    @pytest.mark.parametrize("name,canonical", [
        ("codegen", "numpy"), ("numpy", "numpy"), ("parallel", "parallel")])
    def test_every_name_is_the_shared_runner(self, name, canonical,
                                             attention_graph):
        """Each accepted name resolves to the one shared runner, and a
        session compiled under it reports the canonical name."""
        assert get_backend(name) is get_backend("numpy")
        assert get_backend(name).name == "numpy"
        if canonical == "parallel" and not parallel_supported():
            pytest.skip("fork start method unavailable")
        session = _compile_session(attention_graph, "Ours", backend=name)
        assert session.backend == canonical
        assert session._parallel_pool is None  # compiling starts no pool

