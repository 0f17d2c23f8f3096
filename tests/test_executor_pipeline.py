"""Executor tests and end-to-end pipeline semantic-equivalence tests."""

import numpy as np
import pytest

from repro.core import PipelineStages, smartmem_optimize
from repro.ir import GraphBuilder, validate
from repro.runtime import execute, make_inputs, verify_equivalence


class TestExecutor:
    def test_deterministic_inputs(self, attention_graph):
        a = make_inputs(attention_graph, seed=7)
        b = make_inputs(attention_graph, seed=7)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_seed_changes_inputs(self, attention_graph):
        a = make_inputs(attention_graph, seed=0)
        b = make_inputs(attention_graph, seed=1)
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_int_inputs_for_ids(self):
        b = GraphBuilder()
        ids = b.input("ids", (1, 4), "int32")
        b.output(b.embedding(ids, 16, 8))
        g = b.finish()
        inputs = make_inputs(g)
        assert inputs["ids"].dtype == np.int32
        out = execute(g, inputs)
        assert list(out.values())[0].shape == (1, 4, 8)

    def test_execute_shapes_checked(self, linear_graph):
        inputs = make_inputs(linear_graph)
        out = execute(linear_graph, inputs)
        for name, value in out.items():
            assert tuple(value.shape) == linear_graph.shape(name)

    def test_verification_detects_difference(self, linear_graph):
        g = linear_graph.clone()
        # perturb: swap relu for sigmoid
        node = next(n for n in g.iter_nodes() if n.op_type == "unary")
        node.attrs["func"] = "sigmoid"
        assert not verify_equivalence(linear_graph, g, seeds=(0,)).passed

    def test_interior_constant_materialized(self):
        """A const_value tensor that is neither a parameter nor a graph
        input must still be filled (regression: execute() used to KeyError
        on it)."""
        from repro.ir.graph import Graph
        from repro.ir.tensor import TensorSpec

        g = Graph("interior_const")
        g.add_input("x", (2, 3))
        g.add_tensor(TensorSpec("c", (2, 3), const_value=2.0))
        g.add_tensor(TensorSpec("y", (2, 3)))
        g.add_node("binary", ["x", "c"], ["y"], {"func": "mul"})
        g.mark_output("y")

        inputs = make_inputs(g, seed=0)
        assert "c" in inputs
        assert np.all(inputs["c"] == 2.0)
        out = execute(g, inputs)
        assert np.allclose(out["y"], inputs["x"] * 2.0)

    def test_interior_constant_does_not_shift_rng(self):
        """Constants are np.full-filled and never consume random state, so
        adding one leaves every other tensor's values unchanged."""
        from repro.ir.graph import Graph
        from repro.ir.tensor import TensorSpec

        def base(with_const):
            g = Graph("g")
            g.add_input("x", (2, 3))
            g.add_param("w", (3, 4))
            if with_const:
                g.add_tensor(TensorSpec("eps", (1,), const_value=0.5))
            return g

        a = make_inputs(base(False), seed=5)
        b = make_inputs(base(True), seed=5)
        assert np.array_equal(a["x"], b["x"])
        assert np.array_equal(a["w"], b["w"])
        assert np.all(b["eps"] == 0.5)


class TestPipelineEndToEnd:
    @pytest.mark.parametrize("fixture", [
        "linear_graph", "attention_graph", "multi_consumer_graph",
        "conv_net_graph"])
    def test_full_pipeline_preserves_semantics(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        result = smartmem_optimize(graph)
        validate(result.graph)
        assert verify_equivalence(graph, result.graph, seeds=(0,)).passed

    def test_operator_count_drops(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        assert result.operator_count < len(attention_graph.nodes)
        assert result.source_operator_count == len(attention_graph.nodes)

    def test_no_layout_transforms_remain(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        assert result.remaining_layout_transforms == 0

    def test_stage_toggles(self, attention_graph):
        no_lte = smartmem_optimize(
            attention_graph, PipelineStages(lte=False))
        assert no_lte.remaining_layout_transforms > 0
        no_fuse = smartmem_optimize(
            attention_graph, PipelineStages(fusion=False))
        assert no_fuse.operator_count >= smartmem_optimize(
            attention_graph).operator_count
        for ablated in (no_lte, no_fuse):
            assert verify_equivalence(
                attention_graph, ablated.graph, seeds=(0,)).passed

    def test_stage_monotonicity(self, attention_graph):
        """Each stage never increases the operator count."""
        baseline = smartmem_optimize(
            attention_graph, PipelineStages(lte=False, fusion=True,
                                            layout_selection=False,
                                            full_texture=False))
        lte = smartmem_optimize(
            attention_graph, PipelineStages(lte=True, fusion=True,
                                            layout_selection=False,
                                            full_texture=False))
        assert lte.operator_count <= baseline.operator_count

    def test_no_texture_mode(self, attention_graph):
        result = smartmem_optimize(
            attention_graph, PipelineStages(use_texture=False))
        from repro.ir import MemoryKind
        assert all(l.memory is MemoryKind.BUFFER_1D
                   for l in result.plan.layouts.values())
        assert verify_equivalence(
            attention_graph, result.graph, seeds=(0,)).passed

    def test_source_graph_untouched(self, attention_graph):
        before_nodes = set(attention_graph.nodes)
        smartmem_optimize(attention_graph)
        assert set(attention_graph.nodes) == before_nodes

    def test_extra_efficiency_property(self, attention_graph):
        full = smartmem_optimize(attention_graph)
        assert full.extra_efficiency > 1.0
        partial = smartmem_optimize(
            attention_graph, PipelineStages(full_texture=False))
        assert partial.extra_efficiency == 1.0
