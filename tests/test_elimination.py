"""Tests for Layout Transformation Elimination (Sec 3.2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.elimination import (
    count_layout_transforms, eliminate_dead_nodes, eliminate_layout_transforms,
)
from repro.ir import GraphBuilder, validate
from repro.runtime import execute, make_inputs, verify_equivalence


class TestBasicElimination:
    def test_removes_all_transforms(self, attention_graph):
        g = attention_graph.clone()
        stats = eliminate_layout_transforms(g)
        assert count_layout_transforms(g, include_slice=True) == 0
        assert stats.total_eliminated > 0
        validate(g)

    def test_semantics_preserved(self, attention_graph):
        g = attention_graph.clone()
        eliminate_layout_transforms(g)
        assert verify_equivalence(attention_graph, g, seeds=(0,)).passed

    def test_views_attached(self, attention_graph):
        g = attention_graph.clone()
        eliminate_layout_transforms(g)
        assert any(node.input_views for node in g.iter_nodes())

    def test_stats_by_kind(self, attention_graph):
        g = attention_graph.clone()
        stats = eliminate_layout_transforms(g)
        assert stats.eliminated["reshape"] >= 5
        assert stats.eliminated["transpose"] >= 2
        assert stats.eliminated["slice"] == 3

    def test_exclude_slice(self, attention_graph):
        g = attention_graph.clone()
        eliminate_layout_transforms(g, include_slice=False)
        remaining = [n.op_type for n in g.iter_nodes()]
        assert "slice" in remaining
        assert "reshape" not in remaining
        assert verify_equivalence(attention_graph, g, seeds=(0,)).passed


class TestEdgeCases:
    def test_graph_output_transform_kept(self):
        b = GraphBuilder()
        x = b.input("x", (2, 6))
        t = b.transpose(x, (1, 0))
        b.output(t)
        g = b.finish()
        stats = eliminate_layout_transforms(g)
        assert stats.kept_graph_outputs == 1
        assert count_layout_transforms(g) == 1

    def test_output_transform_absorbs_upstream(self):
        b = GraphBuilder()
        x = b.input("x", (2, 6))
        r = b.reshape(x, (6, 2))
        t = b.transpose(r, (1, 0))
        b.output(t)
        g = b.finish()
        eliminate_layout_transforms(g)
        # the reshape is gone; the final transpose holds its view
        assert count_layout_transforms(g) == 1
        kept = next(n for n in g.iter_nodes())
        assert 0 in kept.input_views
        inputs = make_inputs(b.graph)
        ref = execute(b.graph, inputs)
        opt = execute(g, {k: v for k, v in inputs.items() if k in g.tensors})
        for name in ref:
            assert np.array_equal(ref[name], opt[name])

    def test_multi_consumer_transform(self):
        b = GraphBuilder()
        x = b.input("x", (4, 6))
        t = b.transpose(x, (1, 0))
        b.output(b.relu(t))
        b.output(b.sigmoid(t))
        g0 = b.finish()
        g = g0.clone()
        eliminate_layout_transforms(g)
        assert count_layout_transforms(g) == 0
        # both consumers got the view
        viewed = [n for n in g.iter_nodes() if n.input_views]
        assert len(viewed) == 2
        assert verify_equivalence(g0, g, seeds=(0,)).passed

    def test_dead_transform_removed(self):
        b = GraphBuilder()
        x = b.input("x", (4, 6))
        b.transpose(x, (1, 0))  # dead: never consumed, not an output
        y = b.relu(x)
        b.output(y)
        g = b.graph
        eliminate_layout_transforms(g)
        assert count_layout_transforms(g) == 0

    def test_chain_collapses_to_single_view(self):
        b = GraphBuilder()
        x = b.input("x", (2, 3, 4))
        y = b.reshape(x, (6, 4))
        y = b.transpose(y, (1, 0))
        y = b.reshape(y, (2, 2, 6))
        out = b.relu(y)
        b.output(out)
        g0 = b.finish()
        g = g0.clone()
        eliminate_layout_transforms(g)
        relu = next(n for n in g.iter_nodes())
        assert relu.op_type == "unary"
        assert relu.inputs == ["x"]
        assert len(relu.input_views[0].steps) == 3
        assert verify_equivalence(g0, g, seeds=(0,)).passed

    def test_depth_to_space_eliminated(self):
        b = GraphBuilder()
        x = b.input("x", (1, 8, 4, 4))
        y = b.depth_to_space(x, 2)
        b.output(b.relu(y))
        g0 = b.finish()
        g = g0.clone()
        eliminate_layout_transforms(g)
        assert count_layout_transforms(g) == 0
        assert verify_equivalence(g0, g, seeds=(0,)).passed

    def test_idempotent(self, attention_graph):
        g = attention_graph.clone()
        eliminate_layout_transforms(g)
        stats2 = eliminate_layout_transforms(g)
        assert stats2.total_eliminated == 0


class TestDeadCode:
    def test_removes_dead_chain(self):
        b = GraphBuilder()
        x = b.input("x", (4,))
        live = b.relu(x)
        dead1 = b.sigmoid(x)
        b.unary(dead1, "tanh")
        b.output(live)
        g = b.graph
        removed = eliminate_dead_nodes(g)
        assert removed == 2
        assert len(g.nodes) == 1

    def test_keeps_everything_live(self, attention_graph):
        g = attention_graph.clone()
        assert eliminate_dead_nodes(g) == 0


@st.composite
def transform_heavy_graph(draw):
    """A random graph alternating compute and layout-transform ops."""
    b = GraphBuilder("random")
    x = b.input("x", (2, 4, 8))
    y = b.dense(x, 8)
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["reshape", "transpose", "compute", "slice"]))
        shape = b.shape(y)
        if kind == "reshape":
            import math
            total = math.prod(shape)
            if total % 4 == 0:
                y = b.reshape(y, (total // 4, 4))
            else:
                y = b.reshape(y, (total,))
        elif kind == "transpose":
            perm = tuple(draw(st.permutations(range(len(shape)))))
            y = b.transpose(y, perm)
        elif kind == "slice":
            if shape[0] > 1:
                y = b.slice_axis(y, 0, 0, shape[0] - 1)
        else:
            y = b.unary(y, draw(st.sampled_from(["relu", "sigmoid", "tanh"])))
    b.output(y)
    return b.finish()


@given(transform_heavy_graph())
@settings(max_examples=40, deadline=None)
def test_elimination_always_preserves_semantics(graph):
    g = graph.clone()
    eliminate_layout_transforms(g)
    validate(g)
    assert verify_equivalence(graph, g, seeds=(0,)).passed
