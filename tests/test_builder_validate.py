"""Tests for GraphBuilder, validate, serialize, and pattern matching."""

import numpy as np
import pytest

from repro.core import smartmem_optimize
from repro.ir import (
    GraphBuilder, GraphError, dumps, find_chains, layout_transform_chains,
    loads, validate,
)
from repro.ir.view import ViewChain
from repro.runtime import execute, make_inputs, verify_equivalence


class TestBuilder:
    def test_shapes_tracked(self):
        b = GraphBuilder()
        x = b.input("x", (1, 3, 8, 8))
        y = b.conv2d(x, 4, 3, padding=1)
        assert b.shape(y) == (1, 4, 8, 8)

    def test_params_created(self):
        b = GraphBuilder()
        x = b.input("x", (1, 4))
        b.dense(x, 8)
        params = [t for t in b.graph.tensors.values() if t.is_param]
        assert {tuple(p.shape) for p in params} == {(8, 4), (8,)}

    def test_finish_autodetects_outputs(self):
        b = GraphBuilder()
        x = b.input("x", (4,))
        b.relu(x)
        g = b.finish()
        assert len(g.outputs) == 1

    def test_explicit_output_respected(self):
        b = GraphBuilder()
        x = b.input("x", (4,))
        y = b.relu(x)
        b.relu(y)
        b.output(y)
        assert b.finish().outputs == [y]

    def test_unknown_unary(self):
        b = GraphBuilder()
        x = b.input("x", (4,))
        with pytest.raises(ValueError):
            b.unary(x, "quantum_leap")

    def test_depthwise_helper(self):
        b = GraphBuilder()
        x = b.input("x", (1, 6, 8, 8))
        y = b.depthwise_conv2d(x, 3, padding=1)
        node = b.graph.producer(y)
        assert node.attrs["groups"] == 6

    def test_slice_axis(self):
        b = GraphBuilder()
        x = b.input("x", (2, 10, 4))
        y = b.slice_axis(x, 1, 2, 7)
        assert b.shape(y) == (2, 5, 4)

    def test_scale_shift(self):
        b = GraphBuilder()
        x = b.input("x", (2, 6, 4))
        y = b.scale_shift(x, axis=1)
        assert b.shape(y) == (2, 6, 4)


class TestValidate:
    def test_valid_graph(self, attention_graph):
        validate(attention_graph)

    def test_bad_recorded_shape(self, linear_graph):
        g = linear_graph
        out = next(iter(g.nodes.values())).outputs[0]
        g.tensors[out] = g.tensors[out].with_shape((1, 1, 1, 1))
        with pytest.raises(GraphError):
            validate(g)

    def test_view_shape_mismatch(self, linear_graph):
        g = linear_graph
        node = next(n for n in g.iter_nodes() if n.op_type == "dense")
        node.input_views[0] = ViewChain.identity((9, 9))
        with pytest.raises(GraphError, match="view expects"):
            validate(g)

    def test_input_also_produced(self, linear_graph):
        g = linear_graph
        node = next(iter(g.nodes.values()))
        node.outputs[0] = "x"
        with pytest.raises(GraphError):
            validate(g)


class TestSerialize:
    def test_roundtrip(self, attention_graph):
        restored = loads(dumps(attention_graph))
        validate(restored)
        assert restored.inputs == attention_graph.inputs
        assert restored.outputs == attention_graph.outputs
        assert set(restored.nodes) == set(attention_graph.nodes)
        for node_id, node in attention_graph.nodes.items():
            other = restored.nodes[node_id]
            assert other.op_type == node.op_type
            assert other.attrs == node.attrs

    def test_roundtrip_with_views_and_groups(self, attention_graph):
        from repro.core import eliminate_layout_transforms, fuse, SMARTMEM_POLICY
        g = attention_graph.clone()
        eliminate_layout_transforms(g)
        fuse(g, SMARTMEM_POLICY)
        restored = loads(dumps(g))
        validate(restored)
        for node_id, node in g.nodes.items():
            other = restored.nodes[node_id]
            assert other.group == node.group
            assert other.input_views == node.input_views

    def test_roundtrip_preserves_semantics(self, attention_graph):
        from repro.runtime import verify_equivalence
        restored = loads(dumps(attention_graph))
        assert verify_equivalence(
            attention_graph, restored, seeds=(0,)).passed


class TestPatterns:
    def test_find_simple_chain(self, conv_net_graph):
        matches = list(find_chains(conv_net_graph, ["conv2d", "batchnorm", "unary"]))
        assert len(matches) >= 1
        for m in matches:
            assert [n.op_type for n in m.nodes] == ["conv2d", "batchnorm", "unary"]

    def test_predicate_matcher(self, conv_net_graph):
        matches = list(find_chains(
            conv_net_graph,
            [lambda n: n.op_type == "conv2d", "batchnorm"]))
        assert matches

    def test_chains_do_not_overlap(self, conv_net_graph):
        matches = list(find_chains(conv_net_graph, ["conv2d", "batchnorm"]))
        seen = set()
        for m in matches:
            for node in m.nodes:
                assert node.id not in seen
                seen.add(node.id)

    def test_layout_transform_chains(self, attention_graph):
        chains = list(layout_transform_chains(attention_graph))
        assert chains
        # the qkv reshape->transpose pair should be one chain
        assert any(len(c.nodes) >= 2 for c in chains)
        for c in chains:
            for node in c.nodes:
                assert node.opdef.is_layout_transform

    def test_multi_consumer_breaks_chain(self):
        b = GraphBuilder()
        x = b.input("x", (4, 4))
        t = b.transpose(x, (1, 0))
        b.output(b.relu(t))
        b.output(b.sigmoid(t))
        g = b.finish()
        chains = list(layout_transform_chains(g))
        assert all(len(c.nodes) == 1 for c in chains)


class TestSplitOp:
    def test_split_shapes_and_execution(self):
        b = GraphBuilder()
        x = b.input("x", (2, 6, 4))
        parts = b.split(x, 3, axis=1)
        assert len(parts) == 3
        assert all(b.shape(p) == (2, 2, 4) for p in parts)
        y = b.concat(parts, axis=1)
        b.output(y)
        g = b.finish()
        validate(g)
        inputs = make_inputs(g)
        out = execute(g, inputs)
        assert np.array_equal(list(out.values())[0], inputs["x"])

    def test_split_divisibility(self):
        b = GraphBuilder()
        x = b.input("x", (2, 5))
        with pytest.raises(ValueError):
            b.split(x, 2, axis=1)

    def test_split_survives_pipeline(self):
        b = GraphBuilder()
        x = b.input("x", (2, 8, 4))
        h = b.dense(x, 4)
        parts = b.split(h, 2, axis=1)
        y = b.add(parts[0], parts[1])
        b.output(y)
        g = b.finish()
        result = smartmem_optimize(g)
        validate(result.graph)
        assert verify_equivalence(g, result.graph, seeds=(0,)).passed
