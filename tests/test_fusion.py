"""Tests for the fusion engine and the framework policies."""

import pytest

from repro.core.fusion import (
    DNNFUSION_POLICY, FusionPolicy, MNN_POLICY, SMARTMEM_POLICY, TVM_POLICY,
    fuse, groups_of,
)
from repro.ir import GraphBuilder


def group_of(graph, tensor):
    return graph.producer(tensor).group


class TestPatternFusion:
    def test_conv_relu_pattern(self):
        b = GraphBuilder()
        x = b.input("x", (1, 3, 8, 8))
        c = b.conv2d(x, 4, 3, padding=1)
        r = b.relu(c)
        b.output(r)
        g = b.finish()
        stats = fuse(g, MNN_POLICY)
        assert group_of(g, c) == group_of(g, r)
        assert stats.groups == 1

    def test_unmatched_ops_stay_separate(self):
        b = GraphBuilder()
        x = b.input("x", (1, 4, 8, 8))
        y = b.softmax(x)
        z = b.relu(y)
        b.output(z)
        g = b.finish()
        fuse(g, MNN_POLICY)  # MNN has no softmax+unary pattern
        assert group_of(g, y) != group_of(g, z)


class TestRuleFusion:
    def test_elementwise_chain(self):
        b = GraphBuilder()
        x = b.input("x", (8,))
        y = b.relu(x)
        z = b.sigmoid(y)
        w = b.unary(z, "tanh")
        b.output(w)
        g = b.finish()
        stats = fuse(g, TVM_POLICY)
        assert stats.groups == 1

    def test_epilogue(self):
        b = GraphBuilder()
        x = b.input("x", (4, 8))
        y = b.dense(x, 8)
        z = b.relu(y)
        b.output(z)
        g = b.finish()
        fuse(g, TVM_POLICY)
        assert group_of(g, y) == group_of(g, z)

    def test_prologue_dnnf_only(self):
        b = GraphBuilder()
        x = b.input("x", (4, 8))
        y = b.relu(x)
        z = b.dense(y, 8)
        b.output(z)
        g = b.finish()
        fuse(g, TVM_POLICY)
        tvm_sep = group_of(g, y) != group_of(g, z)
        g2 = b.graph.clone()
        fuse(g2, DNNFUSION_POLICY)
        assert tvm_sep
        assert group_of(g2, y) == group_of(g2, z)

    def test_two_heavies_never_merge(self):
        b = GraphBuilder()
        x = b.input("x", (4, 8))
        y = b.dense(x, 8)
        z = b.dense(y, 8)
        b.output(z)
        g = b.finish()
        fuse(g, DNNFUSION_POLICY)
        assert group_of(g, y) != group_of(g, z)

    def test_multi_consumer_edge_not_merged(self):
        b = GraphBuilder()
        x = b.input("x", (8,))
        y = b.relu(x)
        b.output(b.sigmoid(y))
        b.output(b.unary(y, "tanh"))
        g = b.finish()
        fuse(g, DNNFUSION_POLICY)
        # y has two consumers; it must stay materialized in its own group
        consumers = [n for n, _ in g.consumers(y)]
        assert any(c.group != g.producer(y).group for c in consumers)

    def test_graph_output_not_fused_away(self):
        b = GraphBuilder()
        x = b.input("x", (8,))
        y = b.relu(x)
        b.output(y)
        z = b.sigmoid(y)
        b.output(z)
        g = b.finish()
        fuse(g, DNNFUSION_POLICY)
        assert group_of(g, y) != group_of(g, z)

    def test_reshape_fuses_with_elementwise_under_dnnf(self):
        b = GraphBuilder()
        x = b.input("x", (2, 8))
        y = b.relu(x)
        r = b.reshape(y, (16,))
        z = b.sigmoid(r)
        b.output(z)
        g = b.finish()
        fuse(g, DNNFUSION_POLICY)
        assert group_of(g, y) == group_of(g, r) == group_of(g, z)

    def test_transpose_never_fuses(self):
        """Transpose-like shufflers stay standalone under every baseline
        (only SmartMem removes them, via elimination)."""
        b = GraphBuilder()
        x = b.input("x", (2, 8))
        y = b.relu(x)
        t = b.transpose(y, (1, 0))
        z = b.sigmoid(t)
        b.output(z)
        g = b.finish()
        fuse(g, DNNFUSION_POLICY)
        assert group_of(g, t) != group_of(g, y)
        assert group_of(g, t) != group_of(g, z)


class TestGrouping:
    def test_groups_of_requires_fusion(self, linear_graph):
        with pytest.raises(ValueError):
            groups_of(linear_graph)

    def test_groups_partition_nodes(self, attention_graph):
        fuse(attention_graph, SMARTMEM_POLICY)
        groups = groups_of(attention_graph)
        total = sum(len(nodes) for nodes in groups.values())
        assert total == len(attention_graph.nodes)

    def test_fusion_reduces_operator_count(self, attention_graph):
        before = attention_graph.num_operators
        fuse(attention_graph, SMARTMEM_POLICY)
        assert attention_graph.num_operators < before

    def test_policy_ordering(self, attention_graph):
        """More aggressive policies yield fewer (or equal) groups."""
        counts = {}
        for policy in (MNN_POLICY, TVM_POLICY, DNNFUSION_POLICY):
            g = attention_graph.clone()
            counts[policy.name] = fuse(g, policy).groups
        assert counts["dnnfusion"] <= counts["tvm"] <= counts["mnn"]

    def test_fusion_preserves_semantics(self, attention_graph):
        from repro.runtime import verify_equivalence
        g = attention_graph.clone()
        fuse(g, SMARTMEM_POLICY)
        assert verify_equivalence(attention_graph, g, seeds=(0,)).passed
