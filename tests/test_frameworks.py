"""Tests for the baseline framework models (repro.baselines)."""

import pytest

from repro.baselines import ALL_FRAMEWORKS, make_framework
from repro.baselines.base import Framework
from repro.core.elimination import count_layout_transforms
from repro.ir import GraphBuilder
from repro.runtime import SD8GEN2, V100, scaled, verify_equivalence


def attention_model():
    b = GraphBuilder("mini_transformer")
    x = b.input("x", (1, 16, 24))
    h = b.layernorm(x)
    qkv = b.dense(h, 72)
    qkv = b.reshape(qkv, (1, 16, 3, 2, 12))
    qkv = b.transpose(qkv, (2, 0, 3, 1, 4))
    q = b.reshape(b.slice_axis(qkv, 0, 0, 1), (2, 16, 12))
    k = b.reshape(b.slice_axis(qkv, 0, 1, 2), (2, 16, 12))
    attn = b.softmax(b.matmul(q, k, transpose_b=True))
    b.output(attn)
    return b.finish()


def conv_model():
    b = GraphBuilder("mini_cnn")
    x = b.input("x", (1, 3, 16, 16))
    y = b.conv2d(x, 8, 3, padding=1, bias=False)
    y = b.batchnorm(y)
    y = b.relu(y)
    y = b.global_avgpool(y)
    y = b.reshape(y, (1, 8))
    b.output(b.dense(y, 10))
    return b.finish()


def hybrid_model():
    """Conv feeding a linear-domain op: forces implicit converts."""
    b = GraphBuilder("mini_hybrid")
    x = b.input("x", (1, 4, 8, 8))
    y = b.conv2d(x, 4, 3, padding=1)
    y = b.instancenorm(y)
    y = b.conv2d(y, 4, 3, padding=1)
    b.output(y)
    return b.finish()


class TestSupportMatrix:
    def test_ncnn_rejects_transformers(self):
        res = make_framework("NCNN").compile(attention_model(), SD8GEN2)
        assert not res.supported
        assert "not supported" in res.reason

    def test_tflite_rejects_transformers(self):
        res = make_framework("TFLite").compile(attention_model(), SD8GEN2)
        assert not res.supported

    def test_cnn_supported_everywhere(self):
        g = conv_model()
        for fw in ALL_FRAMEWORKS:
            assert make_framework(fw).compile(g, SD8GEN2).supported, fw

    def test_transformers_supported_by_others(self):
        g = attention_model()
        for fw in ("MNN", "TVM", "DNNF", "Ours"):
            assert make_framework(fw).compile(g, SD8GEN2).supported, fw

    def test_unknown_framework(self):
        with pytest.raises(KeyError):
            make_framework("XLA")


class TestImplicitConverts:
    def test_mnn_wraps_instancenorm(self):
        """Fig. 1(b): MNN inserts converts around InstanceNorm."""
        res = make_framework("MNN").compile(hybrid_model(), SD8GEN2)
        assert res.implicit_converts >= 2
        ops = res.graph.count_op_types()
        assert ops.get("layout_convert", 0) == res.implicit_converts

    def test_converts_preserve_semantics(self):
        g = hybrid_model()
        res = make_framework("MNN").compile(g, SD8GEN2)
        assert verify_equivalence(g, res.graph, seeds=(0,)).passed

    def test_tvm_inserts_fewer(self):
        g = hybrid_model()
        mnn = make_framework("MNN").compile(g, SD8GEN2)
        tvm = make_framework("TVM").compile(g, SD8GEN2)
        assert tvm.implicit_converts <= mnn.implicit_converts

    def test_smartmem_inserts_none(self):
        res = make_framework("Ours").compile(hybrid_model(), SD8GEN2)
        assert res.graph.count_op_types().get("layout_convert", 0) == 0


class TestOperatorCounts:
    def test_ours_fewest(self):
        g = attention_model()
        counts = {}
        for fw in ("MNN", "TVM", "DNNF", "Ours"):
            counts[fw] = make_framework(fw).compile(g, SD8GEN2).operator_count
        assert counts["Ours"] <= counts["DNNF"] <= counts["TVM"] <= counts["MNN"]

    def test_ours_eliminates_transforms(self):
        g = attention_model()
        ours = make_framework("Ours").compile(g, SD8GEN2)
        dnnf = make_framework("DNNF").compile(g, SD8GEN2)
        assert count_layout_transforms(ours.graph) == 0
        assert count_layout_transforms(dnnf.graph) > 0


class TestLatencyOrdering:
    def test_transformer_ordering(self):
        g = attention_model()
        lat = {fw: make_framework(fw).compile(g, SD8GEN2).cost(SD8GEN2).latency_ms
               for fw in ("MNN", "TVM", "DNNF", "Ours")}
        assert lat["Ours"] < lat["DNNF"] < lat["MNN"]
        assert lat["Ours"] < lat["TVM"]

    def test_all_semantics_preserved(self):
        g = attention_model()
        for fw in ("MNN", "TVM", "DNNF", "Ours"):
            res = make_framework(fw).compile(g, SD8GEN2)
            assert verify_equivalence(
                g, res.graph, seeds=(0,)).passed, fw

    def test_cost_raises_when_unsupported(self):
        res = make_framework("NCNN").compile(attention_model(), SD8GEN2)
        with pytest.raises(RuntimeError):
            res.cost(SD8GEN2)


class TestMemoryFeasibility:
    def test_memory_check_triggers(self):
        g = conv_model()
        tiny = scaled(SD8GEN2, memory_bytes=1024)
        res = make_framework("MNN").compile(g, tiny, check_memory=True)
        assert not res.supported
        assert "memory" in res.reason

    def test_ours_needs_least_memory(self):
        g = attention_model()
        ours = make_framework("Ours")
        mnn = make_framework("MNN")
        r_ours = ours.compile(g, SD8GEN2)
        r_mnn = mnn.compile(g, SD8GEN2)
        assert (ours.required_memory_bytes(r_ours.graph)
                < mnn.required_memory_bytes(r_mnn.graph))


class TestSmartMemOnDesktop:
    def test_no_texture_on_v100(self):
        g = attention_model()
        res = make_framework("Ours").compile(g, V100)
        from repro.ir import MemoryKind
        assert all(l.memory is MemoryKind.BUFFER_1D
                   for l in res.plan.layouts.values())

    def test_beats_torchinductor_on_v100(self):
        g = attention_model()
        ti = make_framework("TorchInductor").compile(g, V100).cost(V100)
        ours = make_framework("Ours").compile(g, V100).cost(V100)
        assert ours.latency_ms < ti.latency_ms
        # modest gain, as in Table 9 (not a mobile-scale speedup)
        assert ti.latency_ms / ours.latency_ms < 3.0
