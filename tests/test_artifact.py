"""Tests for deployment artifacts (save/load optimized modules)."""

import pytest

from repro.core import smartmem_optimize
from repro.ir import validate
from repro.runtime import SD8GEN2, estimate, verify_equivalence
from repro.runtime.artifact import Artifact, plan_from_json, plan_to_json
from repro.runtime.cost_model import CostModelConfig


class TestPlanSerialization:
    def test_roundtrip(self, multi_consumer_graph):
        from repro.core import select_layouts
        plan = select_layouts(multi_consumer_graph, use_texture=False)
        restored = plan_from_json(plan_to_json(plan))
        assert restored.layouts == plan.layouts
        assert restored.copies == plan.copies
        assert restored.edge_assignment == plan.edge_assignment
        assert restored.quality == plan.quality


class TestArtifact:
    def test_roundtrip_in_memory(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        artifact = Artifact.from_result(result, metadata={"model": "mini"})
        restored = Artifact.from_json(artifact.to_json())
        validate(restored.graph)
        assert restored.metadata == {"model": "mini"}
        assert restored.extra_efficiency == result.extra_efficiency

    def test_loaded_artifact_costs_identically(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        artifact = Artifact.from_result(result)
        restored = Artifact.from_json(artifact.to_json())
        config = CostModelConfig(extra_efficiency=result.extra_efficiency)
        original = estimate(result.graph, SD8GEN2, result.plan, config)
        loaded = estimate(restored.graph, SD8GEN2, restored.plan, config)
        assert loaded.latency_ms == pytest.approx(original.latency_ms)
        assert loaded.num_kernels == original.num_kernels
        assert loaded.cache_miss_total == original.cache_miss_total

    def test_loaded_artifact_executes_identically(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        restored = Artifact.from_json(Artifact.from_result(result).to_json())
        assert verify_equivalence(
            attention_graph, restored.graph, seeds=(0,)).passed

    def test_save_load_file(self, attention_graph, tmp_path):
        result = smartmem_optimize(attention_graph)
        path = tmp_path / "module.json"
        Artifact.from_result(result).save(path)
        restored = Artifact.load(path)
        validate(restored.graph)
        assert verify_equivalence(
            attention_graph, restored.graph, seeds=(0,)).passed

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "onnx"}')
        with pytest.raises(ValueError, match="not a SmartMem artifact"):
            Artifact.load(path)


class TestSplitOp:
    def test_split_shapes_and_execution(self):
        import numpy as np
        from repro.ir import GraphBuilder
        from repro.runtime import execute, make_inputs
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
        from repro.ir import GraphBuilder
        b = GraphBuilder()
        x = b.input("x", (2, 5))
        with pytest.raises(ValueError):
            b.split(x, 2, axis=1)

    def test_split_survives_pipeline(self):
        from repro.ir import GraphBuilder
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
