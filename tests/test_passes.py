"""Tests for the pass-manager framework and the pipeline shim."""

import pytest

from repro.core import (
    Pass, PassContext, PassManager, PipelineStages, available_passes,
    canonical_passes, make_pass, pass_timing_stats, register_pass,
    smartmem_optimize,
)
from repro.core.elimination import (
    eliminate_dead_nodes, eliminate_layout_transforms,
)
from repro.core.fusion import SMARTMEM_POLICY, fuse
from repro.core.layout_selection import select_layouts
from repro.runtime import SD8GEN2, estimate, verify_equivalence


class TestCanonicalPasses:
    def test_default_pass_list(self):
        names = [p.name for p in canonical_passes()]
        assert names == ["lte", "dce", "index-simplify", "fusion",
                         "layout-select", "tuning", "lower"]

    def test_no_lte_drops_elimination_block(self):
        names = [p.name for p in canonical_passes(PipelineStages(lte=False))]
        assert names == ["fusion", "layout-select", "tuning", "lower"]

    def test_no_layout_selection_uses_default_layout(self):
        names = [p.name for p in canonical_passes(
            PipelineStages(layout_selection=False, full_texture=False))]
        assert "default-layout" in names
        assert "layout-select" not in names
        assert "tuning" not in names

    def test_configs_follow_stages(self):
        passes = {p.name: p for p in canonical_passes(
            PipelineStages(eliminate_slice=False, simplify_index=False,
                           full_texture=True, tuned_boost=1.2))}
        assert passes["lte"].config == {"include_slice": False}
        assert passes["index-simplify"].config == {"simplify": False}
        assert passes["tuning"].config == {"tuned_boost": 1.2}
        assert passes["layout-select"].config["texture_rank_min"] == 2

    def test_fusion_ablation_gets_none_policy(self):
        passes = {p.name: p for p in canonical_passes(
            PipelineStages(fusion=False))}
        assert passes["fusion"].config["policy"] is None


class TestShimEquivalence:
    """smartmem_optimize through the pass manager == the old hard-coded
    sequence, stage by stage."""

    @pytest.mark.parametrize("stages", [
        PipelineStages(),
        PipelineStages(lte=False),
        PipelineStages(fusion=False),
        PipelineStages(layout_selection=False, full_texture=False),
        PipelineStages(simplify_index=False),
        PipelineStages(eliminate_slice=False),
        PipelineStages(use_texture=False, full_texture=False),
    ])
    def test_matches_manual_sequence(self, attention_graph, stages):
        result = smartmem_optimize(attention_graph, stages)

        g = attention_graph.clone()
        if stages.lte:
            eliminate_layout_transforms(g, include_slice=stages.eliminate_slice)
            eliminate_dead_nodes(g)
        if stages.fusion:
            fuse(g, SMARTMEM_POLICY)
        else:
            for i, node in enumerate(g.iter_nodes()):
                node.group = i

        assert set(result.graph.nodes) == set(g.nodes)
        assert result.graph.num_operators == g.num_operators
        assert verify_equivalence(
            attention_graph, result.graph, seeds=(0,)).passed
        if stages.layout_selection:
            rank_min = 2 if stages.full_texture else 4
            plan = select_layouts(g, use_texture=stages.use_texture,
                                  texture_rank_min=rank_min)
            assert result.plan.layouts == plan.layouts

    def test_result_fields_preserved(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        assert result.source_operator_count == len(attention_graph.nodes)
        assert result.fusion_stats is not None
        assert result.elimination_stats is not None
        assert result.extra_efficiency == pytest.approx(1.1)


class TestInstrumentation:
    def test_pass_records_in_order(self, attention_graph):
        result = smartmem_optimize(attention_graph)
        assert [r.name for r in result.pass_records] == [
            "lte", "dce", "index-simplify", "fusion", "layout-select",
            "tuning", "lower"]
        assert all(r.wall_s >= 0 for r in result.pass_records)
        assert result.pass_timings["lte"] >= 0

    def test_pass_stats_content(self, attention_graph):
        records = {r.name: r for r in
                   smartmem_optimize(attention_graph).pass_records}
        assert records["lte"].stats["eliminated"] > 0
        assert records["layout-select"].stats["layouts"] > 0
        assert records["tuning"].stats["extra_efficiency"] == pytest.approx(1.1)

    def test_global_timing_accumulator_grows(self, attention_graph):
        before = pass_timing_stats().get("lte", {"runs": 0})["runs"]
        smartmem_optimize(attention_graph)
        after = pass_timing_stats()["lte"]["runs"]
        assert after == before + 1


class TestRegistry:
    def test_canonical_passes_registered(self):
        for name in ("lte", "dce", "index-simplify", "fusion",
                     "layout-select", "default-layout", "tuning", "lower"):
            assert name in available_passes()

    def test_make_pass_by_name(self):
        p = make_pass("lte", include_slice=False)
        assert p.name == "lte"
        assert p.config == {"include_slice": False}

    def test_unknown_pass_raises(self):
        with pytest.raises(KeyError):
            make_pass("frobnicate")

    def test_custom_pass_runs_in_manager(self, attention_graph):
        class CountOps(Pass):
            name = "count-ops"

            def run(self, ctx: PassContext) -> dict:
                return {"ops": len(ctx.graph.nodes)}

        pm = PassManager(canonical_passes() + [CountOps()])
        ctx = pm.run(attention_graph.clone(), PipelineStages())
        assert ctx.records[-1].name == "count-ops"
        assert ctx.records[-1].stats["ops"] == len(ctx.graph.nodes)

    def test_register_pass_requires_name(self):
        with pytest.raises(ValueError):
            @register_pass
            class Nameless(Pass):
                pass


class TestSimplifyIndexRecorded:
    """Regression for the formerly dead ``simplify_index`` ablation branch:
    the choice must land on the result and reach the cost model."""

    def test_choice_recorded_on_result(self, attention_graph):
        raw = smartmem_optimize(attention_graph,
                                PipelineStages(simplify_index=False))
        assert raw.simplify_index is False
        assert raw.cost_config().simplify_index is False
        simplified = smartmem_optimize(attention_graph)
        assert simplified.simplify_index is True
        assert simplified.cost_config().simplify_index is True

    def test_cost_model_sees_the_choice(self, attention_graph):
        """Costing an ablated module through its own cost_config() prices
        the raw index expressions - direct estimate() calls previously
        silently used the simplified default."""
        raw = smartmem_optimize(attention_graph,
                                PipelineStages(simplify_index=False))
        lat_raw = estimate(raw.graph, SD8GEN2, raw.plan,
                           raw.cost_config()).latency_ms
        simplified = smartmem_optimize(attention_graph)
        lat_simplified = estimate(simplified.graph, SD8GEN2, simplified.plan,
                                  simplified.cost_config()).latency_ms
        assert lat_raw > lat_simplified

    def test_cost_config_carries_tuning_boost(self, attention_graph):
        full = smartmem_optimize(attention_graph)
        assert full.cost_config().extra_efficiency == pytest.approx(1.1)
        partial = smartmem_optimize(attention_graph,
                                    PipelineStages(full_texture=False))
        assert partial.cost_config().extra_efficiency == 1.0

    def test_custom_tuning_pass_threads_through_context(self, attention_graph):
        """A TuningPass config that differs from the stages default must
        reach the context (and thus cost_config), not be recomputed."""
        from repro.core.passes import TuningPass

        passes = [p if p.name != "tuning" else TuningPass(tuned_boost=1.3)
                  for p in canonical_passes()]
        ctx = PassManager(passes).run(attention_graph.clone(),
                                      PipelineStages())
        assert ctx.extra_efficiency == pytest.approx(1.3)
