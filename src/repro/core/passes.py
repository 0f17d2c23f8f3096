"""Composable pass framework for the SmartMem optimization pipeline.

The pipeline is no longer a hard-coded function: each stage is a
:class:`Pass` with a name, a config, and per-run wall-time/stat
instrumentation, assembled by a :class:`PassManager`.  The canonical
SmartMem pass list is derived from :class:`PipelineStages` (the Fig. 8 /
ablation knobs) by :func:`canonical_passes`, so every stage toggle maps
onto the presence or configuration of a pass.

Registering a new pass::

    @register_pass
    class MyPass(Pass):
        name = "my-pass"

        def run(self, ctx: PassContext) -> dict:
            ... mutate ctx.graph / ctx.plan ...
            return {"what_changed": 42}   # shows up in PassRecord.stats

    pm = PassManager(canonical_passes(stages) + [MyPass()])
    ctx = pm.run(graph.clone(), stages)

``PassManager.run`` times every pass (``PassRecord.wall_s``) and feeds a
process-wide accumulator (:func:`pass_timing_stats`) that the bench CLI
writes into ``BENCH_pipeline.json`` (``--timings``), so compile-time
regressions are visible per pass, not just per experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..ir.graph import Graph
from .elimination import (
    eliminate_dead_nodes, eliminate_layout_transforms,
)
from .fusion import FusionPolicy, SMARTMEM_POLICY, fuse
from .layout_selection import default_plan, select_layouts


@dataclass(frozen=True)
class PipelineStages:
    """Which SmartMem optimizations are active.

    This is the *pass configuration* surface: :func:`canonical_passes`
    turns one of these into the concrete pass list, and the GA tuner can
    produce one with a measured ``tuned_boost``
    (:func:`repro.tuning.stage_config`).
    """

    lte: bool = True
    fusion: bool = True
    layout_selection: bool = True
    full_texture: bool = True
    """Texture layouts for every rank>=2 tensor (stage 4); when False,
    textures are limited to 4-d conv activations like the baselines."""
    use_texture: bool = True
    """Whether the device has a texture path at all (False on V100)."""
    simplify_index: bool = True
    """Strength reduction on eliminated-transform index expressions."""
    eliminate_slice: bool = True
    tuned_boost: float = 1.1
    """Extra kernel efficiency from the GA auto-tuner (stage 4)."""


@dataclass
class PassRecord:
    """Instrumentation for one executed pass."""

    name: str
    wall_s: float
    stats: dict = field(default_factory=dict)


class PassContext:
    """Mutable state threaded through a pass pipeline.

    Passes communicate exclusively through the context: the graph being
    rewritten, the layout plan once one is selected, per-stage statistics,
    and the recorded ablation choices the cost model needs later
    (``simplify_index``, ``extra_efficiency``).
    """

    def __init__(self, graph: Graph, stages: PipelineStages | None = None) -> None:
        self.graph = graph
        self.stages = stages or PipelineStages()
        self.plan = None
        self.program = None
        self.fusion_stats = None
        self.elimination_stats = None
        self.simplify_index: bool = self.stages.simplify_index
        self.extra_efficiency: float = 1.0
        self.records: list[PassRecord] = []


class Pass:
    """One pipeline stage: a named, configured graph/plan rewrite.

    Subclasses set :attr:`name`, accept their config as keyword arguments
    (stored in :attr:`config` for introspection), and implement
    :meth:`run`, optionally returning a stats dict for instrumentation.
    """

    name = "pass"

    def __init__(self, **config) -> None:
        self.config = dict(config)
        for key, value in config.items():
            setattr(self, key, value)

    def run(self, ctx: PassContext) -> dict | None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        conf = ", ".join(f"{k}={v!r}" for k, v in self.config.items())
        return f"{type(self).__name__}({conf})"


# ---------------------------------------------------------------------------
# pass registry
# ---------------------------------------------------------------------------

PASS_REGISTRY: dict[str, type[Pass]] = {}


def register_pass(cls: type[Pass]) -> type[Pass]:
    """Class decorator: make ``cls`` constructible by name."""
    if not cls.name or cls.name == Pass.name:
        raise ValueError(f"pass class {cls.__name__} needs a distinct name")
    PASS_REGISTRY[cls.name] = cls
    return cls


def make_pass(name: str, **config) -> Pass:
    """Instantiate a registered pass by name."""
    try:
        cls = PASS_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown pass {name!r}; available: {available_passes()}")
    return cls(**config)


def available_passes() -> list[str]:
    return sorted(PASS_REGISTRY)


# ---------------------------------------------------------------------------
# the SmartMem passes
# ---------------------------------------------------------------------------


@register_pass
class EliminationPass(Pass):
    """Layout transformation elimination (LTE; Section 3.2.1)."""

    name = "lte"

    def __init__(self, include_slice: bool = True) -> None:
        super().__init__(include_slice=include_slice)

    def run(self, ctx: PassContext) -> dict:
        stats = eliminate_layout_transforms(
            ctx.graph, include_slice=self.include_slice)
        ctx.elimination_stats = stats
        return {"eliminated": stats.total_eliminated,
                "views_attached": stats.views_attached,
                "kept_graph_outputs": stats.kept_graph_outputs}


@register_pass
class DeadNodeEliminationPass(Pass):
    """Drop nodes whose outputs are never consumed nor exported."""

    name = "dce"

    def run(self, ctx: PassContext) -> dict:
        return {"removed": eliminate_dead_nodes(ctx.graph)}


@register_pass
class IndexSimplificationPass(Pass):
    """Record whether eliminated-transform index expressions are
    strength-reduced (Index Comprehension; Section 4.3).

    The views themselves are identical either way - only the cost model's
    per-element index cost differs - so this pass records the choice on
    the context (and thus on ``OptimizeResult.cost_config()``) instead of
    rewriting the graph.  Disabling it reproduces the raw-index ablation.
    """

    name = "index-simplify"

    def __init__(self, simplify: bool = True) -> None:
        super().__init__(simplify=simplify)

    def run(self, ctx: PassContext) -> dict:
        ctx.simplify_index = self.simplify
        views = sum(len(n.input_views) for n in ctx.graph.iter_nodes())
        return {"simplify": self.simplify, "views": views}


@register_pass
class FusionPass(Pass):
    """Assign fusion groups; ``policy=None`` means singleton groups."""

    name = "fusion"

    def __init__(self, policy: FusionPolicy | None = SMARTMEM_POLICY) -> None:
        super().__init__(policy=policy)

    def run(self, ctx: PassContext) -> dict:
        if self.policy is None:
            for i, node in enumerate(ctx.graph.iter_nodes()):
                node.group = i
            return {"groups": len(ctx.graph.nodes), "fused": 0}
        ctx.fusion_stats = fuse(ctx.graph, self.policy)
        return {"groups": ctx.graph.num_operators,
                "policy": self.policy.name}


@register_pass
class LayoutSelectionPass(Pass):
    """Reduction-dimension-driven per-tensor layout selection."""

    name = "layout-select"

    def __init__(self, use_texture: bool = True,
                 texture_rank_min: int = 2) -> None:
        super().__init__(use_texture=use_texture,
                         texture_rank_min=texture_rank_min)

    def run(self, ctx: PassContext) -> dict:
        ctx.plan = select_layouts(ctx.graph, use_texture=self.use_texture,
                                  texture_rank_min=self.texture_rank_min)
        return {"layouts": len(ctx.plan.layouts),
                "copies": ctx.plan.num_copies}


@register_pass
class DefaultLayoutPass(Pass):
    """Baseline-style layouts (the layout-selection ablation)."""

    name = "default-layout"

    def __init__(self, use_texture: bool = True) -> None:
        super().__init__(use_texture=use_texture)

    def run(self, ctx: PassContext) -> dict:
        ctx.plan = default_plan(ctx.graph, use_texture=self.use_texture)
        return {"layouts": len(ctx.plan.layouts)}


@register_pass
class TuningPass(Pass):
    """Apply the auto-tuner's kernel-efficiency boost (stage 4).

    The boost is normally the static ``PipelineStages.tuned_boost``; the
    GA tuner can measure a graph-specific value and express it as a pass
    config through :func:`repro.tuning.stage_config`.
    """

    name = "tuning"

    def __init__(self, tuned_boost: float = 1.1) -> None:
        super().__init__(tuned_boost=tuned_boost)

    def run(self, ctx: PassContext) -> dict:
        ctx.extra_efficiency = self.tuned_boost
        return {"extra_efficiency": self.tuned_boost}


@register_pass
class LowerPass(Pass):
    """Lower the optimized graph to an ExecutionProgram: kernels
    pre-bound, input views captured per step, and a static
    buffer-slot plan register-allocated from the liveness schedule.

    Runs last, so ``OptimizeResult`` (and therefore the compile-core
    cache) carries the lowered program to every execution session; the
    lowering itself is memoized per graph generation, so the pass is a
    cache fill, never a duplicate.
    """

    name = "lower"

    def run(self, ctx: PassContext) -> dict:
        # Imported lazily: the runtime layer sits above the optimizer.
        from ..runtime.program import lower

        ctx.program = lower(ctx.graph)
        return {"steps": ctx.program.num_steps,
                "slots": ctx.program.slot_plan.num_slots}


# ---------------------------------------------------------------------------
# manager
# ---------------------------------------------------------------------------

_PASS_TIMINGS: dict[str, dict[str, float | int]] = {}


def _record_timing(name: str, wall_s: float) -> None:
    entry = _PASS_TIMINGS.setdefault(name, {"runs": 0, "wall_s": 0.0})
    entry["runs"] += 1
    entry["wall_s"] += wall_s


def pass_timing_stats() -> dict[str, dict[str, float | int]]:
    """Process-wide per-pass compile-time accumulator (copies)."""
    return {name: dict(entry) for name, entry in _PASS_TIMINGS.items()}


def clear_pass_timings() -> None:
    _PASS_TIMINGS.clear()


class PassManager:
    """Run an ordered pass list over a graph with instrumentation.

    The manager mutates the graph it is given (callers clone first when
    they need the source preserved), records a :class:`PassRecord` per
    pass on the returned context, and accumulates per-pass wall time into
    the process-wide :func:`pass_timing_stats`.
    """

    def __init__(self, passes: list[Pass], name: str = "smartmem") -> None:
        self.passes = list(passes)
        self.name = name

    def run(self, graph: Graph, stages: PipelineStages | None = None) -> PassContext:
        ctx = PassContext(graph, stages)
        for p in self.passes:
            start = time.perf_counter()
            stats = p.run(ctx) or {}
            wall_s = time.perf_counter() - start
            ctx.records.append(PassRecord(p.name, wall_s, stats))
            _record_timing(p.name, wall_s)
        return ctx

    def pass_names(self) -> list[str]:
        return [p.name for p in self.passes]


def canonical_passes(stages: PipelineStages | None = None) -> list[Pass]:
    """The SmartMem pipeline as a pass list, mirroring Fig. 8 staging.

    Stage toggles map onto pass presence/config exactly the way the
    original hard-coded pipeline branched, so results are identical.
    """
    stages = stages or PipelineStages()
    passes: list[Pass] = []
    if stages.lte:
        passes.append(EliminationPass(include_slice=stages.eliminate_slice))
        passes.append(DeadNodeEliminationPass())
        passes.append(IndexSimplificationPass(simplify=stages.simplify_index))
    passes.append(FusionPass(
        policy=SMARTMEM_POLICY if stages.fusion else None))
    if stages.layout_selection:
        passes.append(LayoutSelectionPass(
            use_texture=stages.use_texture,
            texture_rank_min=2 if stages.full_texture else 4))
    else:
        passes.append(DefaultLayoutPass(use_texture=stages.use_texture))
    if stages.full_texture:
        passes.append(TuningPass(tuned_boost=stages.tuned_boost))
    passes.append(LowerPass())
    return passes
