"""Quickstart: optimize Swin Transformer for a mobile GPU with SmartMem.

Run:  python examples/quickstart.py
"""

from repro import SD8GEN2, build_model, estimate_cost, optimize
from repro.baselines import make_framework
from repro.runtime import verify_equivalence

# 1. Build a model graph (operator-faithful Swin-T).
graph = build_model("Swin")
print(f"Swin-T: {len(graph.nodes)} operators, "
      f"{graph.num_params / 1e6:.1f}M params, "
      f"{graph.total_macs() / 1e9:.1f} GMACs")

# 2. Run the SmartMem pipeline: layout transformation elimination,
#    DNNFusion-style fusion, reduction-dimension layout selection,
#    2.5D texture mapping.
module = optimize(graph)
elim = module.elimination_stats
print(f"\nEliminated layout transformations: {dict(elim.eliminated)}")
print(f"Operators after optimization: {module.operator_count} "
      f"(from {module.source_operator_count})")
print(f"Remaining explicit transforms: {module.remaining_layout_transforms}")

# 3. Estimate latency on the paper's main platform (Snapdragon 8 Gen 2).
report = estimate_cost(module, SD8GEN2)
print(f"\nEstimated latency on {SD8GEN2.name}: {report.latency_ms:.1f} ms "
      f"({report.gmacs_per_s:.0f} GMACS)")

# 4. Compare against the strongest baseline, DNNFusion.
dnnf = make_framework("DNNF").compile(graph, SD8GEN2)
dnnf_report = dnnf.cost(SD8GEN2)
print(f"DNNFusion baseline: {dnnf_report.latency_ms:.1f} ms "
      f"-> speedup {dnnf_report.latency_ms / report.latency_ms:.2f}x "
      f"(paper: 4.4x on a real phone)")

# 5. The rewrites are semantics-preserving: verify numerically on a
#    downscaled Swin (full-size verification works too, just slower).
small = build_model("Swin", image=56, dim=24, depths=(1, 1), heads=(2, 4))
small_module = optimize(small)
assert verify_equivalence(small, small_module.graph).passed
print("\nNumerical check: optimized graph == original graph  [OK]")

# 6. To actually *serve* the optimized model, use the typed front door:
#    repro.compile wraps the whole pipeline plus lowering in a
#    CompiledModel (see examples/serving.py for repro.serve and the
#    micro-batching scheduler).
import repro

model = repro.compile(small)
response = model.run(model.make_request(seed=0))
print(f"served one request in {response.stats.wall_s * 1e3:.2f} ms "
      f"(estimated on-device: {response.stats.est_latency_ms:.1f} ms)")
