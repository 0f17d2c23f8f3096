"""CI gate for the kernel-floor optimisations.

Asserts, against a freshly generated ``BENCH_pipeline.json``:

* the codegen backend reports >0 fused chains on ViT (framework-lowered
  program - the Ours pipeline absorbs ViT's views into ``input_views``)
  and on Conformer (through the full Ours pipeline);
* ViT and Conformer steady-state codegen ``Session.run`` beat the
  committed PR-5 walls (1.175 ms / 1.047 ms) by >=1.15x;
* the ``serve.roofline`` section covers every smoke model;
* on the Conformer smoke row, a ``conv`` step costs at most 5x a
  ``gemm`` step (same run, same process - a ratio, not a wall): the
  depthwise conv must not pay Python dispatch per group again.

Usage: PYTHONPATH=src python scripts/check_kernel_floor.py [BENCH.json]
"""

import json
import sys

from repro.core import smartmem_optimize
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import compile_program, lower

#: Committed PR-5 steady-state codegen Session.run walls (ms) for the
#: kernel-bound models - the pre-kernel-floor baseline this PR attacks.
BASELINE_MS = {"ViT": 1.175, "Conformer": 1.047}
MIN_SPEEDUP = 1.15
#: conv us/step over gemm us/step on Conformer smoke: 9.5x with the
#: per-group loop, ~3.6x with the single gather + batched matmul.
MAX_CONV_OVER_GEMM = 5.0


def main(path: str = "BENCH_pipeline.json") -> int:
    vit = compile_program(lower(build("ViT", **SMOKE_CONFIGS["ViT"])))
    assert vit.fused_chains > 0, "codegen reports no fused chains on ViT"
    conformer_graph = smartmem_optimize(
        build("Conformer", **SMOKE_CONFIGS["Conformer"])).graph
    conformer = compile_program(lower(conformer_graph))
    assert conformer.fused_chains > 0, \
        "codegen reports no fused chains on Conformer"
    print(f"fused chains: ViT {vit.fused_chains} (raw program), "
          f"Conformer {conformer.fused_chains} (Ours program)")

    serve = json.load(open(path))["serve"]
    walls = serve["backends"]["models"]
    for model, baseline in BASELINE_MS.items():
        now = walls[model]["codegen_run_ms"]
        speedup = baseline / now if now else 0.0
        print(f"{model}: {now:.3f} ms vs {baseline} ms committed "
              f"baseline = {speedup:.2f}x")
        assert speedup >= MIN_SPEEDUP, (
            f"{model} codegen steady-state regressed: "
            f"{speedup:.2f}x < {MIN_SPEEDUP}x over the committed baseline")

    roofline = serve["roofline"]["models"]
    missing = sorted(set(SMOKE_CONFIGS) - set(roofline))
    assert not missing, f"serve.roofline missing models: {missing}"
    print(f"roofline covers all {len(roofline)} smoke models")

    families = roofline["Conformer"]["families"]
    conv, gemm = (families[key]["us_per_step"] for key in ("conv", "gemm"))
    print(f"Conformer: conv {conv:.1f} us/step vs gemm {gemm:.1f} us/step "
          f"= {conv / gemm:.1f}x (gate {MAX_CONV_OVER_GEMM:.0f}x)")
    assert conv <= MAX_CONV_OVER_GEMM * gemm, (
        f"Conformer conv costs {conv / gemm:.1f}x a gemm step per call "
        f"(> {MAX_CONV_OVER_GEMM:.0f}x): grouped conv is dispatch-bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
