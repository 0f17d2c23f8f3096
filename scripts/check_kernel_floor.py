"""CI gate for the kernel-floor optimisations.

Asserts, against a freshly generated ``BENCH_pipeline.json``:

* the codegen backend reports >0 fused chains on ViT (framework-lowered
  program - the Ours pipeline absorbs ViT's views into ``input_views``)
  and on Conformer (through the full Ours pipeline);
* ViT and Conformer steady-state codegen ``Session.run`` beat the
  committed PR-5 walls (1.175 ms / 1.047 ms) by >=1.15x;
* the ``serve.roofline`` section covers every smoke model;
* on the Conformer smoke row, a ``conv`` step costs at most 6.5x a
  ``gemm`` step (same run, same process - a ratio, not a wall): the
  depthwise conv must not pay Python dispatch per group again;
* on Conformer medium (the ``kernel_open`` benchmark model), the summed
  solo ``dense`` step wall is at most 1.5x the summed bare
  ``np.matmul(x, w_kn, out=...)`` wall at the same shapes (same process,
  interleaved - a ratio, not a wall): a ``dense`` step must cost what
  its GEMM costs, not a layout transformation on top of it.

Usage: PYTHONPATH=src python scripts/check_kernel_floor.py [BENCH.json]
"""

import json
import sys
import time

import numpy as np

from repro.core import smartmem_optimize
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import compile_program, lower
from repro.runtime.session import _compile_session

#: Committed PR-5 steady-state codegen Session.run walls (ms) for the
#: kernel-bound models - the pre-kernel-floor baseline this PR attacks.
BASELINE_MS = {"ViT": 1.175, "Conformer": 1.047}
MIN_SPEEDUP = 1.15
#: conv us/step over gemm us/step on Conformer smoke: ~11x with the
#: per-group loop, ~4.4x with the single gather + batched matmul.  (The
#: denominator fell 4.9 -> 4.0 us/step when dense weights were packed
#: into the GEMM's layout; against the old one these read 9.5x / 3.6x
#: and the gate was 5x.)
MAX_CONV_OVER_GEMM = 6.5
#: benchmarks/perf's ``kernel_open`` model (perfkit/spec.py).
CONFORMER_MEDIUM = dict(frames=64, mels=80, dim=96, depth=2, heads=4)
#: summed dense step wall over summed bare matmul wall on Conformer
#: medium: 2.6x+ on a transposed weight view, ~1.2x on the packed operand
#: (the rest is the bias add and one closure call per step).
MAX_DENSE_OVER_MATMUL = 1.5


def _best(fn, repeats: int) -> float:
    perf = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        start = perf()
        fn()
        best = min(best, perf() - start)
    return best


def dense_over_matmul(repeats: int = 300) -> tuple[float, float]:
    """``(summed dense step wall, summed bare matmul wall)`` in seconds
    over one solo pass of Conformer medium, best-of-``repeats`` each."""
    session = _compile_session(build("Conformer", **CONFORMER_MEDIUM), "Ours")
    program = session.program
    values = session._admit(session.make_inputs())
    step_s = bare_s = 0.0
    for step, (execute, drops) in zip(program.steps, program.op_list):
        execute(values)
        if step.op_type == "dense":
            x, w_kn = (values[name] for name in step.arg_names[:2])
            for idx, apply in step.appliers:
                if idx == 0:
                    x = apply(x)
            out = np.empty_like(values[step.out_names[0]])
            step_s += _best(lambda: execute(values), repeats)
            bare_s += _best(lambda: np.matmul(x, w_kn, out=out), repeats)
        for name in drops:
            values.pop(name, None)
    return step_s, bare_s


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
          f"= {conv / gemm:.1f}x (gate {MAX_CONV_OVER_GEMM}x)")
    assert conv <= MAX_CONV_OVER_GEMM * gemm, (
        f"Conformer conv costs {conv / gemm:.1f}x a gemm step per call "
        f"(> {MAX_CONV_OVER_GEMM}x): grouped conv is dispatch-bound")

    step_s, bare_s = dense_over_matmul()
    ratio = step_s / bare_s
    print(f"Conformer medium: dense steps {step_s * 1e6:.0f} us vs bare "
          f"np.matmul {bare_s * 1e6:.0f} us = {ratio:.2f}x "
          f"(gate {MAX_DENSE_OVER_MATMUL}x)")
    assert ratio <= MAX_DENSE_OVER_MATMUL, (
        f"dense steps cost {ratio:.2f}x their bare GEMMs "
        f"(> {MAX_DENSE_OVER_MATMUL}x): the weight is not read in the "
        f"GEMM's layout")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
