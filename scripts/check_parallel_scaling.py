"""CI gate for the multi-process parallel serving backend.

Asserts, against a freshly generated ``BENCH_pipeline.json``:

* the ``serve.parallel`` section is present and covers ViT and
  Conformer (the kernel-bound smoke pair);
* 4-worker aggregate serving RPS is >= 2x the single-process
  ``Session.run`` baseline on both models;
* parallel outputs were byte-identical to single-process serving on
  both the numpy and codegen inner backends (``parity`` flags).

Then runs a live crash-absorption check: a pool under an injected
``worker_crash`` fault must respawn the dead worker, re-dispatch the
shard, return byte-identical outputs, count the restart, and leave no
shared-memory segments behind after close.

Usage: PYTHONPATH=src python scripts/check_parallel_scaling.py [BENCH.json]
"""

import json
import sys

from repro.api import CompileOptions, InferenceRequest, ServeOptions, serve
from repro.models import build_smoke
from repro.runtime import FaultPlan, FaultRule, active_segments
from repro.runtime.session import _compile_session

GATED_MODELS = ("ViT", "Conformer")
MIN_SCALING = 2.0


def check_bench(path: str) -> None:
    parallel = json.load(open(path))["serve"]["parallel"]
    models = parallel["models"]
    missing = sorted(set(GATED_MODELS) - set(models))
    assert not missing, f"serve.parallel missing models: {missing}"
    for name in GATED_MODELS:
        entry = models[name]
        sequential = entry["sequential_rps"]
        four = entry["parallel_rps"]["4"]
        scaling = four / sequential if sequential else 0.0
        print(f"{name}: 4-worker {four} RPS vs sequential {sequential} RPS "
              f"= {scaling:.2f}x")
        assert scaling >= MIN_SCALING, (
            f"{name}: 4-worker aggregate RPS is only {scaling:.2f}x the "
            f"single-process baseline (< {MIN_SCALING}x)")
        assert entry["parity"], f"{name}: parallel outputs not byte-identical"
        assert entry["codegen_parity"], (
            f"{name}: parallel-codegen outputs not byte-identical")


def check_crash_absorption() -> None:
    graph = build_smoke("ViT")
    reference = _compile_session(graph, "Ours")
    inputs = [reference.make_inputs(seed=seed) for seed in range(64)]
    expected = [reference.run(dict(values)) for values in inputs]

    plan = FaultPlan(rules=(
        FaultRule(kind="worker_crash", probability=1.0, times=2),))
    service = serve(graph, ServeOptions(
        backend="parallel", workers=2, max_batch_size=32,
        compile=CompileOptions(faults=plan)))
    try:
        futures = [service.submit(InferenceRequest(inputs=values))
                   for values in inputs]
        responses = [f.result() for f in futures]
        report = service.report()
    finally:
        service.close()
    for response, outputs in zip(responses, expected):
        for key, value in outputs.items():
            assert response.outputs[key].tobytes() == value.tobytes(), (
                f"outputs diverged after worker crash (tensor {key!r})")
    assert report.worker_restarts >= 1, (
        "injected worker_crash fault produced no counted restart")
    leaked = active_segments()
    assert not leaked, f"shared-memory segments leaked: {leaked}"
    print(f"crash absorption: {report.worker_restarts} restart(s), "
          f"byte-identical outputs, no leaked segments")


def main(path: str = "BENCH_pipeline.json") -> int:
    check_bench(path)
    check_crash_absorption()
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
