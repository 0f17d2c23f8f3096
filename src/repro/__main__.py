"""Library CLI: optimize a catalog model and report what happened.

    python -m repro Swin                       # optimize + cost on SD 8 Gen 2
    python -m repro Swin --device tesla-v100   # another device
    python -m repro Swin --compare             # against all frameworks
    python -m repro --list                     # available models/devices
"""

from __future__ import annotations

import argparse
from .baselines import ALL_FRAMEWORKS, make_framework
from .core import smartmem_optimize
from .ir.printer import summarize
from .models import ALL_MODELS, build
from .runtime import DEVICES, SD8GEN2, estimate
from .runtime.cost_model import CostModelConfig


_EPILOG = """\
other entry points:
  python -m repro.bench all              regenerate the paper tables/figures
  python -m repro.bench --all --timings  + perf trajectory (BENCH_pipeline.json:
                                         pass timings, serve.roofline,
                                         serve.symbolic)
  repro.compile / repro.serve            typed serving API (compile once, run
                                         many; micro-batching scheduler) - see
                                         the README quickstart

docs:
  README.md             install, quickstart, bench invocation, API migration
  docs/architecture.md  layer map + how to add a pass / an execution backend
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SmartMem: optimize a DNN model for mobile execution",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("model", nargs="?", help="catalog model name")
    parser.add_argument("--device", default=SD8GEN2.name,
                        choices=sorted(DEVICES))
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--compare", action="store_true",
                        help="also cost every baseline framework")
    parser.add_argument("--list", action="store_true",
                        help="list models and devices")
    args = parser.parse_args(argv)

    if args.list or not args.model:
        print("models: ", ", ".join(sorted(ALL_MODELS)))
        print("devices:", ", ".join(sorted(DEVICES)))
        return 0

    device = DEVICES[args.device]
    graph = build(args.model, batch=args.batch)
    print(summarize(graph))

    result = smartmem_optimize(graph)
    elim = result.elimination_stats
    print(f"SmartMem: {result.operator_count} kernels "
          f"(from {result.source_operator_count} operators); eliminated "
          f"{elim.total_eliminated} layout transforms {dict(elim.eliminated)}")
    report = estimate(graph=result.graph, device=device, plan=result.plan,
                      config=CostModelConfig(
                          extra_efficiency=result.extra_efficiency))
    print(f"{device.name}: {report.latency_ms:.1f} ms, "
          f"{report.gmacs_per_s:.0f} GMACS, "
          f"peak memory {report.peak_memory_bytes / 2**20:.0f} MiB")

    if args.compare:
        print("\nframework comparison:")
        for fw_name in ALL_FRAMEWORKS:
            fw_result = make_framework(fw_name).compile(graph, device)
            if not fw_result.supported:
                print(f"  {fw_name:8s} -            ({fw_result.reason})")
                continue
            fw_report = fw_result.cost(device)
            print(f"  {fw_name:8s} {fw_report.latency_ms:10.1f} ms  "
                  f"({fw_report.latency_ms / report.latency_ms:.2f}x ours)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
