"""CLI: regenerate the paper's tables and figures.

    python -m repro.bench all
    python -m repro.bench table8 fig8
    python -m repro.bench all --json results.json
    python -m repro.bench --all --timings

``--timings`` records the wall time and compile/cost-cache traffic of
every experiment, per-pass compile time, and the ``serve`` section (the
``roofline`` report: per smoke model, measured wall time vs static
bytes-moved / FLOPs / arithmetic intensity per kernel family; and the
``symbolic`` ratio: a request at a new in-bucket shape vs a cold
concrete compile), and writes the trajectory to ``BENCH_pipeline.json``
(override the path with ``--timings-out``).  Serving-performance claims
come from ``benchmarks/perf``, not from this file.
"""

from __future__ import annotations

import json
import sys
import time

from . import EXPERIMENTS
from .harness import cell_cache_stats, format_table, pass_timing_stats

TIMINGS_DEFAULT = "BENCH_pipeline.json"


def _pass_delta(before: dict, after: dict) -> dict:
    """Per-pass runs/wall-time spent inside one experiment."""
    delta = {}
    for name, entry in after.items():
        prev = before.get(name, {"runs": 0, "wall_s": 0.0})
        runs = entry["runs"] - prev["runs"]
        if runs:
            delta[name] = {"runs": runs,
                           "wall_s": round(entry["wall_s"] - prev["wall_s"], 4)}
    return delta


def main(argv: list[str]) -> int:
    argv = list(argv)
    json_path = None
    if "--json" in argv:
        idx = argv.index("--json")
        try:
            json_path = argv[idx + 1]
        except IndexError:
            print("--json requires a path")
            return 2
        argv = argv[:idx] + argv[idx + 2:]
    timings_path = TIMINGS_DEFAULT
    timings = "--timings" in argv
    if "--timings-out" in argv:
        idx = argv.index("--timings-out")
        try:
            timings_path = argv[idx + 1]
        except IndexError:
            print("--timings-out requires a path")
            return 2
        argv = argv[:idx] + argv[idx + 2:]
        timings = True  # an explicit output path implies --timings
    run_all = "--all" in argv
    argv = [a for a in argv if a not in ("--timings", "--all")]
    unknown_flags = [a for a in argv if a.startswith("--")]
    if unknown_flags:
        print(f"unknown flags: {unknown_flags}")
        return 2
    if run_all and argv:
        print(f"--all cannot be combined with explicit experiments: {argv}")
        return 2
    targets = argv or ["all"]
    if run_all or targets == ["all"]:
        targets = list(EXPERIMENTS)
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {list(EXPERIMENTS)}")
        return 2
    collected = []
    trajectory = []
    suite_start = time.perf_counter()
    for target in targets:
        before = cell_cache_stats()
        before_passes = pass_timing_stats()
        start = time.perf_counter()
        result = EXPERIMENTS[target]()
        wall_s = time.perf_counter() - start
        after = cell_cache_stats()
        trajectory.append({
            "experiment": target,
            "wall_s": round(wall_s, 4),
            "cells_computed": after["misses"] - before["misses"],
            "cache_hits": after["hits"] - before["hits"],
            "passes": _pass_delta(before_passes, pass_timing_stats()),
        })
        experiments = result if isinstance(result, list) else [result]
        for experiment in experiments:
            print(experiment.render())
            print()
            collected.append(experiment.to_json())
    total_s = time.perf_counter() - suite_start
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(collected, handle, indent=2)
        print(f"wrote {len(collected)} experiments to {json_path}")
    if timings:
        stats = cell_cache_stats()
        pass_stats = {
            name: {"runs": entry["runs"], "wall_s": round(entry["wall_s"], 4)}
            for name, entry in sorted(pass_timing_stats().items())
        }
        serve = None
        if targets == list(EXPERIMENTS):
            # The serve section belongs to the full-suite trajectory
            # (the CI mode); profiling a single experiment skips its
            # 20-model walk.  Imported lazily for the same reason.
            from .serving import measure_serving

            serve = measure_serving()
        payload = {
            "suite": targets,
            "total_s": round(total_s, 4),
            "cell_cache": stats,
            "pass_timings": pass_stats,
            "experiments": trajectory,
        }
        if serve is not None:
            payload["serve"] = serve
        with open(timings_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(format_table(
            ["Experiment", "wall (s)", "cells", "cache hits"],
            [[t["experiment"], f"{t['wall_s']:.3f}", str(t["cells_computed"]),
              str(t["cache_hits"])] for t in trajectory],
            title="== Pipeline timings =="))
        print(f"total: {total_s:.3f}s  cell cache: {stats['hits']} hits / "
              f"{stats['misses']} misses")
        if pass_stats:
            print(format_table(
                ["Pass", "runs", "wall (s)"],
                [[name, str(entry["runs"]), f"{entry['wall_s']:.3f}"]
                 for name, entry in pass_stats.items()],
                title="== Optimization-pass timings =="))
        if serve is not None:
            rows = []
            for model, entry in serve["roofline"]["models"].items():
                hot_name, hot = max(
                    entry["families"].items(),
                    key=lambda item: item[1]["time_ms"])
                rows.append([
                    model, str(entry["steps"]),
                    f"{entry['fused_chains']}/{entry['fused_steps']}",
                    f"{entry['scratch_kb']:.0f}",
                    f"{entry['run_ms']:.3f}",
                    hot_name, f"{hot['time_ms']:.3f}",
                    f"{hot['mb_moved']:.2f}", f"{hot['intensity']:.2f}",
                    f"{hot['us_per_step']:.1f}",
                    f"{hot['gflops_per_s']:.1f}"])
            print(format_table(
                ["Model", "steps", "groups/interiors", "scratch (KB)",
                 "run (ms)", "hot family", "hot (ms)", "hot (MB)",
                 "intensity", "us/step", "GFLOP/s"],
                rows,
                title="== Roofline (per-step measured walls vs static "
                      "traffic stamps; full detail in serve.roofline) =="))
            print(format_table(
                ["Model", "new shape (ms)", "cold compile (ms)",
                 "speedup", "buckets"],
                [[name, f"{entry['new_shape_request_ms']:.3f}",
                  f"{entry['cold_compile_request_ms']:.3f}",
                  f"{entry['speedup']:.1f}x",
                  str(entry["buckets_compiled"])]
                 for name, entry in serve["symbolic"]["models"].items()],
                title="== Symbolic shapes (first request at a new "
                      "in-bucket extent vs cold concrete compile) =="))
        print(f"wrote perf trajectory to {timings_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
