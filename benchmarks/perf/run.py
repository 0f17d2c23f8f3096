#!/usr/bin/env python3
"""Open-loop serving and cold-start benchmark with a per-layer budget.

    PYTHONPATH=src python benchmarks/perf/run.py \\
        [--workload W] [--seed N] [--seconds S] [--trace] [--smoke] [--out PATH]
    python benchmarks/perf/run.py compare A.json B.json

Each workload runs in a fresh subprocess (``perfkit.measure``) started
with the BLAS thread caps in its environment; this process imports
neither numpy nor ``repro``.  Every metric is printed by name with its
unit and sample count, the full record is written under
``benchmarks/perf/results/``, and the last line of standard output is the
JSON object ``BENCHMARK.json``'s contract asks for.  The exit code is
non-zero when any operation failed its correctness check.

See README.md next to this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
"""Fresh subprocesses whose set-up time is taken; ``setup_s`` is their
median (the measuring subprocess is one of them)."""
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="traced run: per-layer metrics and trace.json")
    parser.add_argument("--smoke", action="store_true",
                        help="one short round, one set-up sample, no bounds")
    parser.add_argument("--out", help="append the result record(s) to this "
                        "JSON list instead of results/<workload>/")
    # Below: how this file starts its measuring subprocesses.
    parser.add_argument("--role", choices=("measure", "setup"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args) -> int:
    """One workload, in this (fresh) process; ``spawn`` put the BLAS
    thread caps in its environment, so numpy is first imported under
    them."""
    from perfkit import measure

    print(json.dumps(measure.main(args)))
    return 0


def spawn(args, role: str, extra=()) -> dict:
    """Run one measuring subprocess to its end; its result record."""
    env = dict(os.environ)
    for key in THREAD_CAPS:
        env[key] = "1"
    # Appended, so a PYTHONPATH naming another checkout's src/ wins and
    # that checkout is measured with this benchmark code.
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), str(REPO / "src")) if p)
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--spawned", repr(time.time()), *extra]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # its worker processes too
        child.communicate()
        raise SystemExit(f"{args.workload}: measuring subprocess timed out")
    if child.returncode != 0:
        raise SystemExit(f"{args.workload}: measuring subprocess exited "
                         f"with code {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # an exported checkout is not a git repository


def run_workload(args) -> dict:
    results_dir = HERE / "results" / args.workload
    results_dir.mkdir(parents=True, exist_ok=True)
    setups = []
    if not args.smoke and not args.trace:
        setups = [spawn(args, "setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    extra = ("--trace-out", str(results_dir / "trace.json")) \
        if args.trace else ()
    result = spawn(args, "measure", extra)
    setups.append(result["end_to_end"]["setup_s"]["value"])
    result["setup_samples"] = setups
    result["end_to_end"]["setup_s"].update(
        value=statistics.median(setups), rounds=len(setups))
    result["host"]["commit"] = commit()
    result["seconds"] = args.seconds
    return result


def reported(result: dict) -> dict:
    """The metrics a run answers with: per-layer if traced."""
    return result["per_layer"] if result["trace"] else result["end_to_end"]


def report(result: dict) -> None:
    status = "valid" if result["valid"] else \
        "INVALID (" + "; ".join(result["invalid_reasons"]) + ")"
    host = result["host"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{len(result['rounds'])} rounds  {status}  "
          f"host noise {result['host_noise_pct']:.1f}%")
    print(f"   host: nproc {host['nproc']}, affinity "
          f"{host['sched_getaffinity']}, workers {host['workers']}, "
          f"{host['blas']} threads {host['blas_threads']}, numpy "
          f"{host['numpy']}, python {host['python']}, commit "
          f"{host['commit'][:12]}")
    for name, entry in reported(result).items():
        print(f"   {name:<42} {entry['value']:>14.4f} {entry['unit']:<6} "
              f"n = {entry['rounds']} x {entry['samples_per_round']}")
    print(f"   operations: {result['attempted']} attempted, "
          f"{result['failed']} failed {result['failures'] or ''}")
    if result.get("trace_file"):
        print(f"   {result['spans']} spans in {result['trace_file']}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in reported(result).items()},
    })


def save(results: list, args) -> None:
    if args.out:
        path = Path(args.out)
        previous = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(previous + results, indent=1))
        return
    for result in results:
        suffix = "-trace" if result["trace"] else ""
        path = HERE / "results" / result["workload"] / \
            f"run-seed{result['seed']}{suffix}.json"
        path.write_text(json.dumps(result, indent=1))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from perfkit import compare

        return compare.main(argv[1:])
    args = parse_args(argv)
    if args.role:
        return child_main(args)
    from perfkit import spec

    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    unknown = [name for name in names if name not in spec.WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload {unknown[0]!r}; "
                         f"choose from {sorted(spec.WORKLOADS)}")
    results = []
    for name in names:
        args.workload = name
        results.append(run_workload(args))
        report(results[-1])
    save(results, args)
    for result in results:
        print(contract_line(result))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
