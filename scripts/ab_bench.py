#!/usr/bin/env python3
"""A/B another commit against this checkout on the serving benchmark.

    python scripts/ab_bench.py --ref <commit> --workload W \\
        [--pairs N] [--seed S] [--out-dir DIR]

The procedure a performance claim is held to (``benchmarks/perf``,
ROADMAP aim 1), as one command: ``<commit>``'s ``src/`` is exported
into a temporary directory, then N pairs of runs are taken with *this*
checkout's ``benchmarks/perf/run.py`` on both sides - ``PYTHONPATH``
pointed at the parent's ``src/`` for one run of the pair and at this
checkout's for the other, alternating which side goes first.  Each
side's records are appended to ``<out-dir>/parent.json`` and
``<out-dir>/change.json`` (``run.py --out`` lists), and the script ends
with ``run.py compare parent.json change.json``, whose exit code it
returns (non-zero: an end-to-end metric regressed past its bound).

The export is ``git archive``, not ``git worktree``: it leaves nothing
behind in ``.git`` and is removed with the temporary directory.  Run
nothing else on the box meanwhile, and claim a gain only on a seed that
was not used while the change was written.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUN = REPO / "benchmarks" / "perf" / "run.py"


def export_src(ref: str, into: Path) -> Path:
    """``<ref>``'s ``src/`` tree under ``into``; the path to it."""
    archive = into / "parent.tar"
    subprocess.run(["git", "archive", "-o", str(archive), ref, "src"],
                   cwd=REPO, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into / "src"


def measure(src: Path, workload: str, seed: int, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=REPO, env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--ref", required=True,
                        help="the parent commit to compare against")
    parser.add_argument("--workload", required=True,
                        help="one BENCHMARK.json workload")
    parser.add_argument("--pairs", type=int, default=10,
                        help="parent/change pairs (a claim needs >= 10)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", type=Path,
                        help="where parent.json / change.json are appended "
                        "(default: a fresh directory under the system tmp)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    out_dir = args.out_dir or Path(tempfile.mkdtemp(prefix="ab_bench-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    parent_out, change_out = out_dir / "parent.json", out_dir / "change.json"
    with tempfile.TemporaryDirectory(prefix="ab_bench-parent-") as scratch:
        sides = {"parent": (export_src(args.ref, Path(scratch)), parent_out),
                 "change": (REPO / "src", change_out)}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                print(f"-- pair {pair + 1}/{args.pairs}: {side}", flush=True)
                src, out = sides[side]
                measure(src, args.workload, args.seed, out)
    print(f"-- compare {parent_out} {change_out}", flush=True)
    return subprocess.run(
        [sys.executable, str(RUN), "compare", str(parent_out),
         str(change_out)], cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
