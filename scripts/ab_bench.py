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
``<out-dir>/change.json`` (``run.py --out`` lists), each record's
``host.commit`` rewritten to the commit that side measured (``run.py``
can only see the harness checkout's ``HEAD``): ``<commit>`` resolved
for the parent, ``HEAD`` for the change, with ``+dirty`` appended when
this checkout's ``src/`` has uncommitted changes.  The script ends
with ``run.py compare parent.json change.json``, whose exit code it
returns (non-zero: an end-to-end metric regressed past its bound).

The export is ``git archive``, not ``git worktree``: it leaves nothing
behind in ``.git`` and is removed with the temporary directory.  Run
nothing else on the box meanwhile, and claim a gain only on a seed that
was not used while the change was written.
"""

from __future__ import annotations

import argparse
import json
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
    git("archive", "-o", str(archive), ref, "src")
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into / "src"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                          text=True, check=True).stdout.strip()


def change_commit() -> str:
    """This checkout's ``HEAD``, ``+dirty`` if ``src/`` differs from it."""
    dirty = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "HEAD") + ("+dirty" if dirty else "")


def measure(src: Path, workload: str, seed: int, out: Path,
            commit: str) -> None:
    """One run of ``workload`` on ``src``, appended to ``out`` with
    ``host.commit`` set to ``commit``."""
    before = len(json.loads(out.read_text())) if out.exists() else 0
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=REPO, env=env, check=True)
    records = json.loads(out.read_text())
    for record in records[before:]:
        record["host"]["commit"] = commit
    out.write_text(json.dumps(records, indent=1))


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
        sides = {"parent": (export_src(args.ref, Path(scratch)), parent_out,
                            git("rev-parse", f"{args.ref}^{{commit}}")),
                 "change": (REPO / "src", change_out, change_commit())}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                print(f"-- pair {pair + 1}/{args.pairs}: {side}", flush=True)
                src, out, commit = sides[side]
                measure(src, args.workload, args.seed, out, commit)
    print(f"-- compare {parent_out} {change_out}", flush=True)
    return subprocess.run(
        [sys.executable, str(RUN), "compare", str(parent_out),
         str(change_out)], cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
