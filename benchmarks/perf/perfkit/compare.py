"""``run.py compare A.json B.json``: did B change anything A measured?

A and B are result lists as ``run.py --out`` appends them: at least ten
untraced runs per workload on each side, taken in alternation (A, B, B,
A, ...) with this benchmark's code on both.  Run *i* of A is paired with
run *i* of B.  Per (workload, end-to-end metric) the verdict is

* **improved** - B wins at least nine tenths of at least ten pairs (ties
  count for neither), the medians differ by more than the distance
  between A's quartiles, and B failed no more operations than A;
* **regressed** - B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* **unresolved** - neither of the above, and A's own quartile spread is
  wider than the bound, so "no regression" cannot be told from noise
  (unless every run of B reads better than every run of A);
* **within noise** - otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


def load(path: str) -> dict:
    """``{workload: [record, ...]}`` of the untraced, valid runs."""
    records = json.loads(Path(path).read_text())
    if isinstance(records, dict):
        records = [records]
    by_workload: dict[str, list] = {}
    for record in records:
        if not record["trace"] and not record["smoke"] and record["valid"]:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def verdict(a: list[float], b: list[float], better: str, bound: float,
            failed_a: int, failed_b: int) -> tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    median_a, median_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0],) * 3
    spread = (q3 - q1) / abs(median_a) if median_a else 0.0
    gain = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    detail = {"pairs": len(pairs), "wins": wins, "losses": losses,
              "median_a": median_a, "median_b": median_b,
              "spread_a": spread, "gain": gain}
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) \
            and abs(median_b - median_a) > q3 - q1 and gain > 0 \
            and failed_b <= failed_a:
        return "improved", detail
    if -gain > bound:
        return "regressed", detail
    clean_sweep = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not clean_sweep:
        return "unresolved", detail
    return "within noise", detail


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    metrics = json.loads(MANIFEST.read_text())["end_to_end"]
    side_a, side_b = load(argv[0]), load(argv[1])
    regressed = False
    print(f"{'workload':<15}{'metric':<17}{'verdict':<14}{'median A':>12}"
          f"{'median B':>12}{'B vs A':>9}{'A spread':>10}{'wins':>7}")
    for workload in side_a:
        runs_a, runs_b = side_a[workload], side_b.get(workload, [])
        if not runs_b:
            continue
        failed_a = sum(r["failed"] for r in runs_a)
        failed_b = sum(r["failed"] for r in runs_b)
        for metric in metrics:
            name = metric["name"]
            word, d = verdict(
                [r["end_to_end"][name]["value"] for r in runs_a],
                [r["end_to_end"][name]["value"] for r in runs_b],
                metric["better"], metric["bound"], failed_a, failed_b)
            regressed |= word == "regressed"
            print(f"{workload:<15}{name:<17}{word:<14}{d['median_a']:>12.4f}"
                  f"{d['median_b']:>12.4f}{d['gain'] * 100:>+8.1f}%"
                  f"{d['spread_a'] * 100:>9.1f}%"
                  f"{d['wins']:>4}/{d['pairs']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
