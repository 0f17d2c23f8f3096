"""Tier-1 self-test of the benchmark: ``--smoke`` runs of every workload
(one short round, no bounds) must be correct, name their metrics exactly
as ``BENCHMARK.json`` does, and be reproducible from the seed - and the
correctness check must be able to fail."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from perfkit import loadgen, spec  # noqa: E402

MANIFEST = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def launch(*args):
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every smoke run the tests below read, started together: the runs
    enforce no bounds, so sharing the CPUs costs only wall time."""
    out = tmp_path_factory.mktemp("perf")
    runs = {name: launch("--workload", name, "--out", str(out / name))
            for name in spec.WORKLOADS}
    runs["traced"] = launch("--workload", "dispatch_open", "--trace", "1",
                            "--out", str(out / "traced"))
    runs["corrupt"] = launch("--workload", "dispatch_open",
                             "--corrupt-reference",
                             "--out", str(out / "corrupt"))
    done = {}
    for name, process in runs.items():
        stdout, stderr = process.communicate(timeout=120)
        line = stdout.strip().splitlines()[-1] if stdout.strip() else "{}"
        done[name] = (process.returncode, json.loads(line), stderr)
    return done


def test_manifest_lists_what_the_benchmark_measures():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(spec.WORKLOADS)
    assert [tuple(m.values()) for m in MANIFEST["end_to_end"]] == \
        [tuple(row) for row in spec.END_TO_END]
    assert [tuple(m.values()) for m in MANIFEST["per_layer"]] == \
        [tuple(row) for row in spec.PER_LAYER]
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_is_correct_and_names_every_end_to_end_metric(
        smoke, workload):
    code, line, stderr = smoke[workload]
    assert code == 0, stderr
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    for name, metric in line["metrics"].items():
        unit = next(m["unit"] for m in MANIFEST["end_to_end"]
                    if m["name"] == name)
        assert metric["unit"] == unit and metric["value"] > 0, name


def test_traced_run_names_every_per_layer_metric(smoke):
    code, line, stderr = smoke["traced"]
    assert code == 0, stderr
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
    assert line["metrics"]["loadgen.error_rate"]["value"] == 0
    assert line["metrics"]["memory.pool.steady_allocs"]["value"] == 0
    assert line["metrics"]["runtime.shm.segments_leaked"]["value"] == 0


def test_corrupted_reference_fails_the_correctness_check(smoke):
    code, line, _ = smoke["corrupt"]
    assert code != 0
    assert not line["correct"] and line["failed"] > 0


def test_same_seed_gives_the_same_arrivals_and_inputs():
    signature = (("tokens", (1, 8), "int32"), ("audio", (1, 1, 4, 4),
                                               "float32"))

    def traffic(seed):
        offsets = loadgen.arrival_offsets(loadgen.stream(seed, 1000), 4000.0,
                                          256)
        pool = loadgen.request_pool(signature, loadgen.stream(seed, 0),
                                    [None, 3, 8])
        order = (loadgen.picks(loadgen.stream(seed, 2000), 64, 210),
                 loadgen.balanced_extents(loadgen.stream(seed, 0), 8, 64))
        return offsets, pool, order

    (offsets_a, pool_a, order_a), (offsets_b, pool_b, order_b) = \
        traffic(7), traffic(7)
    assert offsets_a.tobytes() == offsets_b.tobytes()
    assert order_a == order_b != traffic(8)[2]
    assert sorted(order_a[0][:64]) == list(range(64))
    assert sorted(order_a[1]) == sorted(list(range(1, 9)) * 8)
    for one, other in zip(pool_a, pool_b):
        assert one.keys() == other.keys()
        for name in one:
            assert one[name].shape == other[name].shape
            assert one[name].tobytes() == other[name].tobytes()
    assert pool_a[1]["tokens"].shape == (3, 8)
    assert not np.array_equal(offsets_a, traffic(8)[0])
