"""The compile path is content-addressed, compiles each key once, and
is bounded.

Contract: the harness's cell/core caches key a graph by
``Graph.fingerprint()``, so a structurally identical rebuilt graph
reuses one compile, one lowered program (with its ``backend_cache``),
one read-only parameter materialization and one cost report, while
every session keeps private pools and stats.  Two threads missing one
key get one compile.  Graph-keyed entries are an LRU over distinct
fingerprints: evicted programs are really freed, and re-serving a known
graph neither recompiles nor grows the process.
"""

import gc
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import repro
from repro.api import CompileOptions
from repro.bench import harness
from repro.bench.harness import cell_cache_stats, clear_cell_cache, run_cell
from repro.ir import GraphBuilder
from repro.ir.tensor import TensorSpec
from repro.models import SMOKE_CONFIGS, build_smoke
from repro.runtime import program
from repro.runtime.batching import rebatch
from repro.runtime.codegen_backend import emission_count
from repro.runtime.faults import FaultPlan
from repro.runtime.session import _compile_session, stable_model_key

from front_door import serve_batch, serve_one

SRC = str(Path(repro.__file__).resolve().parents[1])


def _mini(width=16):
    """A stackable chain; ``width`` makes structurally distinct graphs."""
    b = GraphBuilder("mini-cache")
    x = b.input("x", (1, 8, 16))
    y = b.layernorm(x)
    y = b.dense(y, width)
    y = b.relu(y)
    y = b.dense(y, 16)
    b.output(b.add(y, x))
    return b.finish()


def _same(got, want):
    assert set(got) == set(want)
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.fixture(autouse=True)
def empty_cache():
    """Every test starts from - and leaves - an empty compile cache."""
    clear_cell_cache()
    yield
    clear_cell_cache()


class TestContentKey:
    def test_identical_fresh_graphs_compile_once(self):
        first = _compile_session(_mini(), "Ours")
        before = cell_cache_stats()
        second = _compile_session(_mini(), "Ours")
        after = cell_cache_stats()
        assert before["misses"] == 1
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1
        assert after["graph_entries"] == 1
        # shared: everything that is a function of graph content
        assert second.program is first.program
        assert second.graph is first.graph
        assert second.report is first.report
        assert second._params is first._params
        # private: everything that is per session
        assert second is not first
        assert second.stats is not first.stats
        inputs = first.make_inputs(seed=3)
        _same(serve_one(second, dict(inputs)), serve_one(first, dict(inputs)))
        assert first.stats.requests == second.stats.requests == 1

    def test_one_key_function_for_both_caches(self):
        graph = _mini()
        key = stable_model_key(graph)
        assert key == ("graph", graph.fingerprint())
        assert key == stable_model_key(_mini())
        run_cell(graph, "Ours")
        assert [k[0] for k in harness._CELL_CACHE] == [key]
        assert [k[0] for k in harness._CORE_CACHE] == [key]
        assert not hasattr(harness, "model_cache_key")

    def test_graph_keys_normalized_by_fingerprint(self):
        first, second = build_smoke("ViT"), build_smoke("ViT")
        assert first is not second
        cell = run_cell(first, "Ours")
        assert run_cell(second, "Ours") is cell  # either object addresses it
        assert cell_cache_stats()["graph_entries"] == 1
        clear_cell_cache()
        assert cell_cache_stats()["graph_entries"] == 0
        assert run_cell(second, "Ours") is not cell

    def test_mutating_the_source_graph_misses(self):
        graph = _mini()
        first = run_cell(graph, "Ours")
        assert run_cell(graph, "Ours") is first
        graph.add_tensor(
            TensorSpec("late", (1, 8, 16), graph.tensors["x"].dtype))
        graph.add_node("unary", [graph.outputs[0]], ["late"],
                       {"func": "relu"})
        graph.mark_output("late")
        before = cell_cache_stats()
        second = run_cell(graph, "Ours")
        after = cell_cache_stats()
        assert second is not first
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"]
        assert "late" in second.result.graph.outputs
        assert "late" not in first.result.graph.outputs

    def test_cost_model_runs_at_compile_not_in_a_request(self, monkeypatch):
        session = _compile_session(_mini(), "Ours")

        def refuse(*args, **kwargs):
            raise AssertionError("cost model ran on the request path")

        monkeypatch.setattr(type(session._cell.result), "cost", refuse)
        serve_one(session, session.make_inputs(seed=0))
        assert session.stats.runs[-1].est_latency_ms \
            == session._cell.report.latency_ms


class TestSharedParameters:
    def test_writing_a_shared_parameter_raises(self):
        session = _compile_session(_mini(), "Ours")
        assert session._params
        for value in session._params.values():
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value[...] = 0

    def test_clearing_the_cache_drops_the_parameters(self):
        first = _compile_session(_mini(), "Ours")
        params = first._params
        clear_cell_cache()
        second = _compile_session(_mini(), "Ours")
        assert second._params is not params
        assert second.program is not first.program
        for name, value in params.items():
            assert value.tobytes() == second._params[name].tobytes()


class TestBoundedLRU:
    def test_evicted_program_is_freed(self):
        capacity = harness.GRAPH_CACHE_CAPACITY
        assert capacity >= 64
        model = repro.compile(_mini(8), CompileOptions())
        session = model.session
        serve_one(session, session.make_inputs(seed=0))
        serve_batch(session, [session.make_inputs(seed=s) for s in range(3)])
        variant = rebatch(session.program, 4)
        modules = [owner.backend_cache["codegen.module"]
                   for owner in (session.program, variant)]
        refs = [weakref.ref(obj) for obj in (
            session.program, session.graph, session._cell, variant,
            *modules)]
        del model, session, variant, modules
        gc.collect()
        assert all(ref() is not None for ref in refs)  # the cache owns them
        for index in range(capacity + 6):
            run_cell(_mini(17 + index), "Ours")
            assert cell_cache_stats()["graph_entries"] <= capacity
        stats = cell_cache_stats()
        assert stats["graph_entries"] == capacity
        assert stats["evictions"] == 7
        assert len(harness._CELL_CACHE) == len(harness._CORE_CACHE) \
            == capacity
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(harness, "GRAPH_CACHE_CAPACITY", 3)
        kept = run_cell(_mini(8), "Ours")
        run_cell(_mini(9), "Ours")
        run_cell(_mini(10), "Ours")
        assert run_cell(_mini(8), "Ours") is kept  # now most recent
        run_cell(_mini(11), "Ours")  # evicts width 9, not width 8
        before = cell_cache_stats()
        assert run_cell(_mini(8), "Ours") is kept
        run_cell(_mini(9), "Ours")
        after = cell_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1

    def test_registry_names_are_never_evicted(self, monkeypatch):
        monkeypatch.setattr(harness, "GRAPH_CACHE_CAPACITY", 2)
        named = run_cell("ViT", "MNN")
        for width in range(8, 14):
            run_cell(_mini(width), "Ours")
        assert cell_cache_stats()["graph_entries"] == 2
        assert run_cell("ViT", "MNN") is named

    def test_concurrent_compiles_keep_the_index_consistent(self, monkeypatch):
        """More threads than cores, a short switch interval, a capacity
        small enough that every thread evicts: no entry may be left
        outside the LRU index (it would never be evicted)."""
        monkeypatch.setattr(harness, "GRAPH_CACHE_CAPACITY", 4)
        graphs = [_mini(8 + i) for i in range(12)]
        errors = []

        def worker(offset):
            try:
                for step in range(60):
                    graph = graphs[(offset + step * 5) % len(graphs)]
                    cell = run_cell(graph, "Ours")
                    assert cell.params is cell.params
                    assert cell.report is cell.report
            except BaseException as err:  # noqa: BLE001 - reported below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        indexed = set(harness._GRAPH_LRU)
        assert len(indexed) <= 4
        for cache in (harness._CELL_CACHE, harness._CORE_CACHE):
            assert {key[0][1] for key in cache} <= indexed
        stats = cell_cache_stats()
        assert stats["hits"] + stats["misses"] == 6 * 60  # none lost
        assert not program._FILLING


def _at_once(*calls):
    """Each call in its own barrier-started thread, switching threads
    mid-compile; returns their results in order."""
    barrier = threading.Barrier(len(calls))
    got = [None] * len(calls)

    def run(index):
        barrier.wait()
        got[index] = calls[index]()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert None not in got
    return got


class TestOneCompilePerKey:
    """A miss compiles under its key's own in-flight lock: concurrent
    callers of one key get one compile - one program, one
    ``backend_cache`` - and other keys never wait on it."""

    def test_two_threads_compiling_one_key_share_one_cell(self):
        graph = build_smoke("Conformer")
        first, second = _at_once(lambda: run_cell(graph, "Ours"),
                                 lambda: run_cell(graph, "Ours"))
        assert first is second
        assert cell_cache_stats()["misses"] == 1

    def test_cells_sharing_a_core_share_one_compile(self):
        # check_memory splits the cell key, not the core key.
        graph = build_smoke("Conformer")
        loose, checked = _at_once(
            lambda: run_cell(graph, "Ours"),
            lambda: run_cell(graph, "Ours", check_memory=True))
        assert loose is not checked
        assert loose.result.program is checked.result.program
        assert len(harness._CORE_CACHE) == 1

    @pytest.mark.parametrize("door", ["compile", "serve"])
    def test_two_threads_at_one_door_get_one_program(self, door):
        graph = build_smoke("Conformer")
        opened = _at_once(lambda: getattr(repro, door)(graph),
                          lambda: getattr(repro, door)(graph))
        try:
            first, second = (getattr(got, "compiled", got)
                             for got in opened)
            assert first.program is second.program
            assert first.session is not second.session
        finally:
            for got in opened:
                got.close()

    def test_many_threads_count_one_miss_and_the_rest_hits(
            self, monkeypatch):
        graph = _mini()
        compiles = []
        compile_cell = harness._compile_cell

        def counted(*args):
            compiles.append(args[0])
            return compile_cell(*args)

        monkeypatch.setattr(harness, "_compile_cell", counted)
        cells = _at_once(*[lambda: run_cell(graph, "Ours")] * 4)
        assert len(compiles) == 1
        assert all(cell is cells[0] for cell in cells)
        stats = cell_cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 3)
        assert not program._FILLING

    def test_a_failed_compile_caches_nothing_and_frees_its_key(
            self, monkeypatch):
        graph = _mini()
        compile_cell = harness._compile_cell
        failures = [RuntimeError("compile failed")]

        def flaky(*args):
            if failures:
                raise failures.pop()
            return compile_cell(*args)

        monkeypatch.setattr(harness, "_compile_cell", flaky)
        with pytest.raises(RuntimeError, match="compile failed"):
            run_cell(graph, "Ours")
        assert not harness._CELL_CACHE
        assert not program._FILLING
        assert cell_cache_stats()["misses"] == 0
        cell = run_cell(graph, "Ours")  # the key is free to compile again
        assert run_cell(graph, "Ours") is cell
        assert cell_cache_stats()["misses"] == 1

    def test_a_waiter_behind_a_failed_compile_compiles_itself(
            self, monkeypatch):
        # The thread that fails raises; the one waiting on its key finds
        # nothing cached and compiles the key itself.
        graph = _mini()
        started, release = threading.Event(), threading.Event()
        compile_cell = harness._compile_cell
        calls = []

        def first_fails(*args):
            calls.append(threading.current_thread().name)
            if len(calls) == 1:
                started.set()
                release.wait(timeout=10)
                raise RuntimeError("compile failed")
            return compile_cell(*args)

        monkeypatch.setattr(harness, "_compile_cell", first_fails)
        errors, got = [], []

        def failing():
            try:
                run_cell(graph, "Ours")
            except RuntimeError as err:
                errors.append(err)

        failer = threading.Thread(target=failing, name="failer")
        waiter = threading.Thread(
            target=lambda: got.append(run_cell(graph, "Ours")),
            name="waiter")
        failer.start()
        try:
            assert started.wait(timeout=10)
            waiter.start()
            waiter.join(timeout=0.2)
            assert waiter.is_alive()  # parked on the failing key's lock
        finally:
            release.set()
            failer.join(timeout=60)
            waiter.join(timeout=60)
        assert not failer.is_alive() and not waiter.is_alive()
        assert len(errors) == 1
        assert calls == ["failer", "waiter"]
        assert got == [run_cell(graph, "Ours")]
        assert not program._FILLING

    def test_a_compile_waits_on_no_other_key(self, monkeypatch):
        # The table lock is held only to read or write the tables: while
        # one key compiles, a hit and another key's compile both finish.
        cached = run_cell(_mini(8), "Ours")
        slow = _mini(9)
        started, release = threading.Event(), threading.Event()
        compile_cell = harness._compile_cell

        def held(model, *args):
            if model is slow:
                started.set()
                release.wait(timeout=10)
            return compile_cell(model, *args)

        monkeypatch.setattr(harness, "_compile_cell", held)
        thread = threading.Thread(target=run_cell, args=(slow, "Ours"))
        thread.start()
        try:
            assert started.wait(timeout=10)
            assert run_cell(_mini(8), "Ours") is cached
            run_cell(_mini(10), "Ours")
            assert thread.is_alive()  # the slow compile is still held
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert cell_cache_stats()["misses"] == 3

    def test_threads_compiling_distinct_graphs_each_emit_once(self):
        # Distinct keys compile side by side, each under its own lock:
        # one program and one codegen emission per graph, no emission
        # bump lost, and outputs a solo compile's bytes.
        names = ("Conformer", "Pythia", "Swin", "ViT")

        def compile_and_serve(name):
            model = repro.compile(build_smoke(name), faults=FaultPlan())
            return model, model.run(model.make_request(seed=0)).outputs

        want = [compile_and_serve(name)[1] for name in names]
        clear_cell_cache()
        before = emission_count()
        got = _at_once(*[lambda name=name: compile_and_serve(name)
                         for name in names])
        assert emission_count() - before == len(names)
        programs = {id(model.program): model.program for model, _ in got}
        assert len(programs) == len(names)
        assert all("codegen.module" in program.backend_cache
                   for program in programs.values())
        for (_, outputs), solo in zip(got, want):
            _same(outputs, solo)


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
def test_hit_outputs_match_miss_outputs(name):
    options = CompileOptions()
    miss = repro.compile(build_smoke(name), options)
    request = miss.make_request(seed=11)
    want = {key: value.copy()
            for key, value in miss.run(request).outputs.items()}
    before = cell_cache_stats()
    hit = repro.compile(build_smoke(name), options)
    after = cell_cache_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 1
    assert hit.program is miss.program
    assert hit.session is not miss.session
    _same(hit.run(request).outputs, want)
    with repro.serve(build_smoke(name)) as service:
        _same(service.submit(request).result(30).outputs, want)
    assert cell_cache_stats()["misses"] == before["misses"]


@pytest.mark.parametrize("name", sorted(SMOKE_CONFIGS))
def test_either_backend_name_hits_one_entry(name):
    """``"numpy"`` and ``"codegen"`` name one runner, so they key one
    compile: the second name hits the first's entry and reuses its
    emitted module."""
    miss = repro.compile(build_smoke(name), CompileOptions(backend="numpy"))
    request = miss.make_request(seed=11)
    want = {key: value.copy()
            for key, value in miss.run(request).outputs.items()}
    before, emitted = cell_cache_stats(), emission_count()
    hit = repro.compile(build_smoke(name), CompileOptions(backend="codegen"))
    after = cell_cache_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 1
    assert hit.program is miss.program
    assert hit.session.backend == miss.session.backend == "numpy"
    _same(hit.run(request).outputs, want)
    assert emission_count() == emitted


def test_reserving_known_graphs_does_not_grow_the_process():
    """300 cold starts over 3 models, in a fresh process so ``ru_maxrss``
    (a high-water mark) reads this loop and nothing else.  The id-keyed
    cache pinned every graph: about 90 MB over the same loop."""
    script = """
import resource
import repro
from repro.models import build_smoke

MODELS = ("Pythia", "ViT", "Conformer")
requests = {}

def cycle(name):
    graph = build_smoke(name)
    with repro.serve(graph) as service:
        if name not in requests:
            requests[name] = service.compiled.make_request(seed=0)
        service.submit(requests[name]).result(30)

def peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

for name in MODELS:
    cycle(name)
start = peak_kb()
for index in range(300):
    cycle(MODELS[index % 3])
print((peak_kb() - start) / 1024.0)
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    grown_mb = float(done.stdout.strip().splitlines()[-1])
    assert grown_mb < 10.0, f"ru_maxrss grew {grown_mb:.1f} MB"
