"""Tests for the native normalisation tier (``repro.runtime.native``).

A ``layernorm`` / ``rmsnorm`` step binds the C kernel only when the C
kernel and the numpy reference return identical bytes for the step's
exact ``(op, D, affine operands, eps)``; everything else - and every
step when the library cannot be built - keeps numpy.  Tests that need
the library skip, with the reason, where it cannot be built or the run
is ``--numpy-kernels``.
"""

import hashlib
import subprocess
import sys
import sysconfig
import threading

import numpy as np
import pytest

from repro.core import smartmem_optimize
from repro.models import SMOKE_CONFIGS, build
from repro.runtime import get_backend, lower, make_inputs, native
from repro.runtime.faults import FaultPlan
from repro.runtime.kernels import get_kernel
from repro.runtime.program import fill_once
from repro.runtime.session import _admit, _compile_session

from front_door import serve_batch, serve_one

F32 = np.dtype(np.float32)

#: the ``kernel_open`` benchmark model
CONFORMER_MEDIUM = dict(frames=64, mels=80, dim=96, depth=2, heads=4)

UNAVAILABLE = native.unavailable()
needs_native = pytest.mark.skipif(
    UNAVAILABLE is not None, reason=f"native kernels off: {UNAVAILABLE}")

#: every D up to 39 (the sequential and 8-accumulator paths and their
#: tails), then the blocked/recursive boundaries and model widths
SWEEP_D = list(range(1, 40)) + [64, 96, 127, 128, 129, 136, 255, 256, 257,
                                768, 1000, 1024, 2048, 4096, 5120]
SWEEP_ROWS = (1, 2, 16, 33)


def _bind(op, d, n_affine, attrs=None, rank=3):
    shapes = [(1,) * (rank - 1) + (d,)] + [(d,)] * n_affine
    return native.bind(op, {"axes": -1} if attrs is None else attrs,
                       shapes, [F32] * (1 + n_affine), F32)


def _norm_steps(program):
    return [s for s in program.steps if s.op_type in native.MAX_AFFINE]


def _medium(batch=1):
    return build("Conformer", batch=batch, **CONFORMER_MEDIUM)


def assert_outputs_identical(got, want):
    assert set(got) == set(want)
    for key in want:
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


@pytest.fixture
def fresh_native(monkeypatch):
    """An empty library/certificate cache, restored afterwards."""
    monkeypatch.setattr(native, "_CACHE", {})
    return native


@needs_native
@pytest.mark.parametrize("op,n_affine", [
    ("layernorm", 0), ("layernorm", 1), ("layernorm", 2),
    ("rmsnorm", 0), ("rmsnorm", 1)])
def test_native_equals_reference_bytes_over_the_sweep(op, n_affine):
    reference = get_kernel(op)
    attrs = {"axes": -1}
    for d in SWEEP_D:
        kernel = _bind(op, d, n_affine)
        assert kernel is not None and kernel.native, (op, d, n_affine)
        rng = np.random.default_rng(d * 3 + n_affine)
        for rows in SWEEP_ROWS:
            x = (rng.standard_normal((1, rows, d)) * rng.uniform(0.1, 100)
                 + rng.uniform(-50, 50)).astype(np.float32)
            inputs = [x] + [rng.standard_normal(d).astype(np.float32)
                            for _ in range(n_affine)]
            got = kernel(inputs, attrs)
            want = reference(inputs, attrs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (op, d, n_affine, rows)


@needs_native
def test_one_callable_per_certificate_key():
    assert _bind("layernorm", 96, 2) is _bind("layernorm", 96, 2, rank=2)
    assert _bind("layernorm", 96, 2) is not _bind("layernorm", 96, 1)
    assert _bind("layernorm", 96, 2) is not _bind(
        "layernorm", 96, 2, {"axes": -1, "eps": 1e-6})


@needs_native
def test_anything_off_the_certified_path_runs_the_reference():
    kernel = _bind("layernorm", 16, 2)
    rng = np.random.default_rng(0)
    g, b = (rng.standard_normal(16).astype(np.float32) for _ in range(2))
    x = rng.standard_normal((4, 16, 3)).astype(np.float32)
    strided = x.transpose(0, 2, 1)  # last axis 16, not C-contiguous
    for inputs in ([strided, g, b], [strided.astype(np.float64), g, b]):
        want = get_kernel("layernorm")(inputs, {"axes": -1})
        got = kernel(inputs, {"axes": -1})
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_a_norm_over_a_non_last_axis_is_not_bound(fresh_native):
    assert native.bind("layernorm", {"axes": 1}, [(2, 8, 16), (8,), (8,)],
                       [F32] * 3, F32) is None
    assert native.bind("rmsnorm", {"axes": (1, 2)}, [(2, 8, 16)],
                       [F32], F32) is None
    assert not any(isinstance(key, tuple) for key in native._CACHE)


@needs_native
def test_a_float64_eps_fails_its_certificate(fresh_native):
    # np.float64 is a float, so the static conditions pass; the reference
    # then computes in double and the certificate refuses the key.
    eps = np.float64(1e-5)
    assert _bind("layernorm", 96, 2, {"axes": -1, "eps": eps}) is None
    assert native._CACHE[("layernorm", 96, 2, np.float64, 1e-5)] is False
    assert _bind("layernorm", 96, 2, {"axes": -1, "eps": 1e-5}) is not None


def test_other_dtypes_and_shapes_are_not_bound(fresh_native):
    f64 = np.dtype(np.float64)
    assert native.bind("layernorm", {}, [(2, 8)], [f64], f64) is None
    assert native.bind("layernorm", {}, [(2, 8), (1, 8)], [F32] * 2,
                       F32) is None
    assert native.bind("layernorm", {}, [(8,)], [F32], F32) is None
    assert native.bind("rmsnorm", {}, [(2, 8), (8,), (8,)], [F32] * 3,
                       F32) is None


def _outputs(program, graph):
    values = make_inputs(graph, seed=0)
    return get_backend("numpy").run(program, dict(values))


def _assert_off_binds_numpy(monkeypatch, name, stub, reason):
    """With ``native.<name>`` stubbed, ``unavailable()`` names ``reason``
    and every Conformer-medium norm step keeps numpy, same outputs."""
    graph = _medium()
    want = _outputs(lower(graph), graph)
    monkeypatch.setattr(native, name, stub)
    monkeypatch.setattr(native, "_CACHE", {})
    assert reason in native.unavailable()
    graph = _medium()
    program = lower(graph)
    norms = _norm_steps(program)
    assert len(norms) == 10
    assert all(s.kernel is get_kernel(s.op_type) for s in norms)
    assert_outputs_identical(_outputs(program, graph), want)


def test_no_compiler_binds_numpy_with_the_same_outputs(fresh_native,
                                                       monkeypatch):
    _assert_off_binds_numpy(monkeypatch, "compiler",
                            lambda: "/nonexistent/bin/gcc",
                            "native build failed")


def test_no_python_headers_binds_numpy_with_the_same_outputs(
        fresh_native, monkeypatch, tmp_path):
    _assert_off_binds_numpy(monkeypatch, "include_dir", lambda: str(tmp_path),
                            "Python.h")


def test_an_unwritable_cache_binds_numpy(fresh_native, monkeypatch,
                                          tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert native.unavailable() is not None
    assert _bind("layernorm", 96, 2) is None


@needs_native
def test_the_library_builds_once_into_the_cache_dir(fresh_native,
                                                     monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert native.unavailable() is None
    built = list((tmp_path / "repro" / "native").iterdir())
    assert [p.suffix for p in built] == [".so"]  # no temp file left
    stamp = built[0].stat().st_mtime_ns
    monkeypatch.setattr(native, "_CACHE", {})  # a later process
    assert native.unavailable() is None
    assert built[0].stat().st_mtime_ns == stamp


@pytest.mark.skipif(native.compiler() is None, reason="no gcc on PATH")
def test_the_cached_path_changes_with_the_ext_suffix(monkeypatch):
    cc, include = native.compiler(), native.include_dir()
    ours = sysconfig.get_config_var("EXT_SUFFIX")
    here = native._path(cc, include)
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
        ".cpython-399-other.so" if name == "EXT_SUFFIX" else real(name)))
    there = native._path(cc, include)
    assert here.name.endswith(ours)
    assert there.name.endswith(".cpython-399-other.so")
    assert there.stem.split(".")[0] != here.stem.split(".")[0]  # the hash


@needs_native
def test_a_warm_load_starts_no_process(fresh_native, monkeypatch, tmp_path):
    # A child of a large process reports that process's RSS as its own
    # peak, so loading a cached module must not run gcc or anything else.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert native.unavailable() is None  # the one cold build

    def refuse(*args, **kwargs):
        raise AssertionError("a warm load started a process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(native, "_CACHE", {})  # a later process
    assert native.unavailable() is None
    assert _bind("layernorm", 96, 2) is not None


@needs_native
def test_every_buffer_is_released_whether_served_or_refused():
    # A buffer taken and not released keeps a reference to its array, so
    # a leak on any path shows as a refcount that grows with the calls.
    kernel = _bind("layernorm", 16, 2)
    norm = native._library().norm
    rng = np.random.default_rng(0)
    x, g, b = (rng.standard_normal(shape).astype(np.float32)
               for shape in ((4, 16), (16,), (16,)))
    read_only = np.full((4, 16), 7.0, F32)
    read_only.flags.writeable = False
    cases = [  # out, inputs, served
        (np.full((4, 16), 7.0, F32), [x, g, b], True),
        (np.full((4, 16), 7.0, F32), [np.ascontiguousarray(x.T).T, g, b],
         False),  # x not C-contiguous
        (np.full((4, 16), 7.0, F32), [x, g.astype(np.float64), b], False),
        (np.full((4, 16), 7.0, F32), [x, g, b.reshape(1, 16)], False),
        (np.full((4, 15), 7.0, F32), [x, g, b], False),  # out's size
        (read_only, [x, g, b], False)]
    for out, inputs, served in cases:
        operands = [out, *inputs]
        before = [sys.getrefcount(a) for a in operands]
        for _ in range(1000):
            assert norm(out, 1e-5, True, *inputs) is served
            kernel(inputs, {"axes": -1})
        assert [sys.getrefcount(a) for a in operands] == before
        assert served or (out == 7.0).all()  # a refusal writes nothing


@needs_native
def test_two_threads_first_bind_share_one_library_and_callable(
        fresh_native, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))  # a cold cache
    builds = []
    compile_ = native._compile

    def counted(*args):
        builds.append(1)
        return compile_(*args)

    monkeypatch.setattr(native, "_compile", counted)
    barrier = threading.Barrier(2)
    got = [None, None]

    def bind_at_once(index):
        barrier.wait()
        got[index] = _bind("layernorm", 96, 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=bind_at_once, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got[0] is not None and got[0] is got[1]
    assert len(builds) == 1


@needs_native
def test_a_build_holds_no_fill_lock(fresh_native, monkeypatch, tmp_path):
    # A cold-cache build runs gcc for a few tenths of a second; lowering
    # a norm graph meanwhile must not block other threads' cache fills.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    started, release = threading.Event(), threading.Event()
    compile_ = native._compile

    def held(*args):
        started.set()
        release.wait(timeout=10)
        return compile_(*args)

    monkeypatch.setattr(native, "_compile", held)
    thread = threading.Thread(target=lower, args=(_medium(),))
    thread.start()
    try:
        assert started.wait(timeout=10)
        assert fill_once({}, "unrelated", lambda: 1) == 1
        assert thread.is_alive()  # the build is still held
    finally:
        release.set()
        thread.join(timeout=60)
    assert native.unavailable() is None


@needs_native
class TestConformerMedium:
    """The ``kernel_open`` model: every norm binds native, and every
    bytewise contract holds on it."""

    def test_every_norm_step_binds_native(self):
        norms = _norm_steps(lower(_medium()))
        assert len(norms) == 10
        assert all(getattr(s.kernel, "native", False) for s in norms)
        assert len({id(s.kernel) for s in norms}) == 1  # one key

    def test_stacked_16_equals_solo(self):
        session = _compile_session(_medium(), "Ours", faults=FaultPlan())
        assert all(s.kernel.native for s in _norm_steps(session.program))
        batch = [session.make_inputs(seed=s) for s in range(16)]
        outputs = serve_batch(session, [dict(b) for b in batch])
        assert all(run.batched for run in list(session.stats.runs)[-16:])
        for inputs, got in zip(batch, outputs):
            assert_outputs_identical(got, serve_one(session, dict(inputs)))

    def test_emitted_runner_equals_timing_walk(self):
        session = _compile_session(_medium(), "Ours", faults=FaultPlan())
        program = session.program
        assert all(s.kernel.native for s in _norm_steps(program))
        inputs = session.make_inputs(seed=3)
        values = _admit(session, dict(inputs))
        for execute, drops in program.op_list:
            execute(values)
            for name in drops:
                values.pop(name, None)
        assert_outputs_identical(
            serve_one(session, dict(inputs)),
            {name: values[name] for name in program.output_names})

    @pytest.mark.parametrize("extent", [3, 4])
    def test_symbolic_at_s_equals_concrete_at_s(self, extent):
        graph = _medium()
        signature = {name: (None,) + tuple(graph.tensors[name].shape)[1:]
                     for name in graph.inputs}
        symbolic = _compile_session(graph, "Ours", faults=FaultPlan(),
                                    signature=signature, max_extent=4)
        assert all(s.kernel.native for s in _norm_steps(symbolic.program))
        concrete = _compile_session(_medium(extent), "Ours",
                                    faults=FaultPlan())
        inputs = concrete.make_inputs(seed=extent)
        want = concrete.execute_values(
            [{**symbolic._params, **inputs}])[0][0][0]
        assert_outputs_identical(serve_one(symbolic, dict(inputs)), want)


def _zoo_digest():
    """sha256 over every output byte of the 20 smoke models and
    Conformer medium, optimised, lowered afresh and run on seeded
    inputs; also how many norm steps bound native."""
    digest, bound = hashlib.sha256(), 0
    graphs = [build(name, **config) for name, config in SMOKE_CONFIGS.items()]
    for graph in graphs + [_medium()]:
        graph = smartmem_optimize(graph).graph
        program = lower(graph)
        bound += sum(getattr(s.kernel, "native", False)
                     for s in _norm_steps(program))
        outputs = _outputs(program, graph)
        for key in sorted(outputs):
            digest.update(outputs[key].tobytes())
    return digest.hexdigest(), bound


@needs_native
def test_one_outputs_digest_with_native_on_and_off(fresh_native,
                                                   monkeypatch):
    on, bound = _zoo_digest()
    assert bound > 100
    monkeypatch.setattr(native, "_CACHE", {"library": "numpy kernels only"})
    off, bound = _zoo_digest()
    assert bound == 0
    assert on == off
