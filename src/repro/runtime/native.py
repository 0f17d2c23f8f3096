"""Native normalisation kernels, certified byte-identical to numpy.

A ``layernorm`` over a contiguous last axis is about ten numpy calls, so
at serving shapes it costs dispatch, not arithmetic (SmartMem's Q3:
implement each operation efficiently for its layout).  :data:`SOURCE`
is one C kernel for row-wise ``layernorm`` and ``rmsnorm`` that
replicates numpy op by op: numpy's pairwise float32 sum from ``0.0f``,
the mean divided in double and rounded, and every elementwise op rounded
on its own (no FMA contraction, no fast-math).  Replication is not
trusted: :func:`bind` gives a step the C kernel only when its exact
``(op, D, affine operands, eps)`` holds a *certificate* - the reference
and the C kernel, run in-process on a deterministic probe with the
step's own attrs, return identical bytes - so every bytewise contract
keeps its meaning.  The extension module is built once per host with
``gcc`` (no ``-march=native``) under ``$XDG_CACHE_HOME`` or ``~/.cache``;
later processes only import it.  With no compiler or ``Python.h``, an
unwritable cache, or a failed build or load, every step binds numpy.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import shutil
import subprocess
import sysconfig
from importlib.machinery import ExtensionFileLoader
from pathlib import Path
from typing import Callable

import numpy as np

from .kernels import DEFAULT_EPS, _axes_tuple, get_kernel

SOURCE = r"""
#include <Python.h>
#include <math.h>
#include <stddef.h>

/* numpy's FLOAT_pairwise_sum over LOAD(a, i), PW_BLOCKSIZE 128. */
#define PAIRWISE(NAME, LOAD)                                              \
static float NAME(const float *a, ptrdiff_t n)                            \
{                                                                         \
    if (n < 8) {                                                          \
        float res = 0.0f;                                                 \
        for (ptrdiff_t i = 0; i < n; i++)                                 \
            res += LOAD(a, i);                                            \
        return res;                                                       \
    }                                                                     \
    if (n <= 128) {                                                       \
        float r[8];                                                       \
        ptrdiff_t i;                                                      \
        for (int j = 0; j < 8; j++)                                       \
            r[j] = LOAD(a, j);                                            \
        for (i = 8; i < n - (n % 8); i += 8)                              \
            for (int j = 0; j < 8; j++)                                   \
                r[j] += LOAD(a, i + j);                                   \
        float res = ((r[0] + r[1]) + (r[2] + r[3])) +                     \
                    ((r[4] + r[5]) + (r[6] + r[7]));                      \
        for (; i < n; i++)                                                \
            res += LOAD(a, i);                                            \
        return res;                                                       \
    }                                                                     \
    ptrdiff_t n2 = n / 2;                                                 \
    n2 -= n2 % 8;                                                         \
    return NAME(a, n2) + NAME(a + n2, n - n2);                            \
}

#define VALUE(a, i) ((a)[i])
#define SQUARE(a, i) ((a)[i] * (a)[i])
PAIRWISE(pairwise_sum, VALUE)
PAIRWISE(pairwise_sum_sq, SQUARE)

/* np.mean's last step: the sum (reduced from 0.0f) over an intp count. */
static float mean_of(float sum, ptrdiff_t d)
{
    float acc = 0.0f;
    acc += sum;
    return (float)((double)acc / (double)d);
}

/* layernorm (center = 1) or rmsnorm (center = 0) of each d-wide row,
   times g (affine >= 1), plus b (affine == 2). */
static void repro_norm(const float *x, const float *g, const float *b,
                       float *out, ptrdiff_t rows, ptrdiff_t d, float eps,
                       int center, int affine)
{
    for (ptrdiff_t r = 0; r < rows; r++, x += d, out += d) {
        const float *c = x;  /* what is normalised: x, or x - mean */
        if (center) {
            float mean = mean_of(pairwise_sum(x, d), d);
            for (ptrdiff_t i = 0; i < d; i++)
                out[i] = x[i] - mean;
            c = out;
        }
        float s = sqrtf(mean_of(pairwise_sum_sq(c, d), d) + eps);
        for (ptrdiff_t i = 0; i < d; i++) {
            float v = c[i] / s;
            if (affine > 0)
                v = v * g[i];
            if (affine > 1)
                v = v + b[i];
            out[i] = v;
        }
    }
}

/* 1, holding obj's buffer in view, if it is a C-contiguous float32
   buffer of rank >= 1 (writable if asked); else 0, holding nothing. */
static int take(PyObject *obj, Py_buffer *view, int flags)
{
    if (PyObject_GetBuffer(obj, view,
                           flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) != 0) {
        PyErr_Clear();
        return 0;
    }
    if (view->format && strcmp(view->format, "f") == 0 && view->ndim >= 1)
        return 1;
    PyBuffer_Release(view);
    return 0;
}

/* norm(out, eps, center, x[, g[, b]]) -> bool: repro_norm of x into out,
   lock released, if every operand is taken, g and b are 1-D of x's last
   extent and out has x's size; else False.  Every buffer is released. */
static PyObject *norm(PyObject *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    if (nargs < 4 || nargs > 6 || !PyFloat_Check(args[1]))
        return PyErr_Format(PyExc_TypeError, "norm: bad arguments");
    float eps = (float)PyFloat_AS_DOUBLE(args[1]);
    int center = args[2] == Py_True;
    Py_buffer view[4], *out = &view[0], *x = &view[1];  /* then g, b */
    Py_ssize_t operands = nargs - 2, held = 0, d, served;
    while (held < operands
           && take(args[held ? held + 2 : 0], &view[held],
                   held ? PyBUF_SIMPLE : PyBUF_WRITABLE))
        held++;
    d = held == operands ? x->shape[x->ndim - 1] : 0;
    served = d > 0 && out->len == x->len;
    for (Py_ssize_t k = 2; served && k < operands; k++)
        served = view[k].ndim == 1 && view[k].shape[0] == d;
    if (served) {
        const float *g = operands > 2 ? view[2].buf : NULL;
        const float *b = operands > 3 ? view[3].buf : NULL;
        Py_BEGIN_ALLOW_THREADS
        repro_norm(x->buf, g, b, out->buf, x->len / 4 / d, d, eps, center,
                   (int)operands - 2);
        Py_END_ALLOW_THREADS
    }
    while (held > 0)
        PyBuffer_Release(&view[--held]);
    return PyBool_FromLong(served);
}

static PyMethodDef methods[] = {
    {"norm", (PyCFunction)(void (*)(void))norm, METH_FASTCALL, NULL}, {0}};
static PyModuleDef module = {PyModuleDef_HEAD_INIT, "repro_norms", NULL, 0,
                             methods};

PyMODINIT_FUNC PyInit_repro_norms(void) { return PyModuleDef_Init(&module); }
"""

FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")

#: affine operands each op's reference kernel reads (scale, then shift)
MAX_AFFINE = {"layernorm": 2, "rmsnorm": 1}

_F32 = np.dtype(np.float32)

_CACHE: dict = {}
"""``"library"`` -> the loaded module or the reason there is none;
``(op, D, affine operands, eps type, eps)`` -> the certified callable, or
False.  Both fill through :func:`~repro.runtime.program.fill_once`."""


def compiler() -> str | None:
    """The C compiler the module is built with."""
    return shutil.which("gcc")


def include_dir() -> str:
    """The directory holding this interpreter's ``Python.h``."""
    return sysconfig.get_paths()["include"]


def _path(cc: str, include: str) -> Path:
    """Where the module built by ``cc`` against ``include`` is cached.
    The compiler is identified by its file, not by running it: any child
    process of a large process reports that process's RSS as its own
    peak, so the warm path spawns nothing."""
    real = os.path.realpath(cc)
    stat = os.stat(real)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    digest = hashlib.sha256("\0".join(
        (SOURCE, real, str(stat.st_size), str(stat.st_mtime_ns), *FLAGS,
         platform.machine(), include, suffix)).encode())
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root, "repro", "native",
                f"norms-{digest.hexdigest()[:16]}{suffix}")


def _build():
    """The cached module's path, building it first on a miss; or a
    string saying why there is none."""
    cc, include = compiler(), include_dir()
    if cc is None:
        return "no C compiler (gcc) on PATH"
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return f"no CPython headers: {include}/Python.h is missing"
    try:
        path = _path(cc, include)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            _compile(cc, include, path)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"native build failed: {exc}"
    return path


def _compile(cc: str, include: str, path: Path) -> None:
    """Build the module into ``path``, through a temp name unique to
    this process so concurrent builders never see a partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([cc, *FLAGS, "-I", include, "-x", "c", "-", "-o",
                        str(tmp), "-lm"], input=SOURCE, capture_output=True,
                       text=True, check=True, timeout=120)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load():
    """The extension module, built first on a cold cache; or the reason
    there is none."""
    path = _build()
    if isinstance(path, str):
        return path
    loader = ExtensionFileLoader("repro_norms", str(path))
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader("repro_norms", loader))
        loader.exec_module(module)
    except ImportError as exc:
        return f"native load failed: {exc}"
    return module


def _fill(key, build, *args):
    from .program import fill_once  # program.py imports this module
    return fill_once(_CACHE, key, build, *args)


def _library():
    """The loaded module, or the reason there is none.  A cold-cache
    build runs under the ``"library"`` key's own fill lock, so no other
    key's fill waits on the compiler."""
    return _fill("library", _load)


def unavailable() -> str | None:
    """Why nothing binds native in this process, or None when it can."""
    found = _library()
    return found if isinstance(found, str) else None


def _native_kernel(reference: Callable, center: bool, d: int, n_affine: int,
                   eps: float) -> Callable:
    """The callable one certificate key binds: the C kernel over C-
    contiguous float32 operands of the certified extents (the interpreter
    lock released), the reference for anything it refuses."""
    norm = _library().norm

    def kernel(inputs, attrs):
        if len(inputs) == 1 + n_affine and inputs[0].shape[-1] == d:
            out = np.empty(inputs[0].shape, _F32)
            if norm(out, eps, center, *inputs):
                return out
        return reference(inputs, attrs)

    kernel.fresh = True
    kernel.native = True
    return kernel


def _noise(rows: int, d: int) -> np.ndarray:
    """Deterministic uniform noise in [-1, 1): splitmix64 of the element
    index.  (Not ``numpy.random``: importing it costs the first lowering
    ~10 ms.)"""
    z = np.arange(1, rows * d + 1, dtype=np.uint64).reshape(rows, d)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mul)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) / 2.0 ** 52 - 1.0


def _certify(op: str, rank: int, d: int, n_affine: int, eps, attrs):
    """The key's callable if it returns the reference's bytes on a probe
    where summation order shows in the bytes - 32 noise rows at scales
    1e-3..1e3 and offsets up to 1e3, 32 rows spanning six decades each,
    and a row of ``-0.0`` - else False."""
    reference = get_kernel(op)
    candidate = _native_kernel(reference, op == "layernorm", d, n_affine,
                               eps)
    u = _noise(96 + n_affine, d)
    k = np.arange(32)[:, None]
    x = np.vstack([u[:32] * 10.0 ** (k % 7 - 3) + (k % 4 == 1) * 1e3
                   - (k % 4 == 2) * 37.0, u[32:64] * 10.0 ** (u[64:96] * 3),
                   np.full((1, d), -0.0)])
    probe = [x.astype(np.float32).reshape((65,) + (1,) * (rank - 2) + (d,)),
             *u[96:].astype(np.float32)]
    want, got = reference(probe, attrs), candidate(probe, attrs)
    return want.dtype == got.dtype and want.tobytes() == got.tobytes() \
        and candidate


def bind(op: str, attrs: dict, arg_shapes, arg_dtypes,
         out_dtype) -> Callable | None:
    """The certified native kernel for one ``layernorm`` / ``rmsnorm``
    step, or None when the step keeps the reference kernel.

    Static conditions: float32 operands and output, the reduction over
    the last axis of a rank >= 2 activation with a concrete extent ``D``,
    1-D float32 scale/shift of extent ``D``, and a float ``eps``.
    """
    if unavailable() is not None:
        return None
    shape = arg_shapes[0]
    rank, d = len(shape), shape[-1] if shape else None
    n_affine = len(arg_shapes) - 1
    eps = attrs.get("eps", DEFAULT_EPS[op])
    if (rank < 2 or not isinstance(d, int) or d < 1
            or n_affine > MAX_AFFINE[op] or not isinstance(eps, float)
            or _axes_tuple(attrs, rank) != (rank - 1,)
            or out_dtype != _F32 or any(t != _F32 for t in arg_dtypes)
            or any(tuple(s) != (d,) for s in arg_shapes[1:])):
        return None
    return _fill((op, d, n_affine, type(eps), eps), _certify,
                 op, rank, d, n_affine, eps, attrs) or None
