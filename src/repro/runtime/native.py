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
keeps its meaning.  The library is built once per host with ``gcc`` (no
``-march=native``) into ``$XDG_CACHE_HOME`` or ``~/.cache``, under
``repro/native/``; later processes only load it.  With no compiler, an
unwritable cache, or a failed build or load, every step binds numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
from pathlib import Path
from typing import Callable

import numpy as np

from .kernels import DEFAULT_EPS, _axes_tuple, get_kernel

SOURCE = r"""
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
void repro_norm(const float *x, const float *g, const float *b, float *out,
                ptrdiff_t rows, ptrdiff_t d, float eps, int center,
                int affine)
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
"""

FLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")

#: affine operands each op's reference kernel reads (scale, then shift)
MAX_AFFINE = {"layernorm": 2, "rmsnorm": 1}

_F32 = np.dtype(np.float32)

_CACHE: dict = {}
"""``"library"`` -> the loaded library or the reason there is none;
``(op, D, affine operands, eps type, eps)`` -> the certified callable, or
False.  Both fill through :func:`~repro.runtime.program.fill_once`."""


def compiler() -> str | None:
    """The C compiler the library is built with."""
    return shutil.which("gcc")


def _build():
    """The cached library's path, building it first on a miss; or a
    string saying why there is none."""
    cc = compiler()
    if cc is None:
        return "no C compiler (gcc) on PATH"
    try:
        # The compiler is identified by its file, not by running it: any
        # child process of a large process reports that process's RSS
        # as its own peak, so the warm path spawns nothing.
        real = os.path.realpath(cc)
        stat = os.stat(real)
        digest = hashlib.sha256("\0".join(
            (SOURCE, real, str(stat.st_size), str(stat.st_mtime_ns),
             *FLAGS, platform.machine())).encode())
        root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        path = Path(root, "repro", "native",
                    f"norms-{digest.hexdigest()[:16]}.so")
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            _compile(cc, path)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"native build failed: {exc}"
    return path


def _compile(cc: str, path: Path) -> None:
    """Build the library into ``path``, through a temp name unique to
    this process so concurrent builders never see a partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", str(tmp), "-lm"],
                       input=SOURCE, capture_output=True, text=True,
                       check=True, timeout=120)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _load():
    """The library, built first on a cold cache, with its signature
    declared; or the reason there is none.  A ``CDLL`` call releases the
    interpreter lock, so two threads' norms run in parallel."""
    path = _build()
    if isinstance(path, str):
        return path
    try:
        library = ctypes.CDLL(str(path))
    except OSError as exc:
        return f"native load failed: {exc}"
    library.repro_norm.restype = None
    library.repro_norm.argtypes = (ctypes.c_void_p,) * 4 \
        + (ctypes.c_ssize_t,) * 2 + (ctypes.c_float,) + (ctypes.c_int,) * 2
    return library


def _fill(key, build, *args):
    from .program import fill_once  # program.py imports this module
    return fill_once(_CACHE, key, build, *args)


def _library():
    """The loaded library, or the reason there is none.  A cold-cache
    build runs under the ``"library"`` key's own fill lock, so no other
    key's fill waits on the compiler."""
    return _fill("library", _load)


def unavailable() -> str | None:
    """Why nothing binds native in this process, or None when it can."""
    found = _library()
    return found if isinstance(found, str) else None


def _native_kernel(reference: Callable, center: int, d: int, n_affine: int,
                   eps: float) -> Callable:
    """The callable one certificate key binds: the C kernel over C-
    contiguous float32 operands of the certified extent, the reference
    for anything else."""
    norm = _library().repro_norm

    def kernel(inputs, attrs):
        x = inputs[0]
        if len(inputs) != 1 + n_affine or x.shape[-1] != d:
            return reference(inputs, attrs)
        for a in inputs:
            if a.dtype is not _F32 or not a.flags.c_contiguous:
                return reference(inputs, attrs)
        for a in inputs[1:]:
            if a.shape != (d,):
                return reference(inputs, attrs)
        out = np.empty(x.shape, _F32)
        g = inputs[1].ctypes.data if n_affine else None  # NULL: unread
        b = inputs[2].ctypes.data if n_affine == 2 else None
        norm(x.ctypes.data, g, b, out.ctypes.data, x.size // d, d, eps,
             center, n_affine)
        return out

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
    candidate = _native_kernel(reference, int(op == "layernorm"), d,
                               n_affine, eps)
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
