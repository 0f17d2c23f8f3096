"""NumPy reference kernels for every operator.

These kernels define operator *semantics*.  They exist so that every graph
rewrite in the optimizer (fusion grouping, layout transformation
elimination, view absorption) can be verified numerically: the executor
runs the original and optimized graphs on the same inputs and the test
suite requires identical outputs.

They are also the serving floor: the emitted runner's steps call
straight into them, so they are what
the ``kernel_open`` benchmark workload times and their numpy-call count
per step is a measured cost.  The paper's model-scale latency rows still
come from the analytical cost model, never from timing these kernels.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

_KERNELS: dict[str, Callable] = {}


def kernel(op_type: str, fresh: bool = False):
    """Register ``fn`` as ``op_type``'s reference kernel.  ``fresh``
    declares that every call returns a new array that aliases no input
    and that nothing else references - the fact that lets ``lower()``
    hand the result to its one consumer to overwrite (see
    :func:`bind_in_place`)."""
    def decorate(fn):
        _KERNELS[op_type] = fn
        fn.fresh = fresh
        return fn
    return decorate


def returns_fresh(fn: Callable | None) -> bool:
    """Does ``fn`` (a registered or lowering-bound kernel) return fresh
    arrays?  Undeclared callables - views, the elided layout_convert,
    wrappers - do not."""
    return getattr(fn, "fresh", False)


def get_kernel(op_type: str) -> Callable:
    try:
        return _KERNELS[op_type]
    except KeyError:
        raise KeyError(f"no reference kernel for operator {op_type!r}") from None


def _pair(value):
    return (value, value) if isinstance(value, int) else tuple(value)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _conv_geometry(x_shape, w_shape, attrs):
    """Static conv2d geometry from shapes + attrs (shared by the kernel,
    the scratch planner, and the roofline traffic model)."""
    groups = int(attrs.get("groups", 1))
    sh, sw = _pair(attrs.get("stride", 1))
    ph, pw = _pair(attrs.get("padding", 0))
    dh, dw = _pair(attrs.get("dilation", 1))
    n, c, h, wd = x_shape
    oc, cpg, kh, kw = w_shape
    oh = (h + 2 * ph - (dh * (kh - 1) + 1)) // sh + 1
    ow = (wd + 2 * pw - (dw * (kw - 1) + 1)) // sw + 1
    return (groups, (sh, sw), (ph, pw), (dh, dw),
            (n, c, h, wd), (oc, cpg, kh, kw), (oh, ow))


class ConvScratch:
    """Statically planned im2col scratch for one lowered conv2d step.

    A conv uses two buffers with two owners.  The zero-halo ``padded``
    input copy belongs to the step: its halo invariant holds per
    geometry, so it is allocated (zero-filled) once per thread and runs
    only rewrite the interior - the pad cost drops from a full
    ``np.pad`` copy per call to an interior copy.  It is per-thread
    because lowered programs are shared across sessions and a service
    runs two passes at once; a process-wide buffer would be corrupted by
    concurrent threads.  The column buffer belongs to nobody: every conv
    borrows it from the per-thread arena (:func:`_arena_cols`), so
    ``cols_shape`` only records the demand the slot plan takes the
    maximum of.  Both are sized at the planned leading extent
    :attr:`extent`; a pass at a larger extent (a stacked batch, one
    request of a bucket variant) runs in chunks of it.
    """

    __slots__ = ("pad_shape", "cols_shape", "node_id", "_local")

    def __init__(self, pad_shape, cols_shape, node_id=None) -> None:
        self.pad_shape = pad_shape  # None when the conv is unpadded
        self.cols_shape = cols_shape
        self.node_id = node_id
        self._local = threading.local()

    @classmethod
    def plan(cls, x_shape, w_shape, attrs, node_id=None) -> "ConvScratch":
        (_, _, (ph, pw), _, (n, c, h, wd),
         (_, _, kh, kw), (oh, ow)) = _conv_geometry(x_shape, w_shape, attrs)
        pad_shape = (n, c, h + 2 * ph, wd + 2 * pw) if ph or pw else None
        return cls(pad_shape, (n, c * kh * kw, oh * ow), node_id)

    @property
    def extent(self) -> int:
        """The leading extent the buffers are planned for: the chunk."""
        return self.cols_shape[0]

    def pad_bytes(self, itemsize: int) -> int:
        """Bytes of the step-owned padded buffer (0 when unpadded)."""
        return math.prod(self.pad_shape or (0,)) * itemsize

    def cols_bytes(self, itemsize: int) -> int:
        """Column bytes this step needs from the per-thread arena."""
        return math.prod(self.cols_shape) * itemsize

    def padded(self, dtype, n):
        """This thread's zero-halo buffer, cut to a chunk of ``n`` <=
        :attr:`extent` rows."""
        if self.pad_shape is None:
            return None
        state = self._local
        cached = getattr(state, "padded", None)
        if cached is None or cached.dtype != dtype:
            cached = state.padded = np.zeros(self.pad_shape, dtype=dtype)
        # A short last chunk uses the (contiguous) leading prefix.
        return cached if n == self.pad_shape[0] else cached[:n]

    def held_bytes(self) -> int:
        """Bytes the calling thread holds for this step right now."""
        cached = getattr(self._local, "padded", None)
        return 0 if cached is None else cached.nbytes


_ARENA = threading.local()


def _arena_cols(shape, dtype):
    """A ``shape`` column buffer carved from this thread's im2col arena.

    One grow-only byte buffer per thread serves every conv step of every
    program: a thread runs one step at a time and the gather rewrites
    every column before the GEMM reads any, so nothing survives a call.
    It is sized from the live shape, lives as long as its thread, and
    only ever grows - to the largest column matrix the thread has run.
    """
    need = math.prod(shape) * dtype.itemsize
    buf = getattr(_ARENA, "buf", None)
    if buf is None or buf.nbytes < need:
        buf = _ARENA.buf = np.empty(need, dtype=np.uint8)
    return np.ndarray(shape, dtype, buffer=buf)


def arena_bytes() -> int:
    """Size of the calling thread's im2col arena right now."""
    buf = getattr(_ARENA, "buf", None)
    return 0 if buf is None else buf.nbytes


def _windows(xp, shape, sh, sw, dh, dw):
    """Every conv window of ``xp`` as one strided view.

    The window gather is a pure striding trick: ``as_strided`` views the
    (already padded) input as a 6-D ``(n, c, kh, kw, oh, ow)`` patch
    tensor without touching data, and one ``copyto`` per chunk
    materializes it into the column buffer - all groups at once (a group
    is a run of channels), no per-(channel, tap) Python loop, no
    intermediate reshape copies, no astype.
    """
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape, (s0, s1, s2 * dh, s3 * dw, s2 * sh, s3 * sw))


@kernel("conv2d", fresh=True)
def conv2d_gemm(inputs, attrs, scratch: ConvScratch | None = None):
    """GEMM-shaped conv2d: one strided-view im2col + one batched matmul
    per chunk of the planned extent.

    The matmul's batch axes are ``(n, groups)``, so numpy issues the
    per-group BLAS GEMMs in C - a depthwise conv costs the same handful
    of numpy calls as a dense one.  ``scratch`` is the step's planned
    :class:`ConvScratch` when the kernel was bound by
    :func:`bind_conv2d` at lowering; unbound calls (graph interpreter,
    direct kernel use) plan a throwaway one at the live extent.  A
    leading extent beyond the plan runs in chunks of
    :attr:`ConvScratch.extent` rows, each gathered into the step's own
    scratch and multiplied straight into its rows of the output: the
    same ``(n, group)`` GEMMs on the same operands as one unchunked
    call, so the bytes do not depend on the chunking.  The views every
    chunk reuses (windows, columns, output) are built once per call.
    """
    x, w = inputs[0], inputs[1]
    bias = inputs[2] if len(inputs) > 2 else None
    (groups, (sh, sw), (ph, pw), (dh, dw),
     (n, c, h, wd), (oc, cpg, kh, kw), (oh, ow)) = _conv_geometry(
        x.shape, w.shape, attrs)
    if scratch is None:
        scratch = ConvScratch.plan(x.shape, w.shape, attrs)
    chunk = min(scratch.extent, n)
    k = cpg * kh * kw
    ocpg = oc // groups
    shape = (chunk, c, kh, kw, oh, ow)
    cols = _arena_cols(shape, x.dtype)
    xp = scratch.padded(x.dtype, chunk)
    # Unpadded, the windows are views of the input itself: one view
    # over all n rows.  Padded, they view the step's chunk buffer.
    windows = _windows(x if xp is None else xp,
                       (n,) + shape[1:] if xp is None else shape,
                       sh, sw, dh, dw)
    wg = w.reshape(groups, ocpg, k)
    cols_g = cols.reshape(chunk, groups, k, oh * ow)
    out = np.empty((n, oc, oh, ow), dtype=x.dtype)
    out_g = out.reshape(n, groups, ocpg, oh * ow)
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        if xp is None:
            np.copyto(cols[:m], windows[lo:lo + m])
        else:
            xp[:m, :, ph:ph + h, pw:pw + wd] = x[lo:lo + m]
            np.copyto(cols[:m], windows[:m])
        np.matmul(wg, cols_g[:m], out=out_g[lo:lo + m])
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


def bind_conv2d(x_shape, w_shape, attrs, node_id=None):
    """Bind a conv2d step to a statically planned :class:`ConvScratch`.

    Returns ``(kernel, scratch)``.  Called once per conv step by
    ``lower()``, so every run reuses the step's padded buffer instead of
    reallocating it.  Every bucket variant of
    :mod:`repro.runtime.batching` shares the base step's bound kernel: a
    variant pass - a stacked batch of ``n`` requests, or one request at
    an exact extent - runs in chunks of the planned extent, so a thread
    holds the same scratch whichever variants it has run.  ``node_id``
    names the step.
    """
    scratch = ConvScratch.plan(x_shape, w_shape, attrs, node_id)

    def bound(inputs, attrs):
        return conv2d_gemm(inputs, attrs, scratch)

    bound.scratch = scratch
    bound.fresh = True
    return bound, scratch


@kernel("matmul", fresh=True)
def matmul(inputs, attrs):
    a, b = inputs
    if attrs.get("transpose_a"):
        a = np.swapaxes(a, -1, -2)
    if attrs.get("transpose_b"):
        b = np.swapaxes(b, -1, -2)
    return np.matmul(a, b)


def pack(weight):
    """A ``dense`` weight in the layout its GEMM reads: ``(N, K)`` source
    -> ``(K, N)`` C-contiguous operand.  The one definition of it: BLAS's
    transposed-operand sgemm differs from the no-transpose one in the
    last float bits (and is 2-4x slower at serving shapes), so every
    ``dense`` computes on this operand - precomputed once per compiled
    cell (:func:`~repro.runtime.executor.make_params`) or recomputed per
    call (:func:`dense`, ``ExecutionProgram.bind_packs``) - never on a
    transposed view.
    """
    return np.ascontiguousarray(weight.T)


def dense_packed(inputs, attrs):
    """``dense`` over an already-:func:`pack`\\ ed ``(K, N)`` weight - the
    kernel ``lower()`` binds when the weight is a parameter."""
    out = np.matmul(inputs[0], inputs[1])
    if len(inputs) > 2:
        bias = inputs[2]
        if bias.dtype == out.dtype:
            out += bias  # the GEMM result is fresh: no second (rows, N) array
        else:
            out = out + bias
    return out


dense_packed.fresh = True


@kernel("dense", fresh=True)
def dense(inputs, attrs):
    return dense_packed([inputs[0], pack(inputs[1]), *inputs[2:]], attrs)


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)

_UNARY_IMPL = {
    "relu": lambda x: np.maximum(x, 0),
    "relu6": lambda x: np.clip(x, 0, 6),
    # x*x*x instead of x**3: same value, but half-precision pow is slow
    "gelu": lambda x: 0.5 * x * (1 + np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))),
    "silu": lambda x: x / (1 + np.exp(-x)),
    "sigmoid": lambda x: 1 / (1 + np.exp(-x)),
    "tanh": np.tanh,
    "exp": np.exp,
    "sqrt": lambda x: np.sqrt(np.abs(x)),
    "rsqrt": lambda x: 1 / np.sqrt(np.abs(x) + 1e-12),
    "neg": np.negative,
    "abs": np.abs,
    "erf": lambda x: np.vectorize(math.erf)(x).astype(x.dtype, copy=False),
    # copies: a kernel output must never alias the caller's input array
    # (unary's astype(copy=False) would otherwise pass x through)
    "identity": lambda x: x.copy(),
    "leaky_relu": lambda x: np.where(x > 0, x, 0.01 * x),
    "hardswish": lambda x: x * np.clip(x + 3, 0, 6) / 6,
}


@kernel("unary", fresh=True)
def unary(inputs, attrs):
    # copy=False: skip the redundant copy when the compute dtype already
    # matches (every impl returns a fresh array, so nothing aliases the
    # input)
    return _UNARY_IMPL[attrs["func"]](inputs[0]).astype(
        inputs[0].dtype, copy=False)


_BINARY_IMPL = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "div": np.divide, "pow": np.power,
    "maximum": np.maximum, "minimum": np.minimum,
}


@kernel("binary", fresh=True)
def binary(inputs, attrs):
    return _BINARY_IMPL[attrs["func"]](inputs[0], inputs[1]).astype(
        inputs[0].dtype, copy=False)


# ---------------------------------------------------------------------------
# in-place recipes
# ---------------------------------------------------------------------------


def _silu_into(x):
    t = np.negative(x)
    np.exp(t, out=t)
    np.add(1, t, out=t)
    return np.divide(x, t, out=x)


def _sigmoid_into(x):
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(1, x, out=x)
    return np.divide(1, x, out=x)


def _gelu_into(x):
    t = np.multiply(x, x)
    np.multiply(t, x, out=t)
    np.multiply(0.044715, t, out=t)
    np.add(x, t, out=t)
    np.multiply(_GELU_C, t, out=t)
    np.tanh(t, out=t)
    np.add(1, t, out=t)
    np.multiply(0.5, x, out=x)
    return np.multiply(x, t, out=x)


#: The one table of in-place recipes: each writes into the operand it is
#: given and returns it, issuing the same ufuncs in the same order, with
#: the same operand order, as its ``_UNARY_IMPL`` reference - so the
#: bytes are identical by construction, inf/NaN/-0.0 included.
_UNARY_INTO = {
    "relu": lambda x: np.maximum(x, 0, out=x),
    "relu6": lambda x: np.clip(x, 0, 6, out=x),
    "tanh": lambda x: np.tanh(x, out=x),
    "exp": lambda x: np.exp(x, out=x),
    "neg": lambda x: np.negative(x, out=x),
    "abs": lambda x: np.abs(x, out=x),
    "sqrt": lambda x: np.sqrt(np.abs(x, out=x), out=x),
    "silu": _silu_into,
    "sigmoid": _sigmoid_into,
    "gelu": _gelu_into,
}
#: ``_BINARY_IMPL`` funcs written into either operand (``pow`` is not).
_BINARY_INTO = frozenset({"add", "sub", "mul", "div", "maximum", "minimum"})


def bind_in_place(op_type: str, attrs: dict, owned: int, rank: int):
    """The kernel computing a ``unary`` / ``binary`` / ``batchnorm`` step
    into its input ``owned`` - an array the caller guarantees is fresh,
    dead after this step and of the output's shape and float dtype - or
    None when no recipe does.  ``rank`` is the output's static rank;
    everything shape-like is decided here, none of it per call.
    """
    if op_type == "unary" and owned == 0:
        recipe = _UNARY_INTO.get(attrs["func"])
        if recipe is None:
            return None

        def run(inputs, attrs):
            return recipe(inputs[0])
    elif op_type == "binary" and attrs["func"] in _BINARY_INTO:
        fn = _BINARY_IMPL[attrs["func"]]

        def run(inputs, attrs):
            into = inputs[owned]
            # The reference allocates its output C-ordered whenever one
            # full-shape operand is (numpy's "C-order wins"), so only a
            # C-ordered operand keeps the reference's layout - and with
            # it what a layout-sensitive consumer (BLAS, a reduction)
            # reads.  A fresh array in another order was computed from a
            # transposed view; it gets the reference's fresh output.
            return fn(inputs[0], inputs[1],
                      out=into if into.flags.c_contiguous else None)
    elif op_type == "batchnorm" and owned == 0:
        shape = (1, -1) + (1,) * (rank - 2) if rank >= 2 else (-1,)

        def run(inputs, attrs):
            x = inputs[0]
            if len(inputs) > 1:
                np.multiply(x, inputs[1].reshape(shape), out=x)
            if len(inputs) > 2:
                np.add(x, inputs[2].reshape(shape), out=x)
            return x
    else:
        return None
    run.fresh = True  # its result is the owned operand: fresh, unread
    return run


# ---------------------------------------------------------------------------
# normalization / softmax / reduce
# ---------------------------------------------------------------------------


@kernel("softmax", fresh=True)
def softmax(inputs, attrs):
    x = inputs[0]
    axis = int(attrs.get("axis", -1))
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=axis, keepdims=True)).astype(x.dtype, copy=False)


def _norm(x, axes, eps):
    # One subtraction pass shared between the variance and the output
    # (np.var would redo x - mean internally).
    mean = x.mean(axis=axes, keepdims=True)
    d = x - mean
    var = np.mean(d * d, axis=axes, keepdims=True)
    return d / np.sqrt(var + eps)


def _axes_tuple(attrs, rank):
    axes = attrs.get("axes", -1)
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(sorted(a % rank for a in axes))


#: ``eps`` when a norm's attrs do not set one
DEFAULT_EPS = {"layernorm": 1e-5, "rmsnorm": 1e-6}


@kernel("layernorm", fresh=True)
def layernorm(inputs, attrs):
    x = inputs[0]
    axes = _axes_tuple(attrs, x.ndim)
    out = _norm(x, axes, attrs.get("eps", DEFAULT_EPS["layernorm"]))
    if len(inputs) > 1:
        shape = [x.shape[a] if a in axes else 1 for a in range(x.ndim)]
        out = out * inputs[1].reshape(shape)
        if len(inputs) > 2:
            out = out + inputs[2].reshape(shape)
    return out.astype(x.dtype, copy=False)


@kernel("rmsnorm", fresh=True)
def rmsnorm(inputs, attrs):
    x = inputs[0]
    axes = _axes_tuple(attrs, x.ndim)
    rms = np.sqrt((x * x).mean(axis=axes, keepdims=True)
                  + attrs.get("eps", DEFAULT_EPS["rmsnorm"]))
    out = x / rms
    if len(inputs) > 1:
        shape = [x.shape[a] if a in axes else 1 for a in range(x.ndim)]
        out = out * inputs[1].reshape(shape)
    return out.astype(x.dtype, copy=False)


@kernel("instancenorm", fresh=True)
def instancenorm(inputs, attrs):
    x = inputs[0]
    out = _norm(x, (2, 3), attrs.get("eps", 1e-5))
    if len(inputs) > 1:
        out = out * inputs[1].reshape(1, -1, 1, 1)
        if len(inputs) > 2:
            out = out + inputs[2].reshape(1, -1, 1, 1)
    return out.astype(x.dtype, copy=False)


@kernel("groupnorm", fresh=True)
def groupnorm(inputs, attrs):
    x = inputs[0]
    n, c, h, w = x.shape
    groups = int(attrs.get("groups", 32))
    grouped = x.reshape(n, groups, c // groups, h, w)
    out = _norm(grouped, (2, 3, 4), attrs.get("eps", 1e-5)).reshape(n, c, h, w)
    if len(inputs) > 1:
        out = out * inputs[1].reshape(1, -1, 1, 1)
        if len(inputs) > 2:
            out = out + inputs[2].reshape(1, -1, 1, 1)
    return out.astype(x.dtype, copy=False)


@kernel("batchnorm", fresh=True)
def batchnorm(inputs, attrs):
    x = inputs[0]
    shape = [1] * x.ndim
    if x.ndim >= 2:
        shape[1] = -1
    else:
        shape[0] = -1
    if len(inputs) == 1:
        # copies: a kernel output must never alias the caller's input
        return x.copy()
    out = x * inputs[1].reshape(shape)
    if len(inputs) > 2:
        out = out + inputs[2].reshape(shape)
    return out


def _reduce_impl(fn):
    def run(inputs, attrs):
        x = inputs[0]
        raw = attrs.get("axes", tuple(range(x.ndim)))
        if isinstance(raw, int):
            raw = (raw,)
        axes = tuple(sorted(a % x.ndim for a in raw))
        keepdims = bool(attrs.get("keepdims", False))
        out = fn(x, axis=axes, keepdims=keepdims)
        if not keepdims and out.ndim == 0:
            out = out.reshape(1)
        return out.astype(x.dtype, copy=False)
    return run


kernel("reduce_mean")(_reduce_impl(np.mean))
kernel("reduce_sum")(_reduce_impl(np.sum))
kernel("reduce_max")(_reduce_impl(np.max))


# ---------------------------------------------------------------------------
# layout / reorganization
# ---------------------------------------------------------------------------


@kernel("reshape")
def reshape(inputs, attrs):
    return inputs[0].reshape(attrs["shape"])


@kernel("transpose")
def transpose(inputs, attrs):
    return inputs[0].transpose(attrs["perm"])


@kernel("layout_convert")
def layout_convert(inputs, attrs):
    # Physically reorders data between layout domains; semantically identity.
    return inputs[0].copy()


def layout_convert_elided(inputs, attrs):
    """Copy-elided layout_convert, bound at lowering when the input is a
    pool interior that dies at this step: the array can be passed through
    when it is already contiguous (nothing else will ever read it), and
    otherwise needs only the compaction copy.  Never registered - graph
    interpretation keeps the alias-free reference kernel."""
    x = inputs[0]
    return x if x.flags.c_contiguous else np.ascontiguousarray(x)


@kernel("slice")
def slice_(inputs, attrs):
    x = inputs[0]
    steps = attrs.get("steps", (1,) * x.ndim)
    index = tuple(
        slice(start % (d + 1), min(stop, d), step)
        for d, start, stop, step in zip(x.shape, attrs["starts"], attrs["stops"], steps)
    )
    return x[index]


@kernel("gather")
def gather(inputs, attrs):
    return np.take(inputs[0], np.asarray(attrs["indices"]),
                   axis=int(attrs.get("axis", 0)))


@kernel("concat")
def concat(inputs, attrs):
    return np.concatenate(inputs, axis=int(attrs.get("axis", 0)))


@kernel("split")
def split(inputs, attrs):
    return tuple(np.split(inputs[0], int(attrs["sections"]),
                          axis=int(attrs.get("axis", 0))))


@kernel("pad")
def pad(inputs, attrs):
    return np.pad(inputs[0], tuple(tuple(p) for p in attrs["pads"]))


@kernel("depth_to_space")
def depth_to_space(inputs, attrs):
    x = inputs[0]
    n, c, h, w = x.shape
    b = int(attrs.get("block", 2))
    return (x.reshape(n, b, b, c // (b * b), h, w)
             .transpose(0, 3, 4, 1, 5, 2)
             .reshape(n, c // (b * b), h * b, w * b))


@kernel("space_to_depth")
def space_to_depth(inputs, attrs):
    x = inputs[0]
    n, c, h, w = x.shape
    b = int(attrs.get("block", 2))
    return (x.reshape(n, c, h // b, b, w // b, b)
             .transpose(0, 3, 5, 1, 2, 4)
             .reshape(n, c * b * b, h // b, w // b))


# ---------------------------------------------------------------------------
# pooling / resampling / lookup
# ---------------------------------------------------------------------------


def _pool_impl(reducer):
    def run(inputs, attrs):
        x = inputs[0]
        kh, kw = _pair(attrs["kernel"])
        sh, sw = _pair(attrs.get("stride", (kh, kw)))
        ph, pw = _pair(attrs.get("padding", 0))
        pad_value = -np.inf if reducer is np.max else 0.0
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                    constant_values=pad_value)
        n, c, h, w = xp.shape
        oh = (h - kh) // sh + 1
        ow = (w - kw) // sw + 1
        stacked = np.empty((kh * kw, n, c, oh, ow), dtype=x.dtype)
        for ki in range(kh):
            for kj in range(kw):
                stacked[ki * kw + kj] = xp[:, :, ki: ki + oh * sh: sh,
                                           kj: kj + ow * sw: sw]
        if reducer is np.max:
            return stacked.max(axis=0)
        # average pooling: divide by window size (count_include_pad=True)
        return (stacked.sum(axis=0) / (kh * kw)).astype(x.dtype, copy=False)
    return run


kernel("maxpool2d")(_pool_impl(np.max))
kernel("avgpool2d")(_pool_impl(np.mean))


@kernel("global_avgpool")
def global_avgpool(inputs, attrs):
    return inputs[0].mean(axis=(2, 3), keepdims=True).astype(
        inputs[0].dtype, copy=False)


@kernel("upsample2d")
def upsample2d(inputs, attrs):
    scale = int(attrs.get("scale", 2))
    return inputs[0].repeat(scale, axis=2).repeat(scale, axis=3)


@kernel("embedding")
def embedding(inputs, attrs):
    table, ids = inputs
    return table[ids.astype(np.int64, copy=False)]
