"""Symbolic leading-dimension placeholders for shape signatures.

One compiled program serving a *family* of shapes needs a way to say
"this axis is decided per request" inside otherwise-concrete shape
tuples.  :data:`SYM` is that placeholder: a singleton sentinel that
rides in ``(SYM, 64, 32)``-style tuples through step output shapes,
input signatures, and admission specs.  It deliberately supports no
arithmetic - every size computation in the runtime happens either at
the *bucket bound* (slot plans, scratch, shared-memory layouts, all
sized for the largest extent a bucket admits) or at the *runtime
extent* (kernels read it off the request arrays themselves), never on
the symbol.

``repr(SYM)`` is ``"?"`` so symbolic shapes render as ``(?, 64, 32)``
in error messages - and, because the emitted runner and the per-step
timing walk both embed shapes via ``repr``, they produce byte-identical
diagnostics for symbolic programs, the same property the concrete paths
already guarantee.

Users spell the placeholder as ``None`` in
:class:`~repro.api.options.CompileOptions` signatures (mithril-style);
:func:`as_placeholder` normalizes either form.
"""

from __future__ import annotations


class SymDim:
    """The symbolic-extent sentinel (use the :data:`SYM` singleton).

    Identity-compared everywhere (``dim is SYM``); equality follows
    identity so shape tuples containing it compare the obvious way.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "SymDim":
        found = cls._instance
        if found is None:
            found = cls._instance = super().__new__(cls)
        return found

    def __repr__(self) -> str:
        return "?"

    def __reduce__(self):  # pickle (fork-free spawn paths) keeps identity
        return (SymDim, ())


SYM = SymDim()
"""The one symbolic-dimension placeholder."""

OPEN_STOP = 1 << 62
"""Slice-stop sentinel meaning "to the end of the runtime extent".

Both slice consumers clamp: the ``slice`` kernel takes
``min(stop, dim)`` and Python/NumPy basic slicing clamps out-of-range
stops natively, so a symbolic program's batch-axis slices stay correct
at every runtime extent without rewriting attrs per request.
"""


class SymViewChain:
    """An extent-polymorphic view chain (duck-type of
    :class:`~repro.ir.view.ViewChain`).

    Holds ordinary :class:`~repro.ir.view.ViewStep` objects whose args
    use the symbolic spellings - ``-1`` at the batch position of a
    reshape target, ``(0, OPEN_STOP, 1)`` for the batch-axis slice
    triple - so the timing walk's appliers and the emitted source work at
    every runtime extent.  ``ViewChain``'s eager shape validation cannot
    accept those spellings, which is the whole reason this type exists;
    the concrete scaled chain is validated first by the caller
    (:func:`repro.runtime.batching._scale_chain`), so no checking is
    lost.  Consumers only read :attr:`steps` (plus the symbolic
    ``in_shape``/``out_shape`` for introspection).
    """

    __slots__ = ("in_shape", "steps", "out_shape")

    def __init__(self, in_shape, steps, out_shape):
        self.in_shape = tuple(in_shape)
        self.steps = tuple(steps)
        self.out_shape = tuple(out_shape)

    def __repr__(self) -> str:
        return (f"SymViewChain({self.in_shape} -> {self.out_shape}, "
                f"{len(self.steps)} steps)")


def is_placeholder(dim) -> bool:
    """True for either spelling of the symbolic extent (``None``/SYM)."""
    return dim is None or isinstance(dim, SymDim)


def as_placeholder(dim):
    """Normalize one signature dim: placeholders to :data:`SYM`,
    anything else to ``int``."""
    return SYM if is_placeholder(dim) else int(dim)


def is_symbolic_shape(shape) -> bool:
    """Does ``shape`` carry the symbolic leading extent?"""
    return bool(shape) and isinstance(shape[0], SymDim)


def concretize(shape, extent: int) -> tuple:
    """``shape`` with every placeholder replaced by ``extent``."""
    return tuple(extent if isinstance(d, SymDim) else int(d) for d in shape)


__all__ = [
    "OPEN_STOP", "SYM", "SymDim", "SymViewChain", "as_placeholder",
    "concretize", "is_placeholder", "is_symbolic_shape",
]
