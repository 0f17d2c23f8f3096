"""Physical layout descriptions for tensors.

A layout answers two questions the paper's optimizer cares about:

1. *Logical order*: which permutation of logical dimensions is laid out
   from outermost to innermost in memory (``dim_order``).  The innermost
   dimension is the unit-stride one; reduction-dimension-based layout
   selection (Section 3.2.2) wants each consumer's reduction dimension
   stored unit-stride.

2. *Physical mapping*: whether the tensor lives in a 1D buffer or in 2.5D
   texture memory, and for textures which dimension is packed into the
   length-4 vector slots (the "0.5D" of 2.5D; Section 2.3/3.3).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .tensor import Shape

TEXTURE_VECTOR_WIDTH = 4
"""Each texture cache element is a vector of 4 scalars (Section 2.3)."""


class MemoryKind(enum.Enum):
    """Which memory class a tensor occupies on the device."""

    BUFFER_1D = "buffer1d"
    TEXTURE_2D5 = "texture2.5d"


def _check_perm(perm: Sequence[int], rank: int) -> tuple[int, ...]:
    out = tuple(int(d) for d in perm)
    if sorted(out) != list(range(rank)):
        raise ValueError(f"dim_order {out} is not a permutation of range({rank})")
    return out


@dataclass(frozen=True)
class Layout:
    """Physical layout of an ``rank``-dimensional tensor.

    Attributes:
        dim_order: Permutation of logical dims, outermost first.  For example
            ``(0, 2, 3, 1)`` on an NCHW-shaped tensor means the data is
            physically NHWC.
        memory: Memory class holding the tensor.
        vector_dim: Logical dimension packed 4-wide into texture vector
            slots.  Only meaningful (and required) for TEXTURE_2D5.
        num_width_dims: For textures, how many of the trailing (innermost)
            non-vector dims map to the texture *width* axis; the remaining
            dims map to the height axis.  Two texture axes give the "2D"
            of 2.5D: both can be indexed directly without linearization.
    """

    dim_order: tuple[int, ...]
    memory: MemoryKind = MemoryKind.BUFFER_1D
    vector_dim: int | None = None
    num_width_dims: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim_order", _check_perm(self.dim_order, len(self.dim_order)))
        if self.memory is MemoryKind.TEXTURE_2D5:
            if self.vector_dim is None:
                raise ValueError("texture layouts require a vector_dim")
            if self.vector_dim not in self.dim_order:
                raise ValueError(
                    f"vector_dim {self.vector_dim} out of range for rank {self.rank}"
                )
            if not 1 <= self.num_width_dims <= max(1, self.rank - 1):
                raise ValueError(f"num_width_dims {self.num_width_dims} invalid")
        elif self.vector_dim is not None:
            raise ValueError("vector_dim is only meaningful for texture layouts")

    # -- basic facts ------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.dim_order)

    @property
    def innermost_dim(self) -> int:
        """Logical dimension with unit stride."""
        return self.dim_order[-1]

    def is_unit_stride(self, dim: int) -> bool:
        """True if ``dim`` is stored contiguously.

        For textures both the innermost width dim and the vector dim are
        directly/contiguously accessible (Section 3.3): elements along the
        vector dim share one texel, and elements along the innermost width
        dim are adjacent texels on the width axis.
        """
        if dim == self.innermost_dim:
            return True
        return self.memory is MemoryKind.TEXTURE_2D5 and dim == self.vector_dim

    def fast_dims(self) -> tuple[int, ...]:
        """Dims with continuous, index-computation-free access.

        This is the paper's *k*: 1 for 1D buffers, 2 for 2.5D textures
        (Section 3.2.2 "k is the number of dimensions along which we can
        perform continuous memory access").
        """
        if self.memory is MemoryKind.TEXTURE_2D5:
            dims = [self.vector_dim]
            if self.innermost_dim != self.vector_dim:
                dims.append(self.innermost_dim)
            return tuple(dims)
        return (self.innermost_dim,)

    # -- buffer geometry ---------------------------------------------------

    def strides(self, shape: Shape) -> tuple[int, ...]:
        """Element strides per logical dim for a 1D buffer layout."""
        if len(shape) != self.rank:
            raise ValueError(f"shape rank {len(shape)} != layout rank {self.rank}")
        strides = [0] * self.rank
        acc = 1
        for dim in reversed(self.dim_order):
            strides[dim] = acc
            acc *= shape[dim]
        return tuple(strides)

    # -- texture geometry ---------------------------------------------------

    def texture_extent(self, shape: Shape) -> tuple[int, int]:
        """(width, height) in texels when mapped to 2.5D memory.

        The vector dim is padded up to a multiple of 4 and packed into
        texels; the trailing ``num_width_dims`` of the remaining order fill
        the width axis and the rest fill the height axis.
        """
        if self.memory is not MemoryKind.TEXTURE_2D5:
            raise ValueError("texture_extent only applies to texture layouts")
        if len(shape) != self.rank:
            raise ValueError(f"shape rank {len(shape)} != layout rank {self.rank}")
        remaining = [d for d in self.dim_order if d != self.vector_dim]
        if not remaining:  # rank-1 tensor fully packed into vectors
            return (1, 1)
        width_dims = remaining[len(remaining) - self.num_width_dims:]
        height_dims = remaining[: len(remaining) - self.num_width_dims]
        width = math.prod(shape[d] for d in width_dims)
        height = math.prod(shape[d] for d in height_dims)
        return (width, max(1, height))

    def texel_count(self, shape: Shape) -> int:
        """Number of texels (vec4 slots) the tensor occupies."""
        if self.memory is not MemoryKind.TEXTURE_2D5:
            raise ValueError("texel_count only applies to texture layouts")
        vec = shape[self.vector_dim]
        packed = -(-vec // TEXTURE_VECTOR_WIDTH)
        rest = math.prod(shape[d] for d in self.dim_order if d != self.vector_dim)
        return packed * rest

    # -- constructors / transforms -----------------------------------------

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def row_major(rank: int) -> "Layout":
        """The framework-default contiguous layout in a 1D buffer.

        Layouts are immutable, so instances are interned per rank: the
        cost model asks for row-major layouts tens of thousands of times
        per benchmark table.
        """
        return Layout(dim_order=tuple(range(rank)))

    @staticmethod
    def buffer(dim_order: Iterable[int]) -> "Layout":
        return _interned_layout(tuple(dim_order), MemoryKind.BUFFER_1D, None, 1)

    @staticmethod
    def texture(
        dim_order: Iterable[int], vector_dim: int, num_width_dims: int = 1
    ) -> "Layout":
        return _interned_layout(tuple(dim_order), MemoryKind.TEXTURE_2D5,
                                vector_dim, num_width_dims)

    def with_memory(self, memory: MemoryKind, vector_dim: int | None = None) -> "Layout":
        if memory is MemoryKind.TEXTURE_2D5:
            vec = self.innermost_dim if vector_dim is None else vector_dim
            return replace(self, memory=memory, vector_dim=vec)
        return replace(self, memory=memory, vector_dim=None, num_width_dims=1)

    def to_json(self) -> dict:
        return {
            "dim_order": list(self.dim_order),
            "memory": self.memory.value,
            "vector_dim": self.vector_dim,
            "num_width_dims": self.num_width_dims,
        }

    @staticmethod
    def from_json(data: dict) -> "Layout":
        return Layout(
            dim_order=tuple(data["dim_order"]),
            memory=MemoryKind(data["memory"]),
            vector_dim=data["vector_dim"],
            num_width_dims=data.get("num_width_dims", 1),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mem = "tex" if self.memory is MemoryKind.TEXTURE_2D5 else "buf"
        vec = f",v{self.vector_dim}" if self.vector_dim is not None else ""
        return f"{mem}{list(self.dim_order)}{vec}"


@functools.lru_cache(maxsize=4096)
def _interned_layout(dim_order: tuple[int, ...], memory: MemoryKind,
                     vector_dim: int | None, num_width_dims: int) -> Layout:
    # Layouts are immutable; layout selection builds the same handful of
    # permutations for thousands of tensors per benchmark table.
    return Layout(dim_order=dim_order, memory=memory, vector_dim=vector_dim,
                  num_width_dims=num_width_dims)
