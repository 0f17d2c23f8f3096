"""IndexMap: the residual index computation of an eliminated view chain.

After layout transformation elimination, a consumer kernel reading what
used to be ``transpose(reshape(x))`` instead reads ``x`` directly at
remapped coordinates.  An IndexMap captures exactly that: for each output
coordinate (the iteration space of the consumer), symbolic expressions
give the corresponding input coordinates.

Construction composes the inverse of each view step; evaluation is
vectorized over NumPy index grids so every map can be verified against the
actual data movement; ``cost()`` measures the per-element index arithmetic
the fused kernel will pay, which is what strength reduction lowers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..ir.tensor import Shape
from ..ir.view import ViewChain
from .expr import (
    BinOp, Const, Expr, Var, add, classify_dependency, floordiv, mod, mul,
    simplify,
)


@dataclass(frozen=True)
class IndexMap:
    """Maps output coordinates to input coordinates.

    ``exprs[j]`` gives input coordinate ``j`` as a function of the output
    coordinate variables ``o0 .. o{len(out_shape)-1}``.
    """

    in_shape: Shape
    out_shape: Shape
    exprs: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.exprs) != len(self.in_shape):
            raise ValueError(
                f"need {len(self.in_shape)} coordinate exprs, got {len(self.exprs)}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def output_vars(out_shape: Shape) -> tuple[Var, ...]:
        return tuple(Var(f"o{i}", extent) for i, extent in enumerate(out_shape))

    @staticmethod
    def identity(shape: Shape) -> "IndexMap":
        return IndexMap(shape, shape, IndexMap.output_vars(shape))

    @staticmethod
    def from_view_chain(chain: ViewChain, simplified: bool = True) -> "IndexMap":
        """Compose the chain's steps into one coordinate mapping.

        Walking the steps backwards from the final output: a transpose with
        permutation p sends output coordinate k to intermediate coordinate
        p[k]; a reshape linearizes the downstream coordinates and
        de-linearizes over the upstream shape.  With the smart constructors
        doing local rewrites, stacked reshapes collapse on the fly; an
        explicit ``simplify`` pass finishes the job (disable it with
        ``simplified=False`` to measure the un-reduced cost).
        """
        # Without simplification, build with raw BinOp nodes: this is the
        # "linear representation for all indexes" the paper calls out as
        # redundant, and is the baseline for the strength-reduction ablation.
        if simplified:
            mk_add, mk_mul = add, mul
            mk_div, mk_mod = floordiv, mod
        else:
            mk_add = lambda a, b: BinOp("+", a, b)
            mk_mul = lambda a, b: BinOp("*", a, b)
            mk_div = lambda a, b: BinOp("//", a, b)
            mk_mod = lambda a, b: BinOp("%", a, b)

        # Shapes entering each step (prefix shapes of the chain).
        step_in_shapes: list[Shape] = []
        shape = chain.in_shape
        for step in chain.steps:
            step_in_shapes.append(shape)
            shape = step.output_shape(shape)

        coords: list[Expr] = list(IndexMap.output_vars(chain.out_shape))
        for step_idx in reversed(range(len(chain.steps))):
            step = chain.steps[step_idx]
            in_shape = step_in_shapes[step_idx]
            if step.kind == "transpose":
                new_coords: list[Expr] = [Const(0)] * len(in_shape)
                for out_axis, in_axis in enumerate(step.arg):
                    new_coords[in_axis] = coords[out_axis]
            elif step.kind == "slice":
                new_coords = [
                    mk_add(mk_mul(coord, Const(stp)), Const(start))
                    for coord, (start, _stop, stp) in zip(coords, step.arg)
                ]
            else:  # reshape: linearize over the output, de-linearize over input
                linear: Expr = Const(0)
                for coord, extent in zip(coords, step.arg):
                    linear = mk_add(mk_mul(linear, Const(extent)), coord)
                new_coords = []
                stride = math.prod(in_shape)
                for extent in in_shape:
                    stride //= extent
                    new_coords.append(mk_mod(mk_div(linear, Const(stride)), Const(extent)))
            coords = new_coords
        exprs = tuple(simplify(c) if simplified else c for c in coords)
        return IndexMap(chain.in_shape, chain.out_shape, exprs)

    # -- analysis ------------------------------------------------------------

    def cost(self) -> int:
        """Per-element index arithmetic cost (cheap-op units).

        Memoized on the instance: maps are immutable and interned, and
        the cost model asks once per kernel-input edge.
        """
        cached = getattr(self, "_cost", None)
        if cached is None:
            cached = sum(e.cost() for e in self.exprs)
            object.__setattr__(self, "_cost", cached)
        return cached

    def simplified(self) -> "IndexMap":
        return IndexMap(self.in_shape, self.out_shape,
                        tuple(simplify(e) for e in self.exprs))

    def dependency_kinds(self) -> tuple[str, ...]:
        """Fig. 3 classification (identity/split/merge/compound) per input dim."""
        return tuple(classify_dependency(e) for e in self.exprs)

    def is_identity(self) -> bool:
        if self.in_shape != self.out_shape:
            return False
        for i, e in enumerate(self.exprs):
            if not (isinstance(e, Var) and e.name == f"o{i}"):
                return False
        return True

    # -- execution -------------------------------------------------------------

    def evaluate(self) -> tuple[np.ndarray, ...]:
        """Input coordinate arrays for the full output index grid."""
        grids = np.indices(self.out_shape, dtype=np.int64)
        env = {f"o{i}": grids[i] for i in range(len(self.out_shape))}
        out = []
        for e in self.exprs:
            value = e.evaluate(env)
            if isinstance(value, (int, np.integer)):
                value = np.full(self.out_shape, int(value), dtype=np.int64)
            out.append(value)
        return tuple(out)

    def apply(self, array: np.ndarray) -> np.ndarray:
        """Gather ``array`` through the map (the semantics of the view chain)."""
        if tuple(array.shape) != self.in_shape:
            raise ValueError(f"array shape {array.shape} != map input {self.in_shape}")
        return array[self.evaluate()]
