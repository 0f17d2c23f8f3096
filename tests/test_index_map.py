"""Tests for IndexMap (repro.indexexpr.index_map)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.indexexpr import IndexMap, Var
from repro.ir.view import ViewChain
from test_view import random_chain


def _flat_step(m, out_dim):
    """Flat-input offset per unit step of output dim ``out_dim``, read
    off the map's own coordinate grid; None when the step is not one
    constant (a div/mod bucket boundary falls inside the dim)."""
    if m.out_shape[out_dim] < 2:
        return 0
    flat = np.ravel_multi_index(m.evaluate(), m.in_shape)
    steps = np.unique(np.diff(flat, axis=out_dim))
    return int(steps[0]) if len(steps) == 1 else None


class TestIdentity:
    def test_identity_map(self):
        m = IndexMap.identity((3, 4))
        assert m.is_identity()
        assert m.cost() == 0
        x = np.arange(12).reshape(3, 4)
        assert np.array_equal(m.apply(x), x)

    def test_roundtrip_reshape_is_identity(self):
        chain = (ViewChain.identity((4, 6)).then_reshape((24,))
                 .then_reshape((4, 6)))
        assert IndexMap.from_view_chain(chain).is_identity()

    def test_double_transpose_is_identity(self):
        chain = (ViewChain.identity((4, 6)).then_transpose((1, 0))
                 .then_transpose((1, 0)))
        assert IndexMap.from_view_chain(chain).is_identity()


class TestFig3Example:
    """The paper's Fig. 3: reshape [2,256,4]->[16,8,4,4], transpose."""

    def setup_method(self):
        self.chain = (ViewChain.identity((2, 256, 4))
                      .then_reshape((16, 8, 4, 4))
                      .then_transpose((0, 2, 1, 3)))

    def test_semantics(self):
        x = np.arange(2 * 256 * 4).reshape(2, 256, 4)
        m = IndexMap.from_view_chain(self.chain)
        assert np.array_equal(m.apply(x), self.chain.apply(x))

    def test_strength_reduction_lowers_cost(self):
        simplified = IndexMap.from_view_chain(self.chain)
        raw = IndexMap.from_view_chain(self.chain, simplified=False)
        assert simplified.cost() < raw.cost()

    def test_innermost_dim_is_identity(self):
        # output dim 3 maps straight to input dim 2 (the paper's l' = k)
        m = IndexMap.from_view_chain(self.chain)
        assert isinstance(m.exprs[2], Var)
        assert m.exprs[2].name == "o3"

    def test_unit_stride_detected(self):
        m = IndexMap.from_view_chain(self.chain)
        assert _flat_step(m, 3) == 1

    def test_dependency_kinds(self):
        raw = IndexMap.from_view_chain(self.chain, simplified=False)
        # before simplification everything looks compound (stacked div/mod
        # over a merged linear index)
        assert all(k in ("compound", "split", "merge", "identity")
                   for k in raw.dependency_kinds())


class TestStride:
    def test_transpose_stride(self):
        chain = ViewChain.identity((4, 6)).then_transpose((1, 0))
        m = IndexMap.from_view_chain(chain)
        # stepping output dim 0 walks input dim 1: stride 1
        assert _flat_step(m, 0) == 1
        # stepping output dim 1 walks input dim 0: stride 6
        assert _flat_step(m, 1) == 6

    def test_slice_stride(self):
        chain = ViewChain.identity((8,)).then_slice(((1, 8, 2),))
        m = IndexMap.from_view_chain(chain)
        assert _flat_step(m, 0) == 2

    def test_size_one_dim(self):
        chain = ViewChain.identity((1, 4))
        m = IndexMap.from_view_chain(chain)
        assert _flat_step(m, 0) == 0


class TestErrors:
    def test_apply_shape_mismatch(self):
        m = IndexMap.identity((2, 2))
        with pytest.raises(ValueError):
            m.apply(np.zeros((3, 3)))

    def test_expr_count_mismatch(self):
        with pytest.raises(ValueError):
            IndexMap((2, 3), (6,), (Var("o0", 6),) * 3)


@given(random_chain())
@settings(max_examples=80, deadline=None)
def test_index_map_equals_view_semantics(chain):
    """The composed symbolic map gathers exactly what the views move."""
    x = np.arange(np.prod(chain.in_shape)).reshape(chain.in_shape)
    expected = chain.apply(x)
    simplified = IndexMap.from_view_chain(chain)
    raw = IndexMap.from_view_chain(chain, simplified=False)
    assert np.array_equal(simplified.apply(x), expected)
    assert np.array_equal(raw.apply(x), expected)


@given(random_chain())
@settings(max_examples=80, deadline=None)
def test_simplification_never_hurts(chain):
    simplified = IndexMap.from_view_chain(chain)
    raw = IndexMap.from_view_chain(chain, simplified=False)
    assert simplified.cost() <= raw.cost()
