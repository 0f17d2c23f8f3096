"""Tests for repro.ir.layout: buffer strides, texture geometry, fast dims."""

import pytest
from hypothesis import given, strategies as st

from repro.ir.layout import Layout, MemoryKind, TEXTURE_VECTOR_WIDTH


class TestBufferLayout:
    def test_row_major_strides(self):
        layout = Layout.row_major(3)
        assert layout.strides((2, 3, 4)) == (12, 4, 1)

    def test_permuted_strides(self):
        # physical order (2, 0, 1): dim2 outermost, dim1 innermost
        layout = Layout.buffer((2, 0, 1))
        assert layout.strides((2, 3, 4)) == (3, 1, 6)

    def test_innermost(self):
        assert Layout.buffer((0, 2, 1)).innermost_dim == 1

    def test_unit_stride(self):
        layout = Layout.buffer((1, 0))
        assert layout.is_unit_stride(0)
        assert not layout.is_unit_stride(1)

    def test_fast_dims_buffer(self):
        assert Layout.buffer((0, 1, 2)).fast_dims() == (2,)

    def test_invalid_perm(self):
        with pytest.raises(ValueError):
            Layout.buffer((0, 0, 1))

    def test_vector_dim_requires_texture(self):
        with pytest.raises(ValueError):
            Layout(dim_order=(0, 1), vector_dim=0)


class TestTextureLayout:
    def test_requires_vector_dim(self):
        with pytest.raises(ValueError):
            Layout(dim_order=(0, 1), memory=MemoryKind.TEXTURE_2D5)

    def test_fast_dims_two(self):
        layout = Layout.texture((0, 1, 2), vector_dim=1)
        assert set(layout.fast_dims()) == {1, 2}

    def test_fast_dims_dedup(self):
        layout = Layout.texture((0, 1, 2), vector_dim=2)
        assert layout.fast_dims() == (2,)

    def test_texel_count_pads_vector(self):
        layout = Layout.texture((0, 1), vector_dim=1)
        # 6 elements along the vector dim pack into ceil(6/4)=2 texels per row
        assert layout.texel_count((3, 6)) == 6

    def test_texture_extent(self):
        layout = Layout.texture((0, 1, 2), vector_dim=2, num_width_dims=1)
        width, height = layout.texture_extent((2, 3, 8))
        assert width == 3      # innermost non-vector dim
        assert height == 2

    def test_extent_rank_mismatch(self):
        layout = Layout.texture((0, 1), vector_dim=1)
        with pytest.raises(ValueError):
            layout.texture_extent((2, 3, 4))

    def test_buffer_rejects_texture_queries(self):
        with pytest.raises(ValueError):
            Layout.row_major(2).texel_count((2, 2))


class TestJson:
    def test_roundtrip_buffer(self):
        layout = Layout.buffer((1, 0, 2))
        assert Layout.from_json(layout.to_json()) == layout

    def test_roundtrip_texture(self):
        layout = Layout.texture((2, 0, 1), vector_dim=0, num_width_dims=2)
        assert Layout.from_json(layout.to_json()) == layout


@given(st.integers(1, 5).flatmap(
    lambda r: st.tuples(st.permutations(range(r)),
                        st.lists(st.integers(1, 6), min_size=r, max_size=r))))
def test_strides_are_a_bijection(perm_shape):
    """Every element address is unique under any permutation layout."""
    perm, shape = tuple(perm_shape[0]), tuple(perm_shape[1])
    layout = Layout.buffer(perm)
    strides = layout.strides(shape)
    seen = set()
    import itertools
    for coords in itertools.product(*(range(d) for d in shape)):
        addr = sum(c * s for c, s in zip(coords, strides))
        assert addr not in seen
        seen.add(addr)
    import math
    assert len(seen) == math.prod(shape)
