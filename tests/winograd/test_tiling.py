"""Tests for tile extraction/assembly geometry and adjoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.winograd import (
    TileGrid,
    assemble_output,
    assemble_output_adjoint,
    extract_tiles,
    extract_tiles_adjoint,
)


class TestGeometry:
    def test_same_padding_3x3(self):
        grid = TileGrid(height=8, width=8, pad=1, m=2, r=3)
        assert grid.out_height == 8
        assert grid.tile == 4
        assert grid.tiles_high == 4
        assert grid.tiles_per_image == 16

    def test_no_padding(self):
        grid = TileGrid(height=8, width=8, pad=0, m=2, r=3)
        assert grid.out_height == 6
        assert grid.tiles_high == 3

    def test_ragged_output(self):
        # 7x7 output with m=2 -> 4 tiles per dim, last partially used.
        grid = TileGrid(height=7, width=7, pad=1, m=2, r=3)
        assert grid.out_height == 7
        assert grid.tiles_high == 4

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError):
            TileGrid(height=2, width=2, pad=0, m=2, r=5)

    def test_f43_tile_count(self):
        grid = TileGrid(height=14, width=14, pad=1, m=4, r=3)
        assert grid.tile == 6
        assert grid.tiles_per_image == 16


class TestExtraction:
    def test_tile_values_match_padded_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 6, 6))
        grid = TileGrid(height=6, width=6, pad=1, m=2, r=3)
        tiles = extract_tiles(x, grid)
        assert tiles.shape == (4, 4, 1, 3, 3, 1)
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        np.testing.assert_allclose(tiles[:, :, 0, 0, 0, 0], padded[0, 0, :4, :4])
        np.testing.assert_allclose(tiles[:, :, 0, 1, 1, 0], padded[0, 0, 2:6, 2:6])

    def test_shape_mismatch_rejected(self):
        grid = TileGrid(height=6, width=6, pad=1, m=2, r=3)
        with pytest.raises(ValueError):
            extract_tiles(np.zeros((1, 1, 5, 5)), grid)

    def test_overlap_shared_between_tiles(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 8, 8))
        grid = TileGrid(height=8, width=8, pad=0, m=2, r=3)
        tiles = extract_tiles(x, grid)
        # Column overlap: last 2 columns of tile (0,0) = first 2 of (0,1).
        np.testing.assert_allclose(tiles[:, 2:, 0, 0, 0, 0], tiles[:, :2, 0, 0, 1, 0])


class TestAssembly:
    def test_round_trip_exact_fit(self):
        rng = np.random.default_rng(2)
        grid = TileGrid(height=8, width=8, pad=1, m=2, r=3)
        y = rng.standard_normal((2, 3, 8, 8))
        tiles = assemble_output_adjoint(y, grid)
        back = assemble_output(tiles, grid)
        np.testing.assert_allclose(back, y)

    def test_round_trip_ragged(self):
        rng = np.random.default_rng(3)
        grid = TileGrid(height=7, width=9, pad=1, m=2, r=3)
        y = rng.standard_normal((1, 2, grid.out_height, grid.out_width))
        back = assemble_output(assemble_output_adjoint(y, grid), grid)
        np.testing.assert_allclose(back, y)


class TestAdjoints:
    @given(
        h=st.integers(min_value=4, max_value=12),
        w=st.integers(min_value=4, max_value=12),
        pad=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_extract_adjoint_property(self, h, w, pad, seed):
        """<extract(x), t> == <x, extract_adjoint(t)> for all x, t."""
        grid = TileGrid(height=h, width=w, pad=pad, m=2, r=3)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 1, h, w))
        t = rng.standard_normal((4, 4, 1, grid.tiles_high, grid.tiles_wide, 1))
        lhs = np.sum(extract_tiles(x, grid) * t)
        rhs = np.sum(x * extract_tiles_adjoint(t, grid))
        assert abs(lhs - rhs) < 1e-9

    def test_assemble_adjoint_property(self):
        grid = TileGrid(height=8, width=8, pad=1, m=2, r=3)
        rng = np.random.default_rng(9)
        tiles = rng.standard_normal((2, 2, 1, 4, 4, 2))
        y = rng.standard_normal((1, 2, 8, 8))
        lhs = np.sum(assemble_output(tiles, grid) * y)
        rhs = np.sum(tiles * assemble_output_adjoint(y, grid))
        assert abs(lhs - rhs) < 1e-9

    def test_overlap_add_sums_overlaps(self):
        grid = TileGrid(height=6, width=6, pad=0, m=2, r=3)
        assert grid.tiles_wide == 2
        # Horizontally adjacent tiles overlap on columns 2-3.
        tiles = np.ones((4, 4, 1, grid.tiles_high, grid.tiles_wide, 1))
        dx = extract_tiles_adjoint(tiles, grid)
        assert dx[0, 0, 0, 0] == 1.0  # covered by one tile
        assert dx[0, 0, 0, 2] == 2.0  # covered by 2 tiles horizontally
        assert dx[0, 0, 2, 2] == 4.0  # covered by 2 tiles in each dim
