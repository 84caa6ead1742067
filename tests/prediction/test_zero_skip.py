"""Tests for zero-skipping of input-tile scatter (paper Section V-B)."""

import numpy as np

from repro.nn import natural_feature_maps
from repro.prediction import zero_skip_1d, zero_skip_2d
from repro.winograd import TileGrid, extract_tiles, make_transform


def sparse_tiles(seed=0, sparsity=0.65):
    """Tile-major ``(B, th, tw, C, T, T)`` spatial tiles of sparse maps."""
    maps = natural_feature_maps(4, 8, 16, seed=seed, sparsity=sparsity)
    grid = TileGrid(height=16, width=16, pad=1, m=2, r=3)
    return np.moveaxis(extract_tiles(maps, grid), (0, 1), (-2, -1))


class TestSkipRatios:
    def test_1d_skips_more_than_2d(self):
        """The half transform preserves the zero columns of sparse
        spatial tiles; the full 2D transform mixes them (paper: 64.7% vs
        39.3%)."""
        tiles = sparse_tiles()
        transform = make_transform(2, 3)
        assert (
            zero_skip_1d(tiles, transform).skip_ratio
            > zero_skip_2d(tiles, transform).skip_ratio
        )

    def test_skip_ratio_increases_with_sparsity(self):
        transform = make_transform(2, 3)
        low = zero_skip_2d(sparse_tiles(sparsity=0.4), transform).skip_ratio
        high = zero_skip_2d(sparse_tiles(sparsity=0.8), transform).skip_ratio
        assert high > low

    def test_dense_input_barely_skips(self):
        rng = np.random.default_rng(1)
        tiles = rng.standard_normal((2, 2, 3, 3, 4, 4))
        transform = make_transform(2, 3)
        assert zero_skip_2d(tiles, transform).skip_ratio < 0.01

    def test_traffic_reduction_charges_bitmask(self):
        tiles = sparse_tiles()
        transform = make_transform(2, 3)
        result = zero_skip_2d(tiles, transform)
        assert result.traffic_reduction == result.skip_ratio - 1 / 32

    def test_paper_band(self):
        """Measured reductions should land near the paper's 39.3% (2D)
        and 64.7% (1D) figures."""
        tiles = sparse_tiles()
        transform = make_transform(2, 3)
        r2 = zero_skip_2d(tiles, transform).traffic_reduction
        r1 = zero_skip_1d(tiles, transform).traffic_reduction
        assert 0.25 < r2 < 0.55
        assert 0.40 < r1 < 0.75
