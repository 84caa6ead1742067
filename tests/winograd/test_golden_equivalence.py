"""Golden equivalence: vectorized kernels vs the loop references.

The production kernels (batched ``matmul`` / stride tricks) and the
loop-level references in :mod:`repro.winograd.reference` compute the
same quantities on the same element-major layout.  Where both sides
perform the identical reductions the comparison is exact
(``np.array_equal`` on same-dtype outputs) — the overlap-add included,
since its descending element loop feeds every canvas cell in the
per-tile loop's order; where the GEMMs run over differently batched
operands the comparison is ``allclose`` at ``rtol=1e-12``.

Shapes deliberately include the awkward cases: outputs not divisible by
``m`` (ragged tile grids), both paper kernel sizes ``r in {3, 5}``, and
multi-group transforms.
"""

import numpy as np
import pytest

from repro.winograd import make_transform
from repro.winograd.conv import (
    elementwise_matmul,
    elementwise_matmul_transposed,
    elementwise_weight_grad,
    winograd_backward,
    winograd_forward,
)
from repro.winograd.reference import (
    assemble_output_adjoint_reference,
    assemble_output_reference,
    elementwise_matmul_reference,
    elementwise_matmul_transposed_reference,
    elementwise_weight_grad_reference,
    extract_tiles_adjoint_reference,
    extract_tiles_reference,
)
from repro.winograd.tiling import (
    TileGrid,
    assemble_output,
    assemble_output_adjoint,
    extract_tiles,
    extract_tiles_adjoint,
)

#: (m, r, H, W, pad) including ragged grids where out size % m != 0.
GEOMETRIES = [
    (4, 3, 28, 28, 1),   # clean VGG-ish layer
    (4, 3, 14, 14, 1),   # 14 outputs over m=4 -> ceil: ragged last tile
    (2, 3, 7, 9, 1),     # odd, non-square
    (2, 5, 12, 12, 2),   # r=5 (F(2x2, 5x5), the paper's other kernel)
    (4, 5, 11, 13, 2),   # r=5 ragged and non-square
]


def _rng():
    return np.random.default_rng(7)


def _tiles_pair(t, shape=(3, 5, 4, 3)):
    """Random Winograd-domain tiles (T, T, B, th, tw, C) pairs."""
    rng = _rng()
    batch, ch, th, tw = shape
    tiles = rng.standard_normal((t, t, batch, th, tw, ch))
    grads = rng.standard_normal((t, t, batch, th, tw, ch + 1))
    weights = rng.standard_normal((t, t, ch, ch + 1))
    return tiles, grads, weights


class TestElementwiseKernels:
    """The T^2 batched GEMMs vs Equation 2's per-element loop."""

    @pytest.mark.parametrize("t", [4, 6])
    def test_matmul_exact(self, t):
        tiles, _, weights = _tiles_pair(t)
        fast = elementwise_matmul(tiles, weights)
        ref = elementwise_matmul_reference(tiles, weights)
        assert fast.dtype == ref.dtype
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("t", [4, 6])
    def test_matmul_transposed(self, t):
        _, grads, weights = _tiles_pair(t)
        fast = elementwise_matmul_transposed(grads, weights)
        ref = elementwise_matmul_transposed_reference(grads, weights)
        assert fast.dtype == ref.dtype
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("t", [4, 6])
    def test_weight_grad(self, t):
        tiles, grads, _ = _tiles_pair(t)
        fast = elementwise_weight_grad(tiles, grads)
        ref = elementwise_weight_grad_reference(tiles, grads)
        assert fast.dtype == ref.dtype
        # Sums over (batch, th, tw) are reassociated by the batched
        # tensordot, so exact bit equality is not guaranteed here.
        scale = np.abs(ref).max()
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-12 * scale)


class TestTiling:
    """Stride-tricks extraction/assembly vs the per-tile copy loops."""

    @pytest.mark.parametrize("m,r,height,width,pad", GEOMETRIES)
    def test_extract_tiles_exact(self, m, r, height, width, pad):
        grid = TileGrid(height=height, width=width, pad=pad, m=m, r=r)
        x = _rng().standard_normal((2, 3, height, width))
        fast = extract_tiles(x, grid)
        ref = extract_tiles_reference(x, grid)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("m,r,height,width,pad", GEOMETRIES)
    def test_extract_tiles_adjoint(self, m, r, height, width, pad):
        grid = TileGrid(height=height, width=width, pad=pad, m=m, r=r)
        t = grid.tile
        d_tiles = _rng().standard_normal(
            (t, t, 2, grid.tiles_high, grid.tiles_wide, 3)
        )
        fast = extract_tiles_adjoint(d_tiles, grid)
        ref = extract_tiles_adjoint_reference(d_tiles, grid)
        assert fast.dtype == ref.dtype
        # Each canvas cell receives its overlapping tiles in the
        # per-tile loop's (tile_row, tile_col) order: bit-identical.
        assert np.array_equal(fast, ref)

    def test_extract_tiles_adjoint_large_grid_dispatch(self):
        """A 1,089-tile grid (33 x 33 tiles per image) matches the
        reference loop bit for bit: one overlap-add path at every size."""
        grid = TileGrid(height=132, width=132, pad=1, m=4, r=3)
        assert grid.tiles_per_image == 1089
        d_tiles = _rng().standard_normal(
            (grid.tile, grid.tile, 1, grid.tiles_high, grid.tiles_wide, 2)
        )
        fast = extract_tiles_adjoint(d_tiles, grid)
        ref = extract_tiles_adjoint_reference(d_tiles, grid)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("m,r,height,width,pad", GEOMETRIES)
    def test_assemble_output_exact(self, m, r, height, width, pad):
        grid = TileGrid(height=height, width=width, pad=pad, m=m, r=r)
        out_tiles = _rng().standard_normal(
            (m, m, 2, grid.tiles_high, grid.tiles_wide, 3)
        )
        fast = assemble_output(out_tiles, grid)
        ref = assemble_output_reference(out_tiles, grid)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("m,r,height,width,pad", GEOMETRIES)
    def test_assemble_output_adjoint_exact(self, m, r, height, width, pad):
        grid = TileGrid(height=height, width=width, pad=pad, m=m, r=r)
        dy = _rng().standard_normal((2, 3, grid.out_height, grid.out_width))
        fast = assemble_output_adjoint(dy, grid)
        ref = assemble_output_adjoint_reference(dy, grid)
        assert fast.dtype == ref.dtype
        assert np.array_equal(fast, ref)


class TestEndToEndAgainstReferencePipeline:
    """Full forward/backward built from reference pieces only."""

    @pytest.mark.parametrize("m,r,height,width,pad", GEOMETRIES)
    def test_forward_matches_reference_pipeline(self, m, r, height, width, pad):
        rng = _rng()
        transform = make_transform(m, r)
        t = transform.tile
        x = rng.standard_normal((2, 3, height, width))
        weights = rng.standard_normal((t, t, 3, 4))
        y, cache = winograd_forward(x, weights, transform, pad=pad)

        grid = cache.grid
        ref_tiles = transform.transform_input(extract_tiles_reference(x, grid))
        ref_out_wd = elementwise_matmul_reference(ref_tiles, weights)
        ref_y = assemble_output_reference(
            transform.inverse_transform(ref_out_wd), grid
        )
        np.testing.assert_allclose(y, ref_y, rtol=1e-12)

    def test_backward_matches_reference_pipeline_multigroup_transform(self):
        """r=3 with the multi-group default transform F(2x2, 3x3)."""
        rng = _rng()
        transform = make_transform(2, 3)
        t = transform.tile
        x = rng.standard_normal((2, 3, 9, 9))  # B*t not divisible by N_c=4
        weights = rng.standard_normal((t, t, 3, 4))
        y, cache = winograd_forward(x, weights, transform, pad=1)
        dy = rng.standard_normal(y.shape)
        dx, dw = winograd_backward(dy, weights, transform, cache)

        grid = cache.grid
        dy_tiles = transform.inverse_transform_transposed(
            assemble_output_adjoint_reference(dy, grid)
        )
        ref_dw = elementwise_weight_grad_reference(cache.input_tiles, dy_tiles)
        ref_dx = extract_tiles_adjoint_reference(
            transform.transform_input_transposed(
                elementwise_matmul_transposed_reference(dy_tiles, weights)
            ),
            grid,
        )
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
