"""Tests for the Fig. 12 measurement harness."""

import numpy as np
import pytest

from repro.prediction import (
    default_datasets,
    make_tile_sample,
    run_prediction_sweep,
)


@pytest.fixture(scope="module")
def sweep():
    return run_prediction_sweep(default_datasets(seed=0))


class TestTileSample:
    def test_shapes(self):
        sample = make_tile_sample(batch=2, in_channels=4, out_channels=6, size=12)
        assert sample.input_tiles_spatial.shape[:2] == (2, 4)
        assert sample.output_tiles_wd.shape[:2] == (2, 6)
        assert sample.output_tiles_wd.shape[-2:] == (4, 4)

    def test_values_suit_the_sigma_scaled_quantiser(self):
        """Section V-A observes normal-distributed Winograd values and
        sizes the quantiser range from sigma.  Our synthetic stand-in is
        heavier-tailed than trained-CNN data (which only makes the
        conservative prediction harder); what the quantiser needs is
        that a 4-sigma range covers nearly all values (low overflow
        rate) and that the bulk is roughly symmetric."""
        tiles = make_tile_sample(batch=4, in_channels=16, size=16, seed=0)
        values = tiles.output_tiles_wd
        sigma = values.std()
        coverage = float((np.abs(values - values.mean()) < 4 * sigma).mean())
        assert coverage > 0.95
        assert abs(float(np.median(values))) < 0.3 * sigma

    def test_bias_shift_raises_dead_ratio(self):
        from repro.winograd import make_transform

        tr = make_transform(2, 3)
        low = make_tile_sample(batch=4, size=16, seed=0, bias_shift=0.0)
        high = make_tile_sample(batch=4, size=16, seed=0, bias_shift=1.0)
        def dead(tiles):
            real = tr.inverse_transform(np.moveaxis(tiles, (-2, -1), (0, 1)))
            return (real <= 0).mean()

        dead_low, dead_high = dead(low.output_tiles_wd), dead(high.output_tiles_wd)
        assert dead_high > dead_low


class TestSweep:
    def test_covers_both_datasets_and_modes(self, sweep):
        datasets = {r.dataset for r in sweep.rows}
        modes = {r.mode for r in sweep.rows}
        assert datasets == {"CIFAR", "ImageNet"}
        assert modes == {"1d", "2d"}

    def test_no_false_negatives_anywhere(self, sweep):
        assert all(r.false_negatives == 0 for r in sweep.rows)

    def test_four_regions_best_for_every_case(self, sweep):
        """Fig. 12's conclusion: 4 regions matches the value distribution
        best in every dataset/mode combination."""
        for dataset in ("CIFAR", "ImageNet"):
            for mode in ("1d", "2d"):
                rows = [
                    r for r in sweep.rows if r.dataset == dataset and r.mode == mode
                ]
                best = max(rows, key=lambda r: r.predicted_ratio)
                assert best.regions == 4

    def test_gather_reductions_near_paper(self, sweep):
        """Section V-B: 34.0% (2D) and 78.1% (1D)."""
        for name in ("CIFAR", "ImageNet"):
            assert 0.2 < sweep.gather_reduction[(name, "2d")] < 0.5
            assert 0.6 < sweep.gather_reduction[(name, "1d")] < 0.85

    def test_scatter_reductions_near_paper(self, sweep):
        """Section V-B: 39.3% (2D) and 64.7% (1D)."""
        for name in ("CIFAR", "ImageNet"):
            assert 0.25 < sweep.scatter_reduction[(name, "2d")] < 0.55
            assert 0.40 < sweep.scatter_reduction[(name, "1d")] < 0.75

    def test_1d_beats_2d_reductions(self, sweep):
        for name in ("CIFAR", "ImageNet"):
            assert (
                sweep.gather_reduction[(name, "1d")]
                > sweep.gather_reduction[(name, "2d")]
            )
            assert (
                sweep.scatter_reduction[(name, "1d")]
                > sweep.scatter_reduction[(name, "2d")]
            )
