"""End-to-end integration: figure generators, measured-vs-default traffic
factors, and functional data flow through the communication engines."""

import numpy as np
import pytest

from repro.analysis import (
    fig01_rows,
    fig06_rows,
    fig07_rows,
    fig15_average_speedup,
    fig15_rows,
    fig16_rows,
    fig18_rows,
    format_table,
    table1_rows,
    table2_rows,
)
from repro.core import DEFAULT_FACTORS
from repro.ndp import CollectiveEngine, P2PEngine
from repro.prediction import default_datasets, run_prediction_sweep


class TestFigureGenerators:
    def test_fig01(self):
        rows = fig01_rows()
        assert len(rows) == 10
        for row in rows:
            assert row["compute_reduction_x"] > 1.0
            assert row["access_increase_x"] > 1.0

    def test_fig06_early_vs_late(self):
        rows = fig06_rows()
        early_mpt = next(
            r for r in rows if r["layer"] == "Early" and "w_mp(16" in r["strategy"]
        )
        late_mpt = next(
            r for r in rows if r["layer"] == "Late-2" and "w_mp(16" in r["strategy"]
        )
        early_dp = next(
            r for r in rows if r["layer"] == "Early" and r["strategy"].startswith("w_dp")
        )
        late_dp = next(
            r for r in rows if r["layer"] == "Late-2" and r["strategy"].startswith("w_dp")
        )
        assert early_mpt["total_MB"] > early_dp["total_MB"]  # MPT loses early
        assert late_mpt["total_MB"] < late_dp["total_MB"]  # MPT wins late

    def test_fig07_crossover(self):
        """DP flat, MPT decreasing, with a crossover at large p."""
        rows = fig07_rows(worker_counts=[16, 256, 1024])
        assert rows[0]["mpt_MB"] > rows[0]["dp_MB"]
        assert rows[-1]["mpt_MB"] < rows[-1]["dp_MB"]
        assert rows[-1]["dp_MB"] == pytest.approx(rows[0]["dp_MB"], rel=0.15)

    def test_fig15_headline(self):
        """w_mp++ layer-wise average speedup lands in the paper's band
        (paper: 2.74x)."""
        speedup = fig15_average_speedup()
        assert 1.8 < speedup < 3.5

    def test_fig15_rows_complete(self):
        rows = fig15_rows()
        assert len(rows) == 25  # 5 layers x 5 configs
        for row in rows:
            assert row["total_us"] > 0

    def test_fig16_both_kernels_benefit(self):
        rows = fig16_rows()
        by = {(r["kernel"], r["config"]): r["avg_speedup_vs_w_dp"] for r in rows}
        assert by[("3x3", "w_mp++")] > 1.5
        assert by[("5x5", "w_mp++")] > 1.5

    def test_fig18_ndp_wins_perf_per_watt(self):
        rows = fig18_rows()
        for row in rows:
            assert row["perf_per_watt_ratio"] > 1.0

    def test_tables(self):
        assert len(table1_rows()) == 3
        assert len(table2_rows()) == 5
        text = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]])
        assert "a" in text and "x" in text


class TestMeasuredFactorsVsModelDefaults:
    """The performance model's default traffic factors come from the
    paper; the prediction harness must measure factors of the same
    magnitude on synthetic data (closing the loop between the functional
    and timing layers)."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_prediction_sweep(default_datasets(seed=0))

    def test_gather_2d(self, sweep):
        measured = sweep.gather_reduction[("ImageNet", "2d")]
        assert measured == pytest.approx(1 - DEFAULT_FACTORS.gather_2d, abs=0.12)

    def test_gather_1d(self, sweep):
        measured = sweep.gather_reduction[("ImageNet", "1d")]
        assert measured == pytest.approx(1 - DEFAULT_FACTORS.gather_1d, abs=0.12)

    def test_scatter_2d(self, sweep):
        measured = sweep.scatter_reduction[("ImageNet", "2d")]
        assert measured == pytest.approx(1 - DEFAULT_FACTORS.scatter_2d, abs=0.12)

    def test_scatter_1d(self, sweep):
        measured = sweep.scatter_reduction[("ImageNet", "1d")]
        assert measured == pytest.approx(1 - DEFAULT_FACTORS.scatter_1d, abs=0.15)


class TestFunctionalDataFlow:
    def test_mpt_weight_gradient_allreduce_matches_single_worker(self):
        """Simulate MPT's distributed weight update functionally: each
        cluster computes Winograd-domain gradients on its batch shard,
        the group all-reduces them, and the result must equal the
        single-worker gradient on the full batch."""
        from repro.winograd import (
            make_transform,
            spatial_to_winograd,
            winograd_backward,
            winograd_forward,
        )

        transform = make_transform(2, 3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3, 8, 8))
        weights = spatial_to_winograd(rng.standard_normal((4, 3, 3, 3)), transform)
        y, cache = winograd_forward(x, weights, transform, 1)
        dy = rng.standard_normal(y.shape)
        _, dw_full = winograd_backward(dy, weights, transform, cache)

        # Split the batch over 4 clusters and all-reduce their gradients.
        contributions = []
        for c in range(4):
            xs = x[c * 2 : (c + 1) * 2]
            ys, cache_c = winograd_forward(xs, weights, transform, 1)
            _, dw_c = winograd_backward(
                dy[c * 2 : (c + 1) * 2], weights, transform, cache_c
            )
            contributions.append(dw_c)
        results, _ = CollectiveEngine(chunk_elems=32).allreduce(contributions)
        for result in results:
            np.testing.assert_allclose(result, dw_full, atol=1e-8)

    def test_tile_transfer_with_packing_is_lossless(self):
        """Scatter Winograd input tiles through the P2P engine with
        zero-skipping and verify the dot products are unchanged."""
        from repro.winograd import TileGrid, elementwise_matmul, extract_tiles, make_transform
        from repro.nn import natural_feature_maps

        transform = make_transform(2, 3)
        maps = natural_feature_maps(2, 3, 8, seed=1, sparsity=0.7)
        grid = TileGrid(height=8, width=8, pad=1, m=2, r=3)
        tiles = transform.transform_input(extract_tiles(maps, grid))
        rng = np.random.default_rng(2)
        weights = rng.standard_normal((4, 4, 3, 4))
        expected = elementwise_matmul(tiles, weights)

        engine = P2PEngine()
        received = engine.unpack(engine.pack(tiles))
        got = elementwise_matmul(received, weights)
        np.testing.assert_allclose(got, expected, atol=1e-12)
