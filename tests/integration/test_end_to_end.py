"""End-to-end integration: functional data flow through the
communication engines.  The figure generators and the measured traffic
factors are checked as claims in ``tests/test_paper_claims.py``."""

import numpy as np

from repro.ndp import CollectiveEngine, P2PEngine


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
