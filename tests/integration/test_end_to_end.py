"""End-to-end integration: functional data flow through the
collective engine.  The figure generators and the measured traffic
factors are checked as claims in ``tests/test_paper_claims.py``."""

import numpy as np

from repro.ndp import CollectiveEngine


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
