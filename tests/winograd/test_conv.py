"""Tests for the Winograd convolution against the direct reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.winograd import (
    conv2d_backward_input,
    conv2d_backward_weight,
    conv2d_forward,
    elementwise_matmul,
    make_transform,
    spatial_to_winograd,
    winograd_backward,
    winograd_backward_spatial,
    winograd_forward,
    winograd_forward_spatial,
    winograd_to_spatial_lstsq,
)


class TestForwardEquivalence:
    @pytest.mark.parametrize(
        "m,r,pad,h,w",
        [(2, 3, 1, 8, 8), (4, 3, 1, 9, 11), (2, 5, 2, 12, 10), (2, 3, 0, 7, 7)],
    )
    def test_matches_direct(self, m, r, pad, h, w):
        tr = make_transform(m, r)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, h, w))
        wt = rng.standard_normal((4, 3, r, r))
        expected = conv2d_forward(x, wt, pad)
        got, _ = winograd_forward_spatial(x, wt, tr, pad)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    @given(
        h=st.integers(min_value=5, max_value=12),
        w=st.integers(min_value=5, max_value=12),
        pad=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_matches_direct(self, h, w, pad, seed):
        tr = make_transform(2, 3)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, h, w))
        wt = rng.standard_normal((2, 2, 3, 3))
        expected = conv2d_forward(x, wt, pad)
        got, _ = winograd_forward_spatial(x, wt, tr, pad)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_weight_tile_mismatch_rejected(self):
        tr = make_transform(2, 3)
        with pytest.raises(ValueError):
            winograd_forward(np.zeros((1, 1, 8, 8)), np.zeros((1, 1, 3, 3)), tr, 1)


class TestBackwardEquivalence:
    @pytest.mark.parametrize("m,r,pad", [(2, 3, 1), (4, 3, 1), (2, 5, 2)])
    def test_gradients_match_direct(self, m, r, pad):
        tr = make_transform(m, r)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 10, 10))
        wt = rng.standard_normal((4, 3, r, r))
        y, cache = winograd_forward_spatial(x, wt, tr, pad)
        dy = rng.standard_normal(y.shape)
        dx, dw = winograd_backward_spatial(dy, wt, tr, cache)
        np.testing.assert_allclose(
            dx, conv2d_backward_input(dy, wt, pad, (10, 10)), atol=1e-7
        )
        np.testing.assert_allclose(dw, conv2d_backward_weight(x, dy, pad), atol=1e-7)

    def test_winograd_domain_gradient_is_adjoint_consistent(self):
        """dW from winograd_backward must equal the gradient of the loss
        <y, dy> with respect to the Winograd-domain weights (numeric)."""
        tr = make_transform(2, 3)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 6, 6))
        weights = spatial_to_winograd(rng.standard_normal((2, 2, 3, 3)), tr)
        y, cache = winograd_forward(x, weights, tr, 1)
        dy = rng.standard_normal(y.shape)
        _, dw = winograd_backward(dy, weights, tr, cache)
        eps = 1e-6
        for idx in [(1, 1, 0, 0), (3, 2, 1, 1), (0, 0, 1, 0)]:  # (u, v, i, j)
            wp, wm = weights.copy(), weights.copy()
            wp[idx] += eps
            wm[idx] -= eps
            yp, _ = winograd_forward(x, wp, tr, 1)
            ym, _ = winograd_forward(x, wm, tr, 1)
            num = (np.sum(yp * dy) - np.sum(ym * dy)) / (2 * eps)
            assert abs(dw[idx] - num) < 1e-5


class TestElementwiseMatmul:
    """Equation 2: the dot products are T^2 independent GEMMs."""

    def test_matches_einsum(self):
        rng = np.random.default_rng(3)
        tiles = rng.standard_normal((4, 4, 2, 2, 2, 3))
        weights = rng.standard_normal((4, 4, 3, 5))
        got = elementwise_matmul(tiles, weights)
        expected = np.einsum("uvbxyi,uvij->uvbxyj", tiles, weights)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_no_cross_element_mixing(self):
        """Changing element (u,v) of the input must not affect any other
        element of the output — the independence MPT exploits."""
        rng = np.random.default_rng(4)
        tiles = rng.standard_normal((4, 4, 1, 1, 1, 2))
        weights = rng.standard_normal((4, 4, 2, 2))
        base = elementwise_matmul(tiles, weights)
        tiles2 = tiles.copy()
        tiles2[1, 2] += 1.0
        out2 = elementwise_matmul(tiles2, weights)
        diff = np.abs(out2 - base)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        assert np.all(diff[~mask] == 0)
        assert np.any(diff[1, 2] > 0)


class TestWeightProjection:
    def test_lstsq_round_trip(self):
        """Lifting spatial weights then projecting back is the identity."""
        tr = make_transform(2, 3)
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 2, 3, 3))
        lifted = spatial_to_winograd(w, tr)
        back = winograd_to_spatial_lstsq(lifted, tr)
        np.testing.assert_allclose(back, w, atol=1e-9)
