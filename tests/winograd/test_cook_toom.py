"""Tests for the exact Cook-Toom transform construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.winograd import default_points, make_transform


def one_tile(a: np.ndarray) -> np.ndarray:
    """A single ``(T, T)`` tile as the rank-6 element-major array the 2D
    transforms take."""
    return a.reshape(a.shape + (1, 1, 1, 1))


def one_filter(w: np.ndarray) -> np.ndarray:
    """A single ``(r, r)`` filter as an element-major ``(r, r, 1, 1)``."""
    return w.reshape(w.shape + (1, 1))


def reference_correlation_1d(x: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    r = len(w)
    return np.array([sum(x[i + j] * w[j] for j in range(r)) for i in range(m)])


def reference_correlation_2d(x: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    r = w.shape[0]
    return np.array(
        [
            [
                sum(x[i + a, j + b] * w[a, b] for a in range(r) for b in range(r))
                for j in range(m)
            ]
            for i in range(m)
        ]
    )


class TestPoints:
    def test_requested_count(self):
        assert len(default_points(5)) == 5

    def test_points_distinct(self):
        points = default_points(15)
        assert len(set(points)) == len(points)

    def test_zero_first(self):
        assert default_points(1)[0] == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            default_points(-1)

    def test_oversized_count_rejected(self):
        with pytest.raises(ValueError):
            default_points(100)


class TestConstruction:
    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (2, 5), (6, 3), (1, 3), (3, 1), (2, 2)])
    def test_shapes(self, m, r):
        tr = make_transform(m, r)
        t = m + r - 1
        assert tr.tile == t
        assert tr.B.shape == (t, t)
        assert tr.G.shape == (t, r)
        assert tr.A.shape == (t, m)

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            make_transform(0, 3)

    def test_invalid_r_rejected(self):
        with pytest.raises(ValueError):
            make_transform(2, 0)

    def test_cached(self):
        assert make_transform(2, 3) is make_transform(2, 3)

    def test_exact_entries_are_fractions(self):
        from fractions import Fraction

        tr = make_transform(2, 3)
        assert all(isinstance(v, Fraction) for row in tr.B_exact for v in row)

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (2, 5), (6, 3)])
    def test_1d_correlation_exact(self, m, r):
        tr = make_transform(m, r)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(tr.tile)
        w = rng.standard_normal(r)
        got = tr.inverse_transform_1d(tr.transform_input_1d(x) * tr.transform_weight_1d(w))
        np.testing.assert_allclose(got, reference_correlation_1d(x, w, m), atol=1e-10)

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (2, 5)])
    def test_2d_correlation_exact(self, m, r):
        tr = make_transform(m, r)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((tr.tile, tr.tile))
        w = rng.standard_normal((r, r))
        wd = tr.transform_weight(one_filter(w))[:, :, :, :, None, None]
        got = tr.inverse_transform(tr.transform_input(one_tile(x)) * wd)
        np.testing.assert_allclose(
            got[:, :, 0, 0, 0, 0], reference_correlation_2d(x, w, m), atol=1e-9
        )

    @given(
        m=st.integers(min_value=1, max_value=4),
        r=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_correlation_matches(self, m, r, seed):
        tr = make_transform(m, r)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(tr.tile)
        w = rng.standard_normal(r)
        got = tr.inverse_transform_1d(tr.transform_input_1d(x) * tr.transform_weight_1d(w))
        np.testing.assert_allclose(got, reference_correlation_1d(x, w, m), atol=1e-8)

    def test_f23_reduces_multiplications(self):
        # F(2x2,3x3): 16 dot-product muls for 4 outputs vs 36 direct.
        tr = make_transform(2, 3)
        assert tr.tile**2 == 16
        assert 36 / tr.tile**2 == 2.25


class TestTransposedOperators:
    """The gradient operators must be true adjoints of the forward ones."""

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (2, 5)])
    def test_inverse_transform_adjoint(self, m, r):
        tr = make_transform(m, r)
        rng = np.random.default_rng(3)
        a = one_tile(rng.standard_normal((tr.tile, tr.tile)))
        b = one_tile(rng.standard_normal((m, m)))
        lhs = np.sum(tr.inverse_transform(a) * b)
        rhs = np.sum(a * tr.inverse_transform_transposed(b))
        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (2, 5)])
    def test_input_transform_adjoint(self, m, r):
        tr = make_transform(m, r)
        rng = np.random.default_rng(4)
        a = one_tile(rng.standard_normal((tr.tile, tr.tile)))
        b = one_tile(rng.standard_normal((tr.tile, tr.tile)))
        lhs = np.sum(tr.transform_input(a) * b)
        rhs = np.sum(a * tr.transform_input_transposed(b))
        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (2, 5)])
    def test_weight_transform_adjoint(self, m, r):
        tr = make_transform(m, r)
        rng = np.random.default_rng(5)
        a = one_filter(rng.standard_normal((r, r)))
        b = one_filter(rng.standard_normal((tr.tile, tr.tile)))
        lhs = np.sum(tr.transform_weight(a) * b)
        rhs = np.sum(a * tr.transform_weight_transposed(b))
        assert abs(lhs - rhs) < 1e-9

    def test_batched_axes_supported(self):
        tr = make_transform(2, 3)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((tr.tile, tr.tile, 3, 5, 2, 4))
        out = tr.transform_input(x)
        assert out.shape == x.shape
        single = tr.transform_input(x[:, :, 1:2, 2:3, 0:1, 3:4])
        np.testing.assert_allclose(out[:, :, 1, 2, 0, 3], single[:, :, 0, 0, 0, 0])
