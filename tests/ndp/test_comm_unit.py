"""Tests for the functional collective engine (Section VI-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ndp import Chunk, CollectiveEngine, ReduceBlock


class TestReduceBlock:
    def test_stores_then_accumulates(self):
        block = ReduceBlock("msg")
        first = block.accept(Chunk("msg", 0, np.array([1.0, 2.0]), 0))
        np.testing.assert_array_equal(first, [1.0, 2.0])
        second = block.accept(Chunk("msg", 0, np.array([10.0, 20.0]), 0))
        np.testing.assert_array_equal(second, [11.0, 22.0])

    def test_out_of_order_chunks(self):
        """Chunks of different indices may arrive in any order (the
        concurrent-collective feature)."""
        block = ReduceBlock("msg")
        block.accept(Chunk("msg", 8, np.array([1.0]), 0))
        block.accept(Chunk("msg", 0, np.array([2.0]), 0))
        block.accept(Chunk("msg", 8, np.array([3.0]), 0))
        np.testing.assert_array_equal(block.buffer[8], [4.0])
        np.testing.assert_array_equal(block.buffer[0], [2.0])

    def test_wrong_message_rejected(self):
        block = ReduceBlock("msg-a")
        with pytest.raises(ValueError):
            block.accept(Chunk("msg-b", 0, np.array([1.0]), 0))


class TestCollectiveEngine:
    @given(
        n=st.integers(min_value=1, max_value=8),
        size=st.integers(min_value=1, max_value=100),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_allreduce_equals_sum(self, n, size, seed):
        rng = np.random.default_rng(seed)
        contributions = [rng.standard_normal(size) for _ in range(n)]
        engine = CollectiveEngine(chunk_elems=7)
        results, _ = engine.allreduce(contributions)
        expected = sum(contributions)
        for result in results:
            np.testing.assert_allclose(result, expected, atol=1e-9)

    def test_preserves_shape(self):
        rng = np.random.default_rng(0)
        contributions = [rng.standard_normal((3, 4, 4)) for _ in range(4)]
        results, _ = CollectiveEngine().allreduce(contributions)
        assert all(r.shape == (3, 4, 4) for r in results)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            CollectiveEngine().allreduce([np.zeros(3), np.zeros(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CollectiveEngine().allreduce([])

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            CollectiveEngine(chunk_elems=0)

    def test_chunk_hops_scale_with_ring(self):
        rng = np.random.default_rng(1)
        small = CollectiveEngine().allreduce(
            [rng.standard_normal(64) for _ in range(2)]
        )[1]
        large = CollectiveEngine().allreduce(
            [rng.standard_normal(64) for _ in range(8)]
        )[1]
        assert large > small
