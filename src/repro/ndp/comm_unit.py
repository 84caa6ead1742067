"""Functional model of the NDP collective unit (paper Section VI-C).

:class:`CollectiveEngine` runs ring reduce/broadcast with per-message
Reduce blocks.  Messages are chunked; chunks of *different* messages may
arrive in any order (the concurrent-collective optimisation), so each
Reduce block looks up its chunk in the communication buffer and either
accumulates into it or stores it.

This is a *functional* model: it moves and sums real numpy data so
correctness is testable end to end; its timing lives in the network
simulator and the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass
class Chunk:
    """One pipelined-collective chunk: a slice of one message."""

    message_id: str
    index: int
    payload: np.ndarray
    hops_remaining: int


class ReduceBlock:
    """Reduce logic for one in-flight collective message.

    Stores first-arriving chunks in the communication buffer and
    accumulates subsequent arrivals, regardless of inter-message order.
    """

    def __init__(self, message_id: str) -> None:
        self.message_id = message_id
        self.buffer: Dict[int, np.ndarray] = {}
        self.arrivals: Dict[int, int] = {}

    def accept(self, chunk: Chunk) -> np.ndarray:
        """Store or accumulate a chunk; returns the current partial sum."""
        if chunk.message_id != self.message_id:
            raise ValueError(
                f"chunk for {chunk.message_id!r} routed to block {self.message_id!r}"
            )
        existing = self.buffer.get(chunk.index)
        if existing is None:
            self.buffer[chunk.index] = chunk.payload.copy()
        else:
            existing += chunk.payload
        self.arrivals[chunk.index] = self.arrivals.get(chunk.index, 0) + 1
        return self.buffer[chunk.index]


class CollectiveEngine:
    """Ring reduce+broadcast over a list of per-worker arrays.

    ``allreduce`` executes the full pipelined ring algorithm functionally:
    reduce-scatter then all-gather, chunk by chunk, with each worker's
    Reduce block handling arbitrary chunk interleaving.  Returns the
    per-worker results (all equal to the sum) and the total number of
    chunk-hops (for cross-checking traffic accounting).
    """

    def __init__(self, chunk_elems: int = 64) -> None:
        if chunk_elems < 1:
            raise ValueError(f"chunk_elems must be >= 1, got {chunk_elems}")
        self.chunk_elems = chunk_elems

    def allreduce(
        self, contributions: List[np.ndarray], message_id: str = "w"
    ) -> Tuple[List[np.ndarray], int]:
        n = len(contributions)
        if n == 0:
            raise ValueError("allreduce needs at least one contribution")
        shape = contributions[0].shape
        for c in contributions:
            if c.shape != shape:
                raise ValueError("contribution shapes differ")
        if n == 1:
            return [contributions[0].copy()], 0

        flat = [c.reshape(-1).astype(np.float64).copy() for c in contributions]
        size = flat[0].size
        # Slice boundaries: n contiguous slices (ragged last slice ok).
        bounds = [round(i * size / n) for i in range(n + 1)]
        chunk_hops = 0

        # Reduce-scatter: at step s, worker i sends slice (i - s) mod n to
        # worker i+1, which accumulates. Interleave messages by iterating
        # chunks within slices to exercise out-of-order Reduce blocks.
        blocks = [ReduceBlock(message_id) for _ in range(n)]
        for step in range(n - 1):
            transfers = []
            for i in range(n):
                slice_id = (i - step) % n
                lo, hi = bounds[slice_id], bounds[slice_id + 1]
                transfers.append((i, (i + 1) % n, slice_id, flat[i][lo:hi].copy()))
            for src, dst, slice_id, payload in transfers:
                lo = bounds[slice_id]
                for off in range(0, payload.size, self.chunk_elems):
                    part = payload[off : off + self.chunk_elems]
                    chunk = Chunk(message_id, lo + off, part, hops_remaining=0)
                    blocks[dst].accept(chunk)
                    flat[dst][lo + off : lo + off + part.size] += part
                    chunk_hops += 1
        # After n-1 steps worker (slice_id + n - 1) mod n holds the full
        # sum of slice slice_id. All-gather: rotate the reduced slices.
        for step in range(n - 1):
            for i in range(n):
                slice_id = (i + 1 - step) % n
                lo, hi = bounds[slice_id], bounds[slice_id + 1]
                src = i
                dst = (i + 1) % n
                flat[dst][lo:hi] = flat[src][lo:hi]
                chunk_hops += max(
                    1, (hi - lo + self.chunk_elems - 1) // self.chunk_elems
                )
        return [f.reshape(shape) for f in flat], chunk_hops
