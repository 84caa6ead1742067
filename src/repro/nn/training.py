"""Training loop helpers for the accuracy experiments (Fig. 14)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .data import Dataset
from .losses import softmax_cross_entropy
from .network import Sequential
from .optim import SGD


@dataclass
class TrainingCurve:
    """Per-epoch loss and validation accuracy."""

    losses: List[float] = field(default_factory=list)
    val_accuracies: List[float] = field(default_factory=list)


def evaluate(network: Sequential, data: Dataset, batch_size: int = 64) -> float:
    """Validation top-1 accuracy."""
    correct = 0
    total = 0
    for start in range(0, len(data), batch_size):
        xb = data.x[start : start + batch_size]
        yb = data.y[start : start + batch_size]
        logits = network.forward(xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
        total += len(yb)
    return correct / max(total, 1)


def train(
    network: Sequential,
    train_data: Dataset,
    val_data: Dataset,
    epochs: int = 5,
    batch_size: int = 32,
    lr: float = 0.05,
    momentum: float = 0.9,
    seed: int = 0,
) -> TrainingCurve:
    """Synchronous-SGD training; returns the per-epoch curve.

    Every epoch runs ``len(train_data) // batch_size`` full batches (a
    partial last batch is dropped), so ``batch_size`` must lie in
    ``[1, len(train_data)]``: outside it an epoch has no step and no loss.
    """
    if not 1 <= batch_size <= len(train_data):
        raise ValueError(
            f"batch_size {batch_size} must be in [1, len(train_data)] = "
            f"[1, {len(train_data)}]: no full batch fits otherwise"
        )
    optimizer = SGD(network, lr=lr, momentum=momentum)
    rng = np.random.default_rng(seed)
    curve = TrainingCurve()
    for _ in range(epochs):
        epoch_losses = []
        for xb, yb in train_data.batches(batch_size, rng):
            optimizer.zero_grads()
            logits = network.forward(xb)
            loss, dlogits = softmax_cross_entropy(logits, yb)
            network.backward(dlogits)
            optimizer.step()
            epoch_losses.append(loss)
        curve.losses.append(float(np.mean(epoch_losses)))
        curve.val_accuracies.append(evaluate(network, val_data, batch_size))
    return curve
