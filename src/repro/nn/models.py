"""Model builders for the accuracy-level experiments."""

from __future__ import annotations

import numpy as np

from ..winograd import make_transform
from .layers import (
    Conv2D,
    Dense,
    GlobalAvgPool,
    MaxPool2x2,
    ReLU,
    WinogradConv2D,
)
from .network import FractalJoin2, Sequential


def small_cnn(
    channels: int = 3,
    classes: int = 10,
    width: int = 16,
    use_winograd: bool = True,
    m: int = 2,
    seed: int = 0,
) -> Sequential:
    """A compact two-conv CNN used for gradient checks and as a feature
    extractor for activation-prediction statistics."""
    rng = np.random.default_rng(seed)
    transform = make_transform(m, 3)
    conv = (
        (lambda i, o: WinogradConv2D(i, o, transform, pad=1, rng=rng))
        if use_winograd
        else (lambda i, o: Conv2D(i, o, 3, 1, rng=rng))
    )
    return Sequential(
        [
            conv(channels, width),
            ReLU(),
            MaxPool2x2(),
            conv(width, 2 * width),
            ReLU(),
            GlobalAvgPool(),
            Dense(2 * width, classes, rng=rng),
        ]
    )


def fractalnet_small(
    join_mode: str = "spatial",
    channels: int = 3,
    classes: int = 10,
    width: int = 16,
    seed: int = 0,
) -> Sequential:
    """A small two-column FractalNet for the Fig. 14 join experiment.

    Structure per block: ``join(conv(x), conv(conv(x)))`` followed by ReLU
    (the paper's modification applies ReLU *after* the join, Fig. 14a),
    then pooling.  ``join_mode`` selects the standard spatial join or the
    modified Winograd-domain join.
    """
    rng = np.random.default_rng(seed)
    transform = make_transform(2, 3)

    def wconv(i: int, o: int) -> WinogradConv2D:
        return WinogradConv2D(i, o, transform, pad=1, rng=rng)

    def block(in_ch: int, out_ch: int) -> FractalJoin2:
        deep_prefix = Sequential([wconv(in_ch, out_ch), ReLU()])
        return FractalJoin2(
            shallow=wconv(in_ch, out_ch),
            deep_prefix=deep_prefix,
            deep_last=wconv(out_ch, out_ch),
            join_mode=join_mode,
        )

    return Sequential(
        [
            block(channels, width),
            MaxPool2x2(),
            block(width, 2 * width),
            GlobalAvgPool(),
            Dense(2 * width, classes, rng=rng),
        ]
    )
