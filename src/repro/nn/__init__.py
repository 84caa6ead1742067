"""Trainable neural-network substrate (numpy-based)."""

from .data import (
    train_val_datasets,
    Dataset,
    cifar_like,
    imagenet_like,
    natural_feature_maps,
    synthetic_classification,
)
from .layers import (
    Conv2D,
    Dense,
    GlobalAvgPool,
    Layer,
    MaxPool2x2,
    ReLU,
    WinogradConv2D,
)
from .losses import accuracy, softmax_cross_entropy
from .models import fractalnet_small, small_cnn
from .network import FractalJoin2, Sequential
from .optim import SGD
from .training import TrainingCurve, evaluate, train

__all__ = [
    "train_val_datasets",
    "Dataset",
    "cifar_like",
    "imagenet_like",
    "natural_feature_maps",
    "synthetic_classification",
    "Conv2D",
    "Dense",
    "GlobalAvgPool",
    "Layer",
    "MaxPool2x2",
    "ReLU",
    "WinogradConv2D",
    "accuracy",
    "softmax_cross_entropy",
    "fractalnet_small",
    "small_cnn",
    "FractalJoin2",
    "Sequential",
    "SGD",
    "TrainingCurve",
    "evaluate",
    "train",
]
