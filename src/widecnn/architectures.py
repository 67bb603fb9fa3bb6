"""Reference architectures used by the experiments.

``mnist_conv_pool_network`` is the classic 28x28 digit architecture with
two conv/pool stages and two dense layers; with 100 first-layer filters
its widths are (784, 67600, 16900, 2880, 720, 100, 10), so the first
hidden layer is wider than a 60000-sample training set. The desk-scale
sweep template keeps the "wide first conv layer, pyramidal dense tail"
structure but at sizes where exact rank and training experiments finish
in seconds. Every hidden layer of both is sigmoid, and every convolution
of the 1D builders has stride 1.
"""

from __future__ import annotations

from .activations import Activation, Sigmoid
from .layout import (
    conv1d_layout,
    conv2d_layout,
    conv2d_multichannel_layout,
    pool2d_multichannel_layout,
)
from .network import Conv, FullyConnected, MaxPool, NetworkSpec, Output


def mnist_conv_pool_network(
    first_filters: int = 100,
    second_filters: int = 80,
    dense_width: int = 100,
) -> NetworkSpec:
    """28x28 single-channel net with 10 classes: conv 3x3/s1 ->
    pool 2x2/s2 -> conv 3x3/s2 -> pool 2x2/s2 -> dense -> output.

    The first conv layer has 26*26 = 676 patch positions, so its width is
    676 * first_filters regardless of the rest of the stack.
    """
    t1 = first_filters
    act = Sigmoid()
    return NetworkSpec(
        input_width=28 * 28,
        layers=(
            Conv(conv2d_layout(28, 28, 3, 3, 1, 1), t1, act),
            MaxPool(pool2d_multichannel_layout(26, 26, t1, 2, 2, 2, 2)),
            Conv(
                conv2d_multichannel_layout(13, 13, t1, 3, 3, 2, 2),
                second_filters,
                act,
            ),
            MaxPool(pool2d_multichannel_layout(6, 6, second_filters, 2, 2, 2, 2)),
            FullyConnected(dense_width, act),
            Output(10),
        ),
    )


def desk_sweep_network(input_width: int, first_filters: int, classes: int) -> NetworkSpec:
    """Pooling-free desk-scale analog of the sweep architecture:
    1D conv with 9 taps -> dense 48 -> dense 24 -> output, pyramidal after
    layer 1.

    Trainable end to end (no pooling), with the first-layer width
    ``first_filters * number_of_windows`` swept by the caller.
    """
    act = Sigmoid()
    return NetworkSpec(
        input_width=input_width,
        layers=(
            Conv(conv1d_layout(input_width, 9, 1), first_filters, act),
            FullyConnected(48, act),
            FullyConnected(24, act),
            Output(classes),
        ),
    )


def single_conv_network(
    input_width: int,
    kernel: int,
    filters: int,
    activation: Activation = Sigmoid(),
) -> NetworkSpec:
    """One convolutional layer; handy for feature-level experiments."""
    return NetworkSpec(
        input_width=input_width,
        layers=(Conv(conv1d_layout(input_width, kernel, 1), filters, activation),),
    )
