"""The miniature residual network and its prediction helpers.

Topology: a 3x3 stem convolution, one 2x2 max pool, three residual stages
(strides 1/2/2, so the output grid is 1/8 of the input), two 1x1
pre-activation convolutions, and a linear 1x1 head whose channel count is 1
for the ranking and regression heads or the bin count for classification.

DepthNet holds this topology once, as the ordered list ``layers`` of
(name, layer) pairs: ``stem``, ``pool``, ``stage<s>.block<b>``, then
``head<h>.norm``/``.relu``/``.conv`` for each hidden head layer, and
``final.norm``, ``final.relu``, ``head``. Forward runs the list front to
back and backward back to front. Parameter and norm names join the list's
names with each residual block's own layer names
(``stage1.block0.conv1.weight``), and the head swap replaces the last three
entries.

Every layer takes and returns (N, C, H, W)-shaped arrays whose memory is
channel-major, (C, N, H, W) (see layers.py): forward accepts a batch in any
memory order, and its output and backward's input gradient are (N, C, H, W)
views of channel-major buffers.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..binning import BinningScheme, bin_to_depth
from ..imagery.augment import resize_array_bilinear
from ..imagery.types import DEPTH, DepthMap, Image
from .blocks import ResidualBlock
from .layers import ChannelNorm, Conv2d, MaxPool2, ReLU

RANKING = "ranking"
CLASSIFICATION = "classification"
REGRESSION = "regression"
HEAD_MODES = (RANKING, CLASSIFICATION, REGRESSION)


@dataclass
class NetConfig:
    in_channels: int = 3
    stage_widths: tuple[int, ...] = (16, 32, 64)
    stage_blocks: tuple[int, ...] = (2, 2, 2)
    stage_strides: tuple[int, ...] = (1, 2, 2)
    head_widths: tuple[int, ...] = (64, 32)
    head_mode: str = RANKING
    head_channels: int = 1
    seed: int = 0

    def __post_init__(self):
        self.stage_widths = tuple(int(w) for w in self.stage_widths)
        self.stage_blocks = tuple(int(b) for b in self.stage_blocks)
        self.stage_strides = tuple(int(s) for s in self.stage_strides)
        self.head_widths = tuple(int(w) for w in self.head_widths)
        if not (len(self.stage_widths) == len(self.stage_blocks) == len(self.stage_strides)):
            raise ValueError("stage widths, blocks and strides must align")
        if self.head_mode not in HEAD_MODES:
            raise ValueError(f"unknown head mode {self.head_mode!r}")
        if self.head_mode == CLASSIFICATION:
            if self.head_channels < 2:
                raise ValueError("classification heads need >= 2 channels")
        elif self.head_channels != 1:
            raise ValueError(f"{self.head_mode} heads have exactly 1 channel")

    @property
    def total_stride(self):
        s = 2  # max pool
        for st in self.stage_strides:
            s *= st
        return s


def _head_layers(in_channels, head_channels, rng):
    """The last three entries of DepthNet.layers: the norm feeding the head,
    its ReLU and the linear 1x1 head itself."""
    return [("final.norm", ChannelNorm(in_channels)), ("final.relu", ReLU()),
            ("head", Conv2d(in_channels, head_channels, 1, pad=0, rng=rng))]


class DepthNet:
    def __init__(self, config: NetConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        prev = config.stage_widths[0]
        layers = [("stem", Conv2d(config.in_channels, prev, 3, stride=1, rng=rng,
                                  input_grad=False)),
                  ("pool", MaxPool2())]
        for si, (width, blocks, stride) in enumerate(zip(
                config.stage_widths, config.stage_blocks, config.stage_strides)):
            for b in range(blocks):
                layers.append((f"stage{si}.block{b}",
                               ResidualBlock(prev, width, stride if b == 0 else 1, rng)))
                prev = width
        for hi, width in enumerate(config.head_widths):
            layers += [(f"head{hi}.norm", ChannelNorm(prev)), (f"head{hi}.relu", ReLU()),
                       (f"head{hi}.conv", Conv2d(prev, width, 1, pad=0, rng=rng))]
            prev = width
        self.layers = layers + _head_layers(prev, config.head_channels, rng)

    @property
    def head(self):
        return self.layers[-1][1]

    @property
    def final_norm(self):
        return self.layers[-3][1]

    # ---- parameter plumbing -------------------------------------------------

    def _leaves(self):
        """(name, layer) for every layer, residual blocks opened up."""
        for name, layer in self.layers:
            if isinstance(layer, ResidualBlock):
                yield from ((f"{name}.{n}", leaf) for n, leaf in layer.named_layers())
            else:
                yield name, layer

    def named_params(self):
        return [(f"{name}.{n}", t) for name, layer in self._leaves() for n, t in layer.params()]

    def named_norms(self):
        return [(name, layer) for name, layer in self._leaves()
                if isinstance(layer, ChannelNorm)]

    def zero_grad(self):
        for _, t in self.named_params():
            t.zero_grad()

    # ---- forward / backward -------------------------------------------------

    def forward(self, x):
        """(N, C, H, W) float64 -> (N, head_channels, H/stride, W/stride)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1] != self.config.in_channels:
            raise ValueError(f"expected (N, {self.config.in_channels}, H, W), got {x.shape}")
        stride = self.config.total_stride
        if x.shape[2] % stride or x.shape[3] % stride:
            raise ValueError(
                f"input {x.shape[2]}x{x.shape[3]} not divisible by total stride {stride}"
            )
        for _, layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dout):
        """Add each parameter's gradient. Nothing needs the image's
        gradient, so the stem skips it and a read-only zero array of the
        input's shape comes back (see Conv2d)."""
        for _, layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    # ---- head surgery -------------------------------------------------------

    def re_head(self, head_mode, head_channels, seed=None):
        """Swap the final convolution for a freshly initialized one.

        The trunk and the 1x1 hidden convolutions are kept; only the last
        layer is re-drawn, with the same init distribution as any fresh
        layer. The normalization feeding the new head is recalibrated on the
        next batch: trunk activations drift during training, and a fresh
        layer expects freshly standardized inputs.
        """
        if seed is None:
            seed = self.config.seed + 1
        self.config = replace(self.config, head_mode=head_mode,
                              head_channels=head_channels)
        self.layers[-3:] = _head_layers(self.head.in_channels, head_channels,
                                        np.random.default_rng(seed))


def check_batch(images):
    """Raise ValueError unless images is a non-empty list of equally sized Images."""
    if not images:
        raise ValueError("empty image batch")
    shape = images[0].data.shape
    for img in images:
        if img.data.shape != shape:
            raise ValueError("images in a batch must share one shape")


def stack_images(images):
    """List of equally sized Images -> (N, C, H, W) float64 batch."""
    check_batch(images)
    return np.stack([img.data.transpose(2, 0, 1) for img in images]).astype(np.float64)


def predict_scores(net: DepthNet, image: Image):
    """Single-channel head output for one image, as an (h, w) array."""
    if net.config.head_channels != 1:
        raise ValueError("predict_scores needs a 1-channel head")
    out = net.forward(stack_images([image]))
    return out[0, 0]


def predict_depth(net: DepthNet, image: Image, scheme: BinningScheme = None) -> DepthMap:
    """Decode a metric depth map at input resolution.

    Classification heads take the per-pixel argmax label (ties to the
    smallest label) and decode it to the bin's log-space center; regression
    heads exponentiate their log-depth scores. The decoded low-resolution
    depth is upsampled bilinearly.
    """
    mode = net.config.head_mode
    if mode == CLASSIFICATION:
        if scheme is None:
            raise ValueError("classification decoding needs a binning scheme")
        if scheme.bins != net.config.head_channels:
            raise ValueError(
                f"scheme has {scheme.bins} bins, head has {net.config.head_channels}"
            )
        logits = net.forward(stack_images([image]))[0]  # (B, h, w)
        labels = logits.argmax(axis=0) + 1
        coarse = bin_to_depth(labels, scheme)
    elif mode == REGRESSION:
        coarse = np.exp(predict_scores(net, image))
    else:
        raise ValueError("ranking heads produce relative scores, not metric depth")
    full = resize_array_bilinear(coarse, image.height, image.width)
    return DepthMap(full.astype(np.float32), None, kind=DEPTH)


def predict_relative(net: DepthNet, image: Image) -> DepthMap:
    """Depth-ordered map from a ranking head (smaller value = closer).

    Ranking scores grow toward the camera, so they are reflected and shifted
    to a positive range; any strictly decreasing transform would score the
    same under ordinal metrics.
    """
    if net.config.head_mode != RANKING:
        raise ValueError("predict_relative needs a ranking head")
    scores = predict_scores(net, image)
    full = resize_array_bilinear(scores, image.height, image.width)
    depth_like = full.max() - full + 1.0
    return DepthMap(depth_like.astype(np.float32), None, kind=DEPTH)
