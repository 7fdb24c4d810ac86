"""Network building blocks with explicit forward/backward passes.

Everything runs in float64. Every layer takes and returns (N, C, H, W)
arrays; inside, Conv2d works on one zero-padded NHWC copy of its input and
hands back an (N, C, H, W) view of its NHWC result. Layers cache whatever
their backward pass needs; backward consumes the upstream gradient, adds
parameter gradients into each Tensor's grad slot, and returns the input
gradient.
"""

import numpy as np


class Tensor:
    """A parameter array paired with a gradient slot of the same shape."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad[...] = 0.0


def he_normal(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Conv2d:
    """k x k convolution as k*k GEMMs on a zero-padded NHWC copy of the input.

    The padded input is split into its stride x stride phases (one phase at
    stride 1), each flattened to (N * hq * wq, C) rows. Tap (i, j) of the
    kernel then reads phase (i % s, j % s) at the row offset
    (i // s) * wq + j // s, a contiguous slice, so every tap is one copy-free
    GEMM. Outputs are computed on the whole (hq, wq) phase grid, and the
    valid (out_h, out_w) window is cut out afterwards; the rows outside it
    straddle the padding or the next image and are discarded.
    """

    def __init__(self, in_channels, out_channels, ksize, stride=1, pad=None, *, rng):
        if pad is None:
            pad = ksize // 2
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.ksize = ksize
        self.stride = stride
        self.pad = pad
        fan_in = in_channels * ksize * ksize
        self.weight = Tensor(he_normal(rng, (out_channels, in_channels, ksize, ksize), fan_in))
        self.bias = Tensor(np.zeros(out_channels))
        self._cache = None

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def _taps(self, n, hq, wq):
        """The number of output grid rows every tap adds to, and each tap's
        (i, j, phase, input rows): phases[phase][rows] lines up with them."""
        k, s = self.ksize, self.stride
        count = n * hq * wq - ((k - 1) // s) * (wq + 1)
        taps = []
        for i in range(k):
            for j in range(k):
                off = (i // s) * wq + j // s
                taps.append((i, j, (i % s, j % s), slice(off, off + count)))
        return count, taps

    def _tap_weights(self):
        """The kernel as k*k contiguous (Cin, Cout) matrices."""
        return np.ascontiguousarray(self.weight.values.transpose(2, 3, 1, 0))

    def forward(self, x):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"conv expects {self.in_channels} input channels, got {c}")
        k, s, p = self.ksize, self.stride, self.pad
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
        padded = np.zeros((n, hq * s, wq * s, c))
        padded[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
        m = min(k, s)  # a 1x1 kernel at stride 2 reads only phase (0, 0)
        phases = np.ascontiguousarray(
            padded.reshape(n, hq, s, wq, s, c)[:, :, :m, :, :m].transpose(2, 4, 0, 1, 3, 5)
        ).reshape(m, m, n * hq * wq, c)
        weights = self._tap_weights()
        grid = np.zeros((n * hq * wq, self.out_channels))
        count, taps = self._taps(n, hq, wq)
        for i, j, phase, rows in taps:
            grid[:count] += phases[phase][rows] @ weights[i, j]
        self._cache = (phases, x.shape, hq, wq, out_h, out_w)
        out = grid.reshape(n, hq, wq, -1)[:, :out_h, :out_w]
        out += self.bias.values
        return out.transpose(0, 3, 1, 2)

    def backward(self, dout):
        phases, (n, c, h, w), hq, wq, out_h, out_w = self._cache
        s, p = self.stride, self.pad
        dgrid = np.zeros((n, hq, wq, self.out_channels))
        dgrid[:, :out_h, :out_w] = dout.transpose(0, 2, 3, 1)
        count, taps = self._taps(n, hq, wq)
        dgrid = dgrid.reshape(n * hq * wq, -1)[:count]
        weights = self._tap_weights()
        dweights = np.empty_like(weights)
        dphases = np.zeros((s, s) + phases.shape[2:])
        for i, j, phase, rows in taps:
            dweights[i, j] = phases[phase][rows].T @ dgrid
            dphases[phase][rows] += dgrid @ weights[i, j].T
        self.weight.grad += dweights.transpose(3, 2, 0, 1)
        self.bias.grad += dout.sum(axis=(0, 2, 3))
        dpadded = dphases.reshape(s, s, n, hq, wq, c).transpose(2, 3, 0, 4, 1, 5)
        dpadded = dpadded.reshape(n, hq * s, wq * s, c)
        return dpadded[:, p:p + h, p:p + w].transpose(0, 3, 1, 2)


class ReLU:
    def __init__(self):
        self._mask = None

    def params(self):
        return []

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


class MaxPool2:
    """2x2 max pooling with stride 2; ties route gradient to the first max."""

    def __init__(self):
        self._cache = None

    def params(self):
        return []

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        windows = x.reshape(n, c, h // 2, 2, w // 2, 2)
        windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
        arg = windows.argmax(axis=-1)
        self._cache = (x.shape, arg)
        return np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    def backward(self, dout):
        x_shape, arg = self._cache
        n, c, h, w = x_shape
        dwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=dout.dtype)
        np.put_along_axis(dwin, arg[..., None], dout[..., None], axis=-1)
        dwin = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return dwin.reshape(x_shape)


class ChannelNorm:
    """Per-channel affine normalization against fixed running statistics.

    Statistics are captured lazily from the first batch the layer sees;
    afterwards the layer is a plain affine map, so train and eval behave
    identically and gradients are exact. The scale is floored so a channel
    that happens to be near-constant in the calibration batch cannot turn
    the layer into a huge amplifier for later batches.
    """

    MIN_SIGMA = 0.05

    def __init__(self, channels):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels))
        self.beta = Tensor(np.zeros(channels))
        self.mu = np.zeros(channels)
        self.sigma = np.ones(channels)
        self.calibrated = False
        self._cache = None

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def calibrate(self, x):
        self.mu = x.mean(axis=(0, 2, 3))
        self.sigma = np.maximum(x.std(axis=(0, 2, 3)), self.MIN_SIGMA)
        self.calibrated = True

    def forward(self, x):
        if x.shape[1] != self.channels:
            raise ValueError(f"norm expects {self.channels} channels, got {x.shape[1]}")
        if not self.calibrated:
            self.calibrate(x)
        xhat = (x - self.mu[None, :, None, None]) / self.sigma[None, :, None, None]
        self._cache = xhat
        return self.gamma.values[None, :, None, None] * xhat + self.beta.values[None, :, None, None]

    def backward(self, dout):
        xhat = self._cache
        self.gamma.grad += (dout * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += dout.sum(axis=(0, 2, 3))
        return dout * (self.gamma.values / self.sigma)[None, :, None, None]
