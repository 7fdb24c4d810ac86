"""Network building blocks with explicit forward/backward passes.

Everything runs in float64. Every layer takes and returns arrays of shape
(N, C, H, W), and that shape is the contract callers read. The memory under
it is channel-major, (C, N, H, W): Conv2d writes its output, and its input
gradient, into (C, N, H, W) buffers and hands back their (N, C, H, W)
transposed views, and the other layers only index, slice and combine their
inputs element by element, so their results keep the memory order they were
given. Each layer also accepts any other memory order and gives the same
values. Forward keeps in the layer's ``_cache`` what its backward pass
needs. Backward reads the cache and drops it, so a layer holds no
activations once its backward has run; it consumes the upstream gradient,
adds parameter gradients into each Tensor's grad slot, and returns the input
gradient. A forward that no backward follows can drop the cache by setting
``_cache`` to None (see DepthNet.forward).
"""

import numpy as np


class Tensor:
    """A parameter array paired with a gradient slot of the same shape."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    def zero_grad(self):
        self.grad[...] = 0.0


def he_normal(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Conv2d:
    """k x k convolution as one GEMM per image over a channel-major patch matrix.

    The input is copied once into a zero-padded channel-major
    (C, N, hq, wq) buffer per stride phase: phase (a, b) holds the padded
    rows a, a + s, ... and columns b, b + s, ... (one phase at stride 1; a
    1x1 kernel at stride 2 reads only phase (0, 0), which at pad 0 is
    x[:, :, ::2, ::2]). Flattened per image, tap (i, j) of the kernel
    reads phase (i % s, j % s) at the column offset (i // s) * wq + j // s,
    a slice whose C rows are each contiguous. Forward stacks the k*k slices
    of one image into a (k*k*C, pixels) patch matrix, built afresh for each
    image and never cached so that memory holds one image's patches at a
    time, and runs W(Cout, k*k*C) @ patches. Outputs are
    computed on the phase grid, and the valid (out_h, out_w) window is cut
    out afterwards. Backward runs one dW GEMM and one dX GEMM per tap
    against the cached phase buffer over the whole batch; grid columns that
    straddle the padding or the next image carry a zero gradient. A layer
    built with ``input_grad=False`` (the net's stem, whose input is the
    image) skips the dX GEMMs and returns a read-only zero array of the
    input's shape.
    """

    def __init__(self, in_channels, out_channels, ksize, stride=1, pad=None, *, rng,
                 input_grad=True):
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
        self.input_grad = input_grad
        self._cache = None

    def params(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def _taps(self, wq):
        """(tap, phase, column offset) for each tap, tap = i * k + j."""
        k, s = self.ksize, self.stride
        return [(i * k + j, (i % s, j % s), (i // s) * wq + j // s)
                for i in range(k) for j in range(k)]

    def _phase_windows(self, h, w):
        """For each phase, the (phase rows/cols, input rows/cols) slices that
        line up: padded row a + s * r holds input row a + s * r - p."""
        s, p, m = self.stride, self.pad, min(self.ksize, self.stride)

        def axis(a, size):
            first = max(0, -(-(p - a) // s))
            rows = range(a + s * first - p, size, s)
            return slice(first, first + len(rows)), slice(rows.start, size, s)

        return [((a, b), axis(a, h), axis(b, w)) for a in range(m) for b in range(m)]

    def forward(self, x):
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"conv expects {self.in_channels} input channels, got {c}")
        k, s, p = self.ksize, self.stride, self.pad
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
        m = min(k, s)
        phases = np.zeros((m, m, c, n, hq, wq))
        xc = x.transpose(1, 0, 2, 3)
        for phase, (pr, xr), (pc, xcol) in self._phase_windows(h, w):
            phases[phase][:, :, pr, pc] = xc[:, :, xr, xcol]
        images = phases.reshape(m, m, c, n, hq * wq)
        weights = self.weight.values.transpose(0, 2, 3, 1).reshape(self.out_channels, k * k * c)
        span = (out_h - 1) * wq + out_w
        patches = np.empty((k * k, c, span))
        grid = np.empty((self.out_channels, out_h * wq))
        out = np.empty((self.out_channels, n, out_h, out_w))
        taps = self._taps(wq)
        bias = self.bias.values[:, None, None]
        for b in range(n):
            for tap, phase, off in taps:
                patches[tap] = images[phase][:, b, off:off + span]
            np.matmul(weights, patches.reshape(k * k * c, span), out=grid[:, :span])
            np.add(grid.reshape(-1, out_h, wq)[:, :, :out_w], bias, out=out[:, b])
        self._cache = (phases, x.shape, out_h, out_w)
        return out.transpose(1, 0, 2, 3)

    def backward(self, dout):
        (phases, (n, c, h, w), out_h, out_w), self._cache = self._cache, None
        k = self.ksize
        m, _, _, _, hq, wq = phases.shape
        dgrid = np.zeros((self.out_channels, n, hq, wq))
        dgrid[:, :, :out_h, :out_w] = dout.transpose(1, 0, 2, 3)
        self.bias.grad += dgrid.reshape(self.out_channels, -1).sum(axis=1)
        count = n * hq * wq - ((k - 1) // self.stride) * (wq + 1)
        dgrid = dgrid.reshape(self.out_channels, -1)[:, :count]
        flat = phases.reshape(m, m, c, -1)
        weights = self.weight.values.transpose(2, 3, 0, 1).reshape(k * k, self.out_channels, c)
        dweights = np.empty_like(weights)
        taps = self._taps(wq)
        for tap, phase, off in taps:
            np.matmul(dgrid, flat[phase][:, off:off + count].T, out=dweights[tap])
        self.weight.grad += dweights.reshape(k, k, self.out_channels, c).transpose(2, 3, 0, 1)
        if not self.input_grad:
            return np.broadcast_to(np.float64(0.0), (n, c, h, w))
        dflat = np.zeros_like(flat)
        dcols = np.empty((c, count))
        for tap, phase, off in taps:
            np.matmul(weights[tap].T, dgrid, out=dcols)
            dflat[phase][:, off:off + count] += dcols
        dphases = dflat.reshape(phases.shape)
        # free the gradient grid before the input gradient is allocated, which
        # keeps backward's peak memory down
        del dgrid, dcols
        dx = np.zeros((c, n, h, w))
        for phase, (pr, xr), (pc, xcol) in self._phase_windows(h, w):
            dx[:, :, xr, xcol] = dphases[phase][:, :, pr, pc]
        return dx.transpose(1, 0, 2, 3)


class ReLU:
    def __init__(self):
        self._cache = None

    def params(self):
        return []

    def forward(self, x):
        self._cache = x > 0
        return x * self._cache

    def backward(self, dout):
        mask, self._cache = self._cache, None
        return dout * mask


class MaxPool2:
    """2x2 max pooling with stride 2 over the window slots x[:, :, i::2, j::2].

    Slots are visited in (0, 0), (0, 1), (1, 0), (1, 1) order and a later
    slot replaces the running max only when strictly greater, so ties route
    the gradient to the first max. Backward scatters dout into those slots
    of a zeroed array in dout's memory order.
    """

    SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self):
        self._cache = None

    def params(self):
        return []

    def forward(self, x):
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ValueError(f"pooling needs even spatial dims, got {h}x{w}")
        slots = [x[:, :, i::2, j::2] for i, j in self.SLOTS]
        arg = (slots[1] > slots[0]).astype(np.int8)
        out = np.maximum(slots[0], slots[1])
        for k in (2, 3):
            np.putmask(arg, slots[k] > out, k)
            np.maximum(out, slots[k], out=out)
        self._cache = (x.shape, arg)
        return out

    def backward(self, dout):
        (x_shape, arg), self._cache = self._cache, None
        # dout's memory order is the one forward gave its output, x's own
        dx = np.zeros_like(dout, shape=x_shape)
        for k, (i, j) in enumerate(self.SLOTS):
            np.copyto(dx[:, :, i::2, j::2], dout, where=arg == k)
        return dx


class ChannelNorm:
    """Per-channel affine normalization against fixed running statistics.

    Statistics are captured lazily from the first batch the layer sees;
    afterwards the layer is a plain affine map, so train and eval behave
    identically and gradients are exact. The scale is floored so a channel
    that happens to be near-constant in the calibration batch cannot turn
    the layer into a huge amplifier for later batches. Forward applies one
    per-channel scale gamma / sigma and shift beta - mu * gamma / sigma;
    backward recomputes the centered input from the cached x. While gather
    is set, an uncalibrated forward calls gather(x) in place of calibrate(x),
    so a process that holds only some of the batch can calibrate on all of
    it (see training.py).
    """

    MIN_SIGMA = 0.05
    gather = None

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
            (self.gather or self.calibrate)(x)
        scale = self.gamma.values / self.sigma
        shift = self.beta.values - self.mu * scale
        self._cache = x
        out = x * scale[:, None, None]
        out += shift[:, None, None]
        return out

    def backward(self, dout):
        centered = self._cache - self.mu[:, None, None]
        self._cache = None
        centered *= dout
        self.gamma.grad += centered.sum(axis=(0, 2, 3)) / self.sigma
        self.beta.grad += dout.sum(axis=(0, 2, 3))
        return dout * (self.gamma.values / self.sigma)[:, None, None]
