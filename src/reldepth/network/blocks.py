"""Pre-activation residual blocks.

The residual branch is norm -> relu -> conv3x3(stride) -> norm -> relu ->
conv3x3. When input and output agree in channels and resolution the shortcut
is the identity and y = F(x) + x; otherwise a strided 1x1 projection maps x
onto the branch's dimensions.
"""

from .layers import ChannelNorm, Conv2d, ReLU


class ResidualBlock:
    BRANCH = ("norm1", "relu1", "conv1", "norm2", "relu2", "conv2")

    def __init__(self, in_channels, out_channels, stride, rng):
        self.norm1 = ChannelNorm(in_channels)
        self.relu1 = ReLU()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, rng=rng)
        self.norm2 = ChannelNorm(out_channels)
        self.relu2 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, rng=rng)
        if in_channels == out_channels and stride == 1:
            self.projection = None
        else:
            self.projection = Conv2d(in_channels, out_channels, 1, stride=stride,
                                     pad=0, rng=rng)

    def named_layers(self):
        """(name, layer) for the branch in order, then the projection if any."""
        named = [(name, getattr(self, name)) for name in self.BRANCH]
        if self.projection is not None:
            named.append(("projection", self.projection))
        return named

    def forward(self, x):
        f = x
        for name in self.BRANCH:
            f = getattr(self, name).forward(f)
        shortcut = x if self.projection is None else self.projection.forward(x)
        return f + shortcut

    def backward(self, dout):
        dx = dout
        for name in reversed(self.BRANCH):
            dx = getattr(self, name).backward(dx)
        if self.projection is None:
            return dx + dout
        return dx + self.projection.backward(dout)
