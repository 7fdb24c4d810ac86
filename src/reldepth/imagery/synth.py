"""Layered random-dot stereo scene generator.

Each scene is a stack of fronto-parallel planes: a full-frame background plus
random foreground rectangles, every layer carrying one integer disparity.
Layer textures are random color dots whose brightness increases with the
layer's disparity, so closer surfaces look brighter. That shading is the
monocular cue that makes the scenes learnable from a single view; stereo
geometry is untouched by it.

The left view is the composite of the layer textures; the right view is the
same composite with each layer shifted left by its disparity. Ground truth is
the left-view disparity with half-occluded and out-of-frame pixels masked
invalid, which guarantees left(p) == right(p - d) channel-wise at every valid
pixel.
"""

import numpy as np

from .types import DISPARITY, DepthMap, Image, SynthSceneSpec

# dot brightness = BASE + GAIN * d / d_max, then +-TEXTURE_JITTER texture noise
SHADE_BASE = 0.30
SHADE_GAIN = 0.65
TEXTURE_JITTER = 0.25


def _layer_regions(spec, rng):
    """(top, left, height, width) per layer; layer 0 covers the full frame."""
    regions = [(0, 0, spec.height, spec.width)]
    for _ in spec.layer_disparities[1:]:
        h = int(rng.integers(max(2, spec.height // 4), max(3, spec.height // 2) + 1))
        w = int(rng.integers(max(2, spec.width // 4), max(3, spec.width // 2) + 1))
        top = int(rng.integers(0, spec.height - h + 1))
        left = int(rng.integers(0, spec.width - w + 1))
        regions.append((top, left, h, w))
    return regions


def _layer_texture(spec, disparity, rng):
    """Random-dot RGB texture on an extended canvas (width + disparity), in
    float64; the noise array is worked in place."""
    h, w = spec.height, spec.width + disparity
    shade = SHADE_BASE + SHADE_GAIN * disparity / spec.d_max
    dots = rng.random((h, w)) < spec.texture_density
    tex = rng.random((h, w, 3))
    tex *= 2.0
    tex -= 1.0
    tex *= TEXTURE_JITTER
    tex += shade
    np.clip(tex, 0.0, 1.0, out=tex)
    tex *= dots[:, :, None]
    return tex


def generate_stereogram(spec: SynthSceneSpec):
    """Render one scene.

    Returns (left, right, gt) where gt is a disparity-kind DepthMap aligned
    with the left image. The same spec (including seed) always produces a
    bit-identical triple.
    """
    rng = np.random.default_rng(spec.seed)
    regions = _layer_regions(spec, rng)
    disparities = np.array(spec.layer_disparities)
    h, w = spec.height, spec.width
    canvas = np.zeros((len(regions), h, w + disparities.max(), 3), dtype=np.float32)
    for k, d in enumerate(spec.layer_disparities):
        canvas[k, :, :w + d] = _layer_texture(spec, d, rng)

    # Topmost covering layer per pixel, in both views. Layer k occupies its
    # rectangle in the left view and the rectangle shifted left by d_k in the
    # right.
    label_left = np.zeros((h, w), dtype=np.intp)
    label_right = np.zeros((h, w), dtype=np.intp)
    for k, ((top, x0, rh, rw), d) in enumerate(zip(regions, spec.layer_disparities)):
        label_left[top:top + rh, x0:x0 + rw] = k
        label_right[top:top + rh, max(0, x0 - d):max(0, x0 + rw - d)] = k

    # Each view pixel is selected from its layer's texture: canvas pixel
    # (k, y, x) is row (k * h + y) * wc + x of pixels, and the right view's
    # column x shows texture column x + d_k.
    rows, cols = np.arange(h)[:, None], np.arange(w)
    wc = canvas.shape[2]
    pixels = canvas.reshape(-1, 3)
    left = pixels.take((label_left * h + rows) * wc + cols, axis=0)
    right = pixels.take((label_right * h + rows) * wc + cols + disparities[label_right], axis=0)
    gt = disparities[label_left]
    # valid: the matching right pixel exists and shows the same layer
    match_col = cols - gt
    valid = match_col >= 0
    valid &= label_right[rows, np.maximum(match_col, 0)] == label_left

    return (
        Image(left),
        Image(right),
        DepthMap(gt.astype(np.float32), valid, kind=DISPARITY),
    )
