"""Loop compositor for layered random-dot stereograms, kept as the reference
for reldepth.imagery.synth.generate_stereogram: every layer is a boolean
coverage map, its texture is built out of place, and each view, the ground
truth and the validity mask are written one layer at a time by boolean
scatters. It draws from the generator in the same order as the library.
"""

import numpy as np

from reldepth.imagery import DISPARITY, DepthMap, Image
from reldepth.imagery.synth import SHADE_BASE, SHADE_GAIN, TEXTURE_JITTER


def layer_regions(spec, rng):
    """Boolean coverage map per layer; layer 0 covers the full frame."""
    regions = [np.ones((spec.height, spec.width), dtype=bool)]
    for _ in spec.layer_disparities[1:]:
        h = int(rng.integers(max(2, spec.height // 4), max(3, spec.height // 2) + 1))
        w = int(rng.integers(max(2, spec.width // 4), max(3, spec.width // 2) + 1))
        top = int(rng.integers(0, spec.height - h + 1))
        left = int(rng.integers(0, spec.width - w + 1))
        region = np.zeros((spec.height, spec.width), dtype=bool)
        region[top:top + h, left:left + w] = True
        regions.append(region)
    return regions


def layer_texture(spec, disparity, rng):
    """Random-dot RGB texture on an extended canvas (width + disparity)."""
    h, w = spec.height, spec.width + disparity
    shade = SHADE_BASE + SHADE_GAIN * disparity / spec.d_max
    dots = rng.random((h, w)) < spec.texture_density
    noise = rng.random((h, w, 3)) * 2.0 - 1.0
    tex = np.clip(shade + TEXTURE_JITTER * noise, 0.0, 1.0)
    tex *= dots[:, :, None]
    return tex.astype(np.float32)


def generate_stereogram(spec):
    """(left, right, gt), as reldepth.imagery.generate_stereogram returns them."""
    rng = np.random.default_rng(spec.seed)
    regions = layer_regions(spec, rng)
    textures = [layer_texture(spec, d, rng) for d in spec.layer_disparities]

    n_layers = len(regions)
    # topmost covering layer per pixel, in both views
    label_left = np.zeros((spec.height, spec.width), dtype=np.int64)
    label_right = np.zeros((spec.height, spec.width), dtype=np.int64)
    cols = np.arange(spec.width)
    for k in range(n_layers):
        d = spec.layer_disparities[k]
        label_left[regions[k]] = k
        src = cols + d  # right-view column x shows layer texture column x + d
        covered = np.zeros((spec.height, spec.width), dtype=bool)
        inside = src < spec.width
        covered[:, inside] = regions[k][:, src[inside]]
        label_right[covered] = k

    left = np.zeros((spec.height, spec.width, 3), dtype=np.float32)
    right = np.zeros((spec.height, spec.width, 3), dtype=np.float32)
    gt = np.zeros((spec.height, spec.width), dtype=np.float32)
    valid = np.zeros((spec.height, spec.width), dtype=bool)
    for k in range(n_layers):
        d = spec.layer_disparities[k]
        sel = label_left == k
        left[sel] = textures[k][:, :spec.width][sel]
        gt[sel] = d
        sel_r = label_right == k
        right[sel_r] = textures[k][:, d:d + spec.width][sel_r]
        # valid: the matching right pixel exists and shows the same layer
        match_col = cols - d
        in_frame = np.zeros((spec.height, spec.width), dtype=bool)
        ok = match_col >= 0
        in_frame[:, ok] = label_right[:, match_col[ok]] == k
        valid |= sel & in_frame
    return Image(left), Image(right), DepthMap(gt, valid, kind=DISPARITY)
