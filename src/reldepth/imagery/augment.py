"""Training-time augmentation: random horizontal flips and spatial scaling.

Scaling an image by s changes apparent size exactly like halving the camera
distance, so metric depth values are divided by s alongside the resize. Depth
maps are resampled with nearest-neighbor lookups to keep values and validity
masks exact; images are resampled bilinearly.
"""

import numpy as np

from .types import DepthMap, Image


def resize_image(image: Image, height, width) -> Image:
    """Bilinear resize to (height, width)."""
    out = _bilinear(image.data, height, width)
    return Image(np.clip(out, 0.0, 1.0))


def resize_array_bilinear(arr, height, width):
    """Bilinear resize of a bare (H, W) float array."""
    return _bilinear(np.asarray(arr, dtype=np.float64)[:, :, None], height, width)[:, :, 0]


def _bilinear(data, height, width):
    h, w = data.shape[:2]
    ys = (np.arange(height) + 0.5) * (h / height) - 0.5
    xs = (np.arange(width) + 0.5) * (w / width) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    top = data[y0][:, x0] * (1 - wx) + data[y0][:, x1] * wx
    bot = data[y1][:, x0] * (1 - wx) + data[y1][:, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(data.dtype)


def resize_depth(dmap: DepthMap, height, width, value_scale=1.0) -> DepthMap:
    """Nearest-neighbor resize; values multiplied by value_scale."""
    h, w = dmap.values.shape
    ys = np.clip(((np.arange(height) + 0.5) * (h / height)).astype(np.int64), 0, h - 1)
    xs = np.clip(((np.arange(width) + 0.5) * (w / width)).astype(np.int64), 0, w - 1)
    values = dmap.values[ys][:, xs] * np.float32(value_scale)
    mask = dmap.mask[ys][:, xs]
    return DepthMap(values, mask, kind=dmap.kind)


def flip_image(image: Image) -> Image:
    return Image(image.data[:, ::-1].copy())


def flip_depth(dmap: DepthMap) -> DepthMap:
    return DepthMap(dmap.values[:, ::-1].copy(), dmap.mask[:, ::-1].copy(), kind=dmap.kind)


def scaled_size(height, width, s):
    """The (height, width) that augment resizes to for scale factor s."""
    return max(1, int(round(height * s))), max(1, int(round(width * s)))


def draw_augment(image: Image, depth: DepthMap, scale_range=(1.0, 1.0), flip_prob=0.5,
                 *, rng):
    """augment's checks and random draws without its resampling: returns the
    scale factor and whether to mirror, drawn from rng as augment draws them."""
    lo, hi = scale_range
    if not 0.0 < lo <= hi:
        raise ValueError(f"invalid scale range ({lo}, {hi})")
    if image.data.shape[:2] != depth.values.shape:
        raise ValueError("image and depth must be aligned")
    s = lo if lo == hi else float(rng.uniform(lo, hi))
    return s, bool(flip_prob > 0.0 and rng.random() < flip_prob)


def augment(image: Image, depth: DepthMap, scale_range=(1.0, 1.0), flip_prob=0.5,
            *, rng):
    """Randomly scale and mirror an (image, depth) pair.

    A draw s from scale_range resizes both rasters by s and divides metric
    depth values by s. With scale_range (1, 1) and flip_prob 0 the pair is
    returned unchanged. Randomness comes only from the supplied generator.
    """
    s, flip = draw_augment(image, depth, scale_range, flip_prob, rng=rng)
    if s != 1.0:
        new_h, new_w = scaled_size(image.height, image.width, s)
        image = resize_image(image, new_h, new_w)
        # depth shrinks as the scene looms closer; disparity grows with it
        value_scale = 1.0 / s if depth.kind == "depth" else s
        depth = resize_depth(depth, new_h, new_w, value_scale=value_scale)
    if flip:
        image = flip_image(image)
        depth = flip_depth(depth)
    return image, depth
