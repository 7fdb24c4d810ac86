"""Core raster types shared by the whole pipeline.

An Image is an (H, W, C) float32 array of intensities in [0, 1] with 1 or 3
channels. A DepthMap is an (H, W) float32 value grid plus a boolean validity
mask; it stores either metric depth in meters (kind="depth", valid values
strictly positive) or stereo disparity in pixels (kind="disparity", valid
values >= 0). Invalid entries are normalized to 0.0 so that equality checks
and serialization are unambiguous.
"""

from dataclasses import dataclass

import numpy as np

DEPTH = "depth"
DISPARITY = "disparity"


@dataclass
class Image:
    data: np.ndarray  # (H, W, C) float32, values in [0, 1]

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(f"image must be (H, W, 1|3), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image must have positive dimensions")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        self.data = arr

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return self.data.shape[2]


@dataclass
class DepthMap:
    values: np.ndarray  # (H, W) float32
    mask: np.ndarray | None = None  # (H, W) bool, True = valid
    kind: str = DEPTH

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float32)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError(f"depth map must be 2-D, got shape {vals.shape}")
        if self.mask is None:
            mask = np.ones(vals.shape, dtype=bool)
        else:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != vals.shape:
                raise ValueError("mask shape must match values shape")
        if self.kind not in (DEPTH, DISPARITY):
            raise ValueError(f"unknown depth map kind {self.kind!r}")
        valid = vals[mask]
        if valid.size and not np.all(np.isfinite(valid)):
            raise ValueError("valid depth values must be finite")
        if self.kind == DEPTH and valid.size and valid.min() <= 0.0:
            raise ValueError("valid metric depths must be strictly positive")
        if self.kind == DISPARITY and valid.size and valid.min() < 0.0:
            raise ValueError("valid disparities must be non-negative")
        vals = vals.copy()
        vals[~mask] = 0.0
        self.values = vals
        self.mask = mask

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]


def disparity_to_depth(dmap: DepthMap, focal_baseline: float) -> DepthMap:
    """Convert a disparity map to metric depth via depth = fb / disparity.

    Zero-disparity pixels have no finite depth and become invalid.
    """
    if dmap.kind != DISPARITY:
        raise ValueError("expected a disparity-kind map")
    if focal_baseline <= 0:
        raise ValueError("focal-baseline product must be positive")
    mask = dmap.mask & (dmap.values > 0)
    values = np.zeros_like(dmap.values)
    values[mask] = focal_baseline / dmap.values[mask]
    return DepthMap(values, mask, kind=DEPTH)


@dataclass
class SynthSceneSpec:
    """Recipe for one layered random-dot stereo scene.

    ``layer_disparities[0]`` is the background plane covering the full frame;
    subsequent entries are foreground rectangles composited on top in list
    order. Every disparity must be a non-negative integer strictly below
    ``d_max``, the stereo search range the scene is generated for. Dots cover
    ``texture_density`` of each layer; their brightness grows with the layer's
    disparity so scenes carry a monocular cue a single-image model can learn.
    """

    width: int
    height: int
    layer_disparities: tuple = (0,)
    texture_density: float = 1.0
    d_max: int = 16
    seed: int = 0

    def __post_init__(self):
        self.layer_disparities = tuple(int(d) for d in self.layer_disparities)
        if self.width < 1 or self.height < 1:
            raise ValueError("scene dimensions must be positive")
        if len(self.layer_disparities) < 1:
            raise ValueError("at least one layer is required")
        if not 0.0 < self.texture_density <= 1.0:
            raise ValueError("texture density must be in (0, 1]")
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        for d in self.layer_disparities:
            if d < 0 or d >= self.d_max:
                raise ValueError(
                    f"layer disparity {d} outside [0, {self.d_max})"
                )
