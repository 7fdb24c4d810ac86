"""The bilateral background of reldepth.stereo.bilsub as one expression per
offset, kept as the reference for the in-place range weights of
reldepth.stereo._bilateral.
"""

import itertools

import numpy as np

from reldepth.stereo import _overlap


def bilateral(data, spatial_sigma, range_sigma, radius):
    h, w = data.shape[:2]
    acc = np.zeros_like(data)
    norm = np.zeros_like(data)
    inv2_ss = 1.0 / (2.0 * spatial_sigma ** 2)
    inv2_sr = 1.0 / (2.0 * range_sigma ** 2)
    for dy, dx in itertools.product(range(-radius, radius + 1), repeat=2):
        sw = np.exp(-(dy * dy + dx * dx) * inv2_ss)
        overlap = _overlap(h, w, dy, dx)
        if overlap is None:
            continue
        here, there = overlap
        shifted = data[there]
        wgt = sw * np.exp(-((shifted - data[here]) ** 2) * inv2_sr)
        acc[here] += wgt * shifted
        norm[here] += wgt
    return acc / norm
