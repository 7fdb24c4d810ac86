"""Log-space depth discretization and the information-gain matrix.

Depth in [d_min, d_max] is split into B bins whose edges are uniform in
log10; labels are 1-based. Decoding returns the geometric mean of a bin's
edges, i.e. its center in log space, so the worst-case quantization error is
half a log-bin width. The information-gain matrix H(p, q) = exp(-a (p-q)^2)
credits predictions that land near the true bin.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class BinningScheme:
    d_min: float
    d_max: float
    bins: int
    edges: np.ndarray  # (bins + 1,) strictly increasing, uniform in log10


def make_bins(d_min, d_max, bins) -> BinningScheme:
    """Uniform log10 partition of [d_min, d_max] into `bins` classes."""
    if not 0.0 < d_min < d_max:
        raise ValueError(f"need 0 < d_min < d_max, got ({d_min}, {d_max})")
    if bins < 2:
        raise ValueError("bin count must be >= 2")
    log_edges = np.linspace(np.log10(d_min), np.log10(d_max), bins + 1)
    edges = np.power(10.0, log_edges)
    edges[0] = d_min
    edges[-1] = d_max
    if not np.all(np.diff(edges) > 0):
        raise ValueError("bin edges collapsed; range too narrow for bin count")
    return BinningScheme(float(d_min), float(d_max), int(bins), edges)


def depth_to_bin(depth, scheme: BinningScheme):
    """1-based label of the bin containing each depth, clamped to [1, B].

    Bins are right-open except the last; depths at or beyond the range ends
    map to the first or last bin. Accepts scalars or arrays.
    """
    arr = np.asarray(depth, dtype=np.float64)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("depths must be finite and strictly positive")
    labels = np.searchsorted(scheme.edges, arr, side="right")
    labels = np.clip(labels, 1, scheme.bins)
    if np.isscalar(depth) or arr.ndim == 0:
        return int(labels)
    return labels.astype(np.int64)


def bin_to_depth(label, scheme: BinningScheme):
    """Center of a bin in log space: the geometric mean of its edges."""
    arr = np.asarray(label, dtype=np.int64)
    if np.any(arr < 1) or np.any(arr > scheme.bins):
        raise ValueError(f"labels must lie in [1, {scheme.bins}]")
    centers = np.sqrt(scheme.edges[arr - 1] * scheme.edges[arr])
    if np.isscalar(label) or arr.ndim == 0:
        return float(centers)
    return centers


@dataclass
class InfoGainMatrix:
    alpha: float
    weights: np.ndarray  # (B, B), H[p, q] = exp(-alpha (p-q)^2)

    @property
    def bins(self):
        return self.weights.shape[0]


def info_gain_matrix(bins, alpha) -> InfoGainMatrix:
    """Symmetric near-miss credit matrix for the classification loss."""
    if bins < 1:
        raise ValueError("bin count must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    idx = np.arange(bins, dtype=np.float64)
    weights = np.exp(-alpha * (idx[:, None] - idx[None, :]) ** 2)
    return InfoGainMatrix(float(alpha), weights)
