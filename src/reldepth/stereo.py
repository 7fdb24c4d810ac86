"""Dense stereo matching: AD cost with bilateral background subtraction,
semi-global path aggregation, winner-takes-all, and the global energy the
whole construction approximates.

The energy of a labeling D is

    E(D) = sum_p [ C(p, D_p) + sum_{q in N8(p)} P1 * [|D_p - D_q| = 1]
                              + sum_{q in N8(p)} P2 * [|D_p - D_q| > 1] ]

where the neighborhood sum runs over ordered pairs, so every unordered pixel
pair contributes its penalty twice. Aggregation sweeps 1-D paths: a path step
covers both orderings of its pixel pair and therefore charges 2*P1 / 2*P2 per
step. Summing the two opposed sweeps of an orientation counts the data term
of the shared pixel twice, so one copy is subtracted per opposed pair. With
that bookkeeping, per-pixel argmin over the aggregated volume of a single
horizontal pair solves the row-restricted energy exactly; multi-orientation
sums remain the usual approximation.
"""

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .imagery.types import DISPARITY, DepthMap, Image

# all eight compass directions as (dy, dx) steps
DIRECTIONS_8 = (
    (0, 1), (0, -1), (1, 0), (-1, 0),
    (1, 1), (-1, -1), (1, -1), (-1, 1),
)
HORIZONTAL_PAIR = ((0, 1), (0, -1))


@dataclass
class CostVolume:
    costs: np.ndarray  # (H, W, D) float64, finite, >= 0

    def __post_init__(self):
        arr = np.asarray(self.costs, dtype=np.float64)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"cost volume must be (H, W, D), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cost volume contains non-finite entries")
        if arr.min() < 0.0:
            raise ValueError("cost volume entries must be non-negative")
        self.costs = arr

    @property
    def d_max(self):
        return self.costs.shape[2]


@dataclass
class SgmParams:
    p1: float
    p2: float
    d_max: int
    directions: tuple[tuple[int, int], ...] = DIRECTIONS_8
    border_cost: float | None = None  # None: channel count, set at cost time

    def __post_init__(self):
        self.directions = tuple((int(dy), int(dx)) for dy, dx in self.directions)
        if not 0.0 <= self.p1 <= self.p2:
            raise ValueError(f"need 0 <= P1 <= P2, got P1={self.p1}, P2={self.p2}")
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        if self.border_cost is not None and self.border_cost < 0:
            raise ValueError("border cost must be >= 0")
        if not self.directions:
            raise ValueError("at least one direction is required")
        for d in self.directions:
            if d not in DIRECTIONS_8:
                raise ValueError(f"not a compass direction: {d}")
        if len(set(self.directions)) != len(self.directions):
            raise ValueError("duplicate directions")

    @classmethod
    def defaults(cls, channels=3, d_max=16, directions=DIRECTIONS_8):
        """Penalties tuned for unit-range intensities, scaled by channel count."""
        return cls(p1=0.03 * channels, p2=0.24 * channels, d_max=d_max,
                   directions=directions)


@dataclass
class BilSubParams:
    spatial_sigma: float = 2.0
    range_sigma: float = 0.1
    radius: int = 3

    def __post_init__(self):
        if self.spatial_sigma <= 0 or self.range_sigma <= 0:
            raise ValueError("sigmas must be positive")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")


def bilsub(image: Image, spatial_sigma=2.0, range_sigma=0.1, radius=3) -> Image:
    """Subtract the bilateral-filtered background from an image.

    The residual is re-centered at 0.5 and clamped to [0, 1], so a constant
    input maps to the constant 0.5 and downstream cost code sees an ordinary
    unit-range image. Removes smooth local intensity offsets while keeping
    high-contrast texture edges.
    """
    BilSubParams(spatial_sigma, range_sigma, radius)
    data = image.data.astype(np.float64)
    background = _bilateral(data, spatial_sigma, range_sigma, radius)
    out = np.clip(0.5 + (data - background), 0.0, 1.0)
    return Image(out.astype(np.float32))


def _overlap(h, w, dy, dx):
    """Index pair (here, there) of the parts of an h x w grid where p and
    p - (dy, dx) both lie inside it, or None when the shift leaves no overlap."""
    ys0, ys1 = max(0, dy), min(h, h + dy)
    xs0, xs1 = max(0, dx), min(w, w + dx)
    if ys0 >= ys1 or xs0 >= xs1:
        return None
    return ((slice(ys0, ys1), slice(xs0, xs1)),
            (slice(ys0 - dy, ys1 - dy), slice(xs0 - dx, xs1 - dx)))


def _bilateral(data, spatial_sigma, range_sigma, radius):
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


def ad_cost(left: Image, right: Image, d_max, border_cost=None) -> CostVolume:
    """Absolute-difference matching cost summed over channels.

    cost(p, d) = sum_c |left(p) - right(p - d)|. Where p - d falls outside
    the right image the cost is a fixed high constant (channel count by
    default) so border pixels do not spuriously prefer large disparities.
    """
    if left.data.shape != right.data.shape:
        raise ValueError(
            f"shape mismatch: left {left.data.shape} vs right {right.data.shape}"
        )
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if border_cost is None:
        border_cost = float(left.channels)
    h, w = left.height, left.width
    ldata = left.data.astype(np.float64)
    rdata = right.data.astype(np.float64)
    # filled disparity-major, so each disparity's plane is one contiguous block
    costs = np.full((d_max, h, w), border_cost, dtype=np.float64)
    for d in range(min(d_max, w)):
        diff = np.abs(ldata[:, d:] - rdata[:, :w - d])
        costs[d, :, d:] = diff.sum(axis=2)
    return CostVolume(np.ascontiguousarray(costs.transpose(1, 2, 0)))


def _relax(prev, p1, p2):
    """One DP step: cheapest transition into each disparity, normalized.

    prev holds the predecessor's path costs along the trailing axis. Returns
    min(stay, +-1 step + p1, jump + p2) minus the predecessor minimum.
    """
    m = prev.min(axis=-1, keepdims=True)
    cand = np.minimum(prev, m + p2)
    if prev.shape[-1] > 1:
        np.minimum(cand[..., :-1], prev[..., 1:] + p1, out=cand[..., :-1])
        np.minimum(cand[..., 1:], prev[..., :-1] + p1, out=cand[..., 1:])
    return cand - m


def _sweep(costs, p1, p2, dy, dx):
    """Path costs for one direction, recurrence restarted at path starts."""
    h, w, _ = costs.shape
    out = np.empty_like(costs)
    if dy == 0:
        xs = range(w) if dx == 1 else range(w - 1, -1, -1)
        for i, x in enumerate(xs):
            if i == 0:
                out[:, x] = costs[:, x]
            else:
                out[:, x] = costs[:, x] + _relax(out[:, x - dx], p1, p2)
        return out
    ys = range(h) if dy == 1 else range(h - 1, -1, -1)
    for i, y in enumerate(ys):
        if i == 0:
            out[y] = costs[y]
            continue
        prev_row = out[y - dy]
        if dx == 0:
            out[y] = costs[y] + _relax(prev_row, p1, p2)
        else:
            out[y] = costs[y]
            if dx == 1:
                out[y, 1:] += _relax(prev_row[:-1], p1, p2)
            else:
                out[y, :-1] += _relax(prev_row[1:], p1, p2)
    return out


def _opposed_pair_count(directions):
    seen = set(directions)
    pairs = {frozenset(((dy, dx), (-dy, -dx))) for dy, dx in seen
             if (-dy, -dx) in seen}
    return len(pairs)


def sgm_aggregate(cv: CostVolume, params: SgmParams) -> CostVolume:
    """Sum 1-D path costs over the configured directions.

    Each sweep charges 2*P1 / 2*P2 per step (both ordered contributions of
    the step's pixel pair) and one copy of the data term is subtracted per
    opposed direction pair, so opposed sweeps combine into exact through-path
    costs. Output is deterministic and independent of direction order.
    """
    if cv.d_max != params.d_max:
        raise ValueError(
            f"cost volume has {cv.d_max} levels, params expect {params.d_max}"
        )
    p1, p2 = 2.0 * params.p1, 2.0 * params.p2
    total = np.zeros_like(cv.costs)
    for dy, dx in sorted(params.directions):
        total += _sweep(cv.costs, p1, p2, dy, dx)
    n_pairs = _opposed_pair_count(params.directions)
    if n_pairs:
        total -= n_pairs * cv.costs
    return CostVolume(total)


def winner_takes_all(cv: CostVolume) -> DepthMap:
    """Per-pixel argmin disparity; ties go to the smaller disparity."""
    disp = np.argmin(cv.costs, axis=2).astype(np.float32)
    return DepthMap(disp, None, kind=DISPARITY)


def energy(dmap: DepthMap, cv: CostVolume, params: SgmParams) -> float:
    """Global energy of a disparity labeling under the cost volume.

    The smoothness sum runs over ordered 8-neighbor pairs, so each unordered
    pair is counted twice. Used as the oracle objective in tests.
    """
    if dmap.values.shape != cv.costs.shape[:2]:
        raise ValueError("disparity map and cost volume are not aligned")
    if not dmap.mask.all():
        raise ValueError("energy requires a fully valid labeling")
    labels = np.rint(dmap.values).astype(np.int64)
    if labels.min() < 0 or labels.max() >= cv.d_max:
        raise ValueError("disparity out of range for the cost volume")
    h, w = labels.shape
    iy, ix = np.mgrid[0:h, 0:w]
    total = float(cv.costs[iy, ix, labels].sum())
    for dy, dx in DIRECTIONS_8:
        overlap = _overlap(h, w, dy, dx)
        if overlap is None:
            continue
        here, there = overlap
        diff = np.abs(labels[here] - labels[there])
        total += params.p1 * float((diff == 1).sum())
        total += params.p2 * float((diff > 1).sum())
    return total


def median_filter(dmap: DepthMap, radius=1) -> DepthMap:
    """Median over the valid neighbors in a (2r+1)^2 window, center included.

    Valid pixels are replaced by the median of their valid window. Invalid
    pixels are filled when at least half the window is valid, otherwise left
    invalid.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    h, w = dmap.values.shape
    size = 2 * radius + 1
    area = size * size
    stack = np.full((area, h, w), np.nan, dtype=np.float64)
    offsets = range(-radius, radius + 1)
    for i, (dy, dx) in enumerate(itertools.product(offsets, repeat=2)):
        overlap = _overlap(h, w, dy, dx)
        if overlap is None:
            continue
        here, there = overlap
        src_mask = dmap.mask[there]
        stack[i][here][src_mask] = dmap.values[there][src_mask]
    counts = (~np.isnan(stack)).sum(axis=0)
    out_mask = dmap.mask | (counts * 2 >= area)
    out_vals = np.zeros((h, w), dtype=np.float64)
    rows = stack.reshape(area, -1).T  # (H*W, area)
    flat_mask = out_mask.ravel()
    if flat_mask.any():
        out_vals.ravel()[flat_mask] = np.nanmedian(rows[flat_mask], axis=1)
    return DepthMap(out_vals.astype(np.float32), out_mask, kind=dmap.kind)


def match_pair(left: Image, right: Image, params: SgmParams,
               bilsub_params: BilSubParams = None, median_radius=0) -> DepthMap:
    """Full stereo front end: optional BilSub, AD cost, SGM, WTA, median."""
    if bilsub_params is not None:
        left, right = (bilsub(image, **asdict(bilsub_params)) for image in (left, right))
    cv = ad_cost(left, right, params.d_max, border_cost=params.border_cost)
    aggregated = sgm_aggregate(cv, params)
    disp = winner_takes_all(aggregated)
    if median_radius >= 1:
        disp = median_filter(disp, median_radius)
    return disp
