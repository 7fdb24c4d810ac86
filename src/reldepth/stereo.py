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
        # NaN and +-inf show in the extremes, so no whole-volume mask is built
        lo, hi = arr.min(), arr.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("cost volume contains non-finite entries")
        if lo < 0.0:
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
    def defaults(cls, channels=3, d_max=16):
        """Penalties tuned for unit-range intensities, scaled by channel count."""
        return cls(p1=0.03 * channels, p2=0.24 * channels, d_max=d_max)


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
    # channel-major copies, so each channel's rows are contiguous
    lchan, rchan = (image.data.transpose(2, 0, 1).astype(np.float64, order="C")
                    for image in (left, right))
    # held disparity-major, (H, D, W), under the (H, W, D) view; each
    # disparity's plane is summed over the channels in order, one pass each
    costs = np.full((h, d_max, w), border_cost, dtype=np.float64)
    scratch = np.empty((h, w), dtype=np.float64)
    for d in range(min(d_max, w)):
        plane = costs[:, d, d:]
        np.abs(np.subtract(lchan[0, :, d:], rchan[0, :, :w - d], out=plane), out=plane)
        for lc, rc in zip(lchan[1:], rchan[1:]):
            diff = scratch[:, d:]
            np.abs(np.subtract(lc[:, d:], rc[:, :w - d], out=diff), out=diff)
            plane += diff
    return CostVolume(costs.transpose(0, 2, 1))


# the column copy is built 64 rows of one disparity plane at a time, and the
# E and W sweeps add their path costs into the total 16 columns at a time:
# the fastest of the sizes tried at 128x128/d16 and 256x256/d48
_COPY_ROWS, _ADD_COLUMNS = 64, 16


def _path_costs(lines, p1, p2, shift):
    """Yield one direction's path costs line by line, in one reused buffer.

    lines yields the contiguous (D, n) cost lines in scan order. A pixel's
    predecessor q lies in the previous line, shift places before it; each
    step is the DP relaxation

        L(p, d) = C(p, d) + min(L(q, d), L(q, d +- 1) + p1, min_k L(q, k) + p2)
                  - min_k L(q, k)

    taken at q and added shifted along the flattened line, after which each
    disparity row's path-start pixel is reset to C(p, d).
    """
    lines = iter(lines)
    cur = np.array(next(lines))
    n_disp, n = cur.shape
    prev, step, plus = np.empty_like(cur), np.empty_like(cur), np.empty_like(cur)
    low, cap = np.empty((1, n)), np.empty((1, n))
    # a diagonal's flat positions that have a predecessor, those predecessors,
    # and the position that starts a path
    here, there, start = ((slice(1, None), slice(None, -1), 0) if shift == 1
                          else (slice(None, -1), slice(1, None), n - 1))
    yield cur
    for line_costs in lines:
        prev, cur = cur, prev
        m = np.min(prev, axis=0, keepdims=True, out=low)
        np.minimum(prev, np.add(m, p2, out=cap), out=step)
        if n_disp > 1:
            np.add(prev, p1, out=plus)
            np.minimum(step[:-1], plus[1:], out=step[:-1])
            np.minimum(step[1:], plus[:-1], out=step[1:])
        step -= m
        if shift:
            np.add(step.ravel()[there], line_costs.ravel()[here], out=cur.ravel()[here])
            cur[:, start] = line_costs[:, start]
        else:
            np.add(step, line_costs, out=cur)
        yield cur


def _row_sweeps_into(total, costs, p1, p2, dy, dxs):
    """Add the path costs of the directions (dy, dx), dx in dxs, into total,
    both (H, D, W) in memory. Their scan lines are the costs' contiguous
    (D, W) rows."""
    ys = range(costs.shape[0])[::dy]
    for dx in dxs:
        for y, path in zip(ys, _path_costs((costs[y] for y in ys), p1, p2, dx)):
            total[y] += path


def _column_sweeps_into(total, costs, p1, p2, dxs):
    """Add the path costs of the directions (0, dx), dx in dxs, into total,
    both (H, D, W) in memory. Their scan lines are the contiguous (D, H)
    columns of a (W, D, H) copy of the costs, and their path costs are added
    _ADD_COLUMNS columns at a time."""
    h, n_disp, w = costs.shape
    cols = np.empty((w, n_disp, h))
    for y0 in range(0, h, _COPY_ROWS):
        for d in range(n_disp):
            cols[:, d, y0:y0 + _COPY_ROWS] = costs[y0:y0 + _COPY_ROWS, d].T
    block = np.empty((_ADD_COLUMNS, n_disp, h))
    for dx in dxs:
        xs = range(w)[::dx]
        for x, path in zip(xs, _path_costs((cols[x] for x in xs), p1, p2, 0)):
            x0 = x - x % _ADD_COLUMNS
            x1 = min(x0 + _ADD_COLUMNS, w)
            block[x - x0] = path
            if x == (x1 - 1 if dx == 1 else x0):  # the block's last column in scan order
                total[:, :, x0:x1] += block[:x1 - x0].transpose(2, 1, 0)


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
    costs. The sweeps run one after another in sorted direction order on
    disparity-major (H, D, W) memory, each adding its path costs into the
    total as soon as a scan line (for E and W, a block of columns) is done,
    so every element of the total is summed in direction order. At most
    three volumes are held: the costs, the total and, during E and W, the
    costs' column copy. Output is deterministic and independent of the
    order in which the directions are given.
    """
    if cv.d_max != params.d_max:
        raise ValueError(
            f"cost volume has {cv.d_max} levels, params expect {params.d_max}"
        )
    p1, p2 = 2.0 * params.p1, 2.0 * params.p2
    # disparity-major memory, (H, D, W): ad_cost's own, other layouts copied
    costs = np.ascontiguousarray(cv.costs.transpose(0, 2, 1))
    total = np.zeros_like(costs)
    for dy, group in itertools.groupby(sorted(params.directions), key=lambda d: d[0]):
        dxs = tuple(dx for _, dx in group)
        if dy:
            _row_sweeps_into(total, costs, p1, p2, dy, dxs)
        else:
            _column_sweeps_into(total, costs, p1, p2, dxs)
    n_pairs = _opposed_pair_count(params.directions)
    if n_pairs:
        for row, row_costs in zip(total, costs):
            row -= n_pairs * row_costs
    return CostVolume(total.transpose(0, 2, 1))


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
    # a full window's median is its middle order statistic, an exact selection
    full = counts.ravel() == area
    if full.any():
        out_vals.ravel()[full] = np.partition(rows[full], area // 2, axis=1)[:, area // 2]
    partial = out_mask.ravel() & ~full
    if partial.any():
        out_vals.ravel()[partial] = np.nanmedian(rows[partial], axis=1)
    return DepthMap(out_vals.astype(np.float32), out_mask, kind=dmap.kind)


def match_pair(left: Image, right: Image, params: SgmParams,
               bilsub_params: BilSubParams = None, median_radius=0) -> DepthMap:
    """Full stereo front end: optional BilSub, AD cost, SGM, WTA, median."""
    if bilsub_params is not None:
        left, right = (bilsub(image, **asdict(bilsub_params)) for image in (left, right))
    # no volume outlives winner-takes-all
    disp = winner_takes_all(sgm_aggregate(
        ad_cost(left, right, params.d_max, border_cost=params.border_cost), params))
    if median_radius >= 1:
        disp = median_filter(disp, median_radius)
    return disp
