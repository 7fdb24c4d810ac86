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

All eight sweeps run in two scan passes over the rows (as in Hirschmueller,
Buder & Ernst, "Memory Efficient Semi-Global Matching", 2012), which read
their costs 64 rows at a time. match_pair computes those bands from the
channel images and takes each row's argmin as soon as the row is final, so
the one cost volume it holds is the aggregated total.
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
    neg_inv2_sr = -1.0 / (2.0 * range_sigma ** 2)
    for dy, dx in itertools.product(range(-radius, radius + 1), repeat=2):
        sw = np.exp(-(dy * dy + dx * dx) * inv2_ss)
        overlap = _overlap(h, w, dy, dx)
        if overlap is None:
            continue
        here, there = overlap
        shifted = data[there]
        # the range weight, built in place in one contiguous temporary,
        # which then holds the weighted values
        wgt = np.subtract(shifted, data[here])
        np.square(wgt, out=wgt)
        wgt *= neg_inv2_sr
        np.exp(wgt, out=wgt)
        wgt *= sw
        norm[here] += wgt
        wgt *= shifted
        acc[here] += wgt
    return acc / norm


def _channels(left, right, d_max, border_cost):
    """The images' channel-major float64 copies, whose channel rows are
    contiguous, and the border cost (channel count by default)."""
    if left.data.shape != right.data.shape:
        raise ValueError(
            f"shape mismatch: left {left.data.shape} vs right {right.data.shape}"
        )
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if border_cost is None:
        border_cost = float(left.channels)
    lchan, rchan = (image.data.transpose(2, 0, 1).astype(np.float64, order="C")
                    for image in (left, right))
    return lchan, rchan, border_cost


def _ad_band(lchan, rchan, border_cost, out):
    """Fill out, shaped (rows, D, W) in any memory layout, with the AD costs
    of the channel rows lchan and rchan, (C, rows, W). Each channel's rows
    are flattened in the memory order of out's planes (x-major for a column
    copy), so a disparity's differences are one pass along memory per
    channel, summed over the channels in order into one flat line and then
    copied into the plane. Where x < d the line wraps; the border cost
    takes those places."""
    rows, n_disp, w = out.shape
    order = "F" if out.strides[0] < out.strides[2] else "C"
    step = rows if order == "F" else 1  # the flat distance of one step in x
    lflat, rflat = ([channel.ravel(order) for channel in chan] for chan in (lchan, rchan))
    size = rows * w
    line, diff = np.empty(size), np.empty(size)
    sums = line.reshape((rows, w), order=order)
    for d in range(n_disp):
        out[:, d, :d] = border_cost  # the whole plane when d >= w
        if d >= w:
            continue
        s = d * step
        acc = line[s:]
        np.abs(np.subtract(lflat[0][s:], rflat[0][:size - s], out=acc), out=acc)
        for lc, rc in zip(lflat[1:], rflat[1:]):
            np.abs(np.subtract(lc[s:], rc[:size - s], out=diff[s:]), out=diff[s:])
            acc += diff[s:]
        out[:, d, d:] = sums[:, d:]


def ad_cost(left: Image, right: Image, d_max, border_cost=None) -> CostVolume:
    """Absolute-difference matching cost summed over channels.

    cost(p, d) = sum_c |left(p) - right(p - d)|. Where p - d falls outside
    the right image the cost is a fixed high constant (channel count by
    default) so border pixels do not spuriously prefer large disparities.
    The volume is held disparity-major, (H, D, W), under its (H, W, D) view.
    """
    lchan, rchan, border_cost = _channels(left, right, d_max, border_cost)
    costs = np.empty((left.height, d_max, left.width))
    _ad_band(lchan, rchan, border_cost, costs)
    return CostVolume(costs.transpose(0, 2, 1))


# SGM reads its costs in bands of 64 rows, and the E and W sweeps add their
# path costs into the total 16 columns at a time. At 256x256/d48 a band is a
# quarter of a volume; 32-row bands of the column copy took about 20% longer,
# and 128-row ones held twice the memory for no gain. 16 columns were the
# fastest add block at 128x128/d16 and 256x256/d48
_BAND_ROWS, _ADD_COLUMNS = 64, 16


class _PathCosts:
    """One direction's path costs, line by line in scan order, in one reused
    buffer. Called with each contiguous (D, n) cost line, it returns that
    line's path costs. A pixel's predecessor q lies in the previous line,
    shift places before it; each step is the DP relaxation

        L(p, d) = C(p, d) + min(L(q, d), L(q, d +- 1) + p1, min_k L(q, k) + p2)
                  - min_k L(q, k)

    taken at q and added shifted along the flattened line, after which each
    disparity row's path-start pixel is reset to C(p, d). The first line's
    path costs are its costs.
    """

    def __init__(self, shape, p1, p2, shift):
        self.p1, self.p2, self.shift, self.cur = p1, p2, shift, None
        self.prev, self.step, self.plus = (np.empty(shape) for _ in range(3))
        self.low, self.cap = (np.empty((1, shape[1])) for _ in range(2))
        # a diagonal's flat positions that have a predecessor, those
        # predecessors, and the position that starts a path
        self.here, self.there, self.start = (
            (slice(1, None), slice(None, -1), 0) if shift == 1
            else (slice(None, -1), slice(1, None), shape[1] - 1))

    def __call__(self, line_costs):
        if self.cur is None:
            self.cur = np.array(line_costs)
            return self.cur
        prev, cur, step, plus = self.cur, self.prev, self.step, self.plus
        m = np.minimum.reduce(prev, axis=0, keepdims=True, out=self.low)
        np.minimum(prev, np.add(m, self.p2, out=self.cap), out=step)
        if len(prev) > 1:
            np.add(prev, self.p1, out=plus)
            np.minimum(step[:-1], plus[1:], out=step[:-1])
            np.minimum(step[1:], plus[:-1], out=step[1:])
        step -= m
        if self.shift:
            np.add(step.ravel()[self.there], line_costs.ravel()[self.here],
                   out=cur.ravel()[self.here])
            cur[:, self.start] = line_costs[:, self.start]
        else:
            np.add(step, line_costs, out=cur)
        self.prev, self.cur = prev, cur
        return cur


def _opposed_pair_count(directions):
    seen = set(directions)
    pairs = {frozenset(((dy, dx), (-dy, -dx))) for dy, dx in seen
             if (-dy, -dx) in seen}
    return len(pairs)


def _sgm_rows(total, fill, params):
    """The SGM core: add into total, zeros of (H, D, W), the path costs of
    params.directions less one data term per opposed pair, and yield each
    row y once total[y] is final.

    fill(y0, y1, out) writes the costs of rows y0:y1 into out, shaped
    (rows, D, W): the band itself, or a view of its (W, D, rows) column
    copy. Either is read _BAND_ROWS rows at a time into one buffer. A
    bottom-up pass adds NW, N and NE row by row. A top-down pass then works
    each band: W and E along the contiguous (D, rows) columns of its column
    copy, added _ADD_COLUMNS columns at a time, then from its rows SW, S, SE
    and the subtraction. So every element is summed in sorted direction
    order, and the only volume is the total.
    """
    h, n_disp, w = total.shape
    p1, p2 = 2.0 * params.p1, 2.0 * params.p2
    dxs = {dy: [dx for _, dx in group]
           for dy, group in itertools.groupby(sorted(params.directions), key=lambda d: d[0])}
    n_pairs = _opposed_pair_count(params.directions)
    bands = [(y0, min(y0 + _BAND_ROWS, h)) for y0 in range(0, h, _BAND_ROWS)]
    buffer = np.empty(min(h, _BAND_ROWS) * n_disp * w)
    block = np.empty((_ADD_COLUMNS, n_disp, min(h, _BAND_ROWS)))

    def band(y0, y1):
        costs = buffer[:(y1 - y0) * n_disp * w].reshape(y1 - y0, n_disp, w)
        fill(y0, y1, costs)
        return costs

    paths = [_PathCosts((n_disp, w), p1, p2, dx) for dx in dxs.get(-1, ())]
    for y0, y1 in reversed(bands) if paths else ():
        costs = band(y0, y1)
        for y in reversed(range(y0, y1)):
            for path in paths:
                total[y] += path(costs[y - y0])
    paths = [_PathCosts((n_disp, w), p1, p2, dx) for dx in dxs.get(1, ())]
    for y0, y1 in bands:
        rows = y1 - y0
        if 0 in dxs:
            cols = buffer[:w * n_disp * rows].reshape(w, n_disp, rows)
            fill(y0, y1, cols.transpose(2, 1, 0))
            for dx in dxs[0]:
                path = _PathCosts((n_disp, rows), p1, p2, 0)
                for x in range(w)[::dx]:
                    x0 = x - x % _ADD_COLUMNS
                    x1 = min(x0 + _ADD_COLUMNS, w)
                    block[x - x0, :, :rows] = path(cols[x])
                    if x == (x1 - 1 if dx == 1 else x0):  # the block's last column in scan order
                        total[y0:y1, :, x0:x1] += block[:x1 - x0, :, :rows].transpose(2, 1, 0)
        costs = band(y0, y1)
        for y in range(y0, y1):
            for path in paths:
                total[y] += path(costs[y - y0])
            if n_pairs:
                total[y] -= n_pairs * costs[y - y0]
            yield y


def sgm_aggregate(cv: CostVolume, params: SgmParams) -> CostVolume:
    """Sum 1-D path costs over the configured directions.

    Each sweep charges 2*P1 / 2*P2 per step (both ordered contributions of
    the step's pixel pair) and one copy of the data term is subtracted per
    opposed direction pair, so opposed sweeps combine into exact through-path
    costs. The sweeps run in _sgm_rows' two passes over disparity-major
    (H, D, W) memory, which copy the given volume's costs one 64-row band at
    a time, so every element of the total is summed in sorted direction
    order. Beside the input one volume is held, the total, and one band.
    Output is deterministic and independent of the given directions' order
    and of the input's memory layout.
    """
    if cv.d_max != params.d_max:
        raise ValueError(
            f"cost volume has {cv.d_max} levels, params expect {params.d_max}"
        )
    costs = cv.costs.transpose(0, 2, 1)

    def fill(y0, y1, out):
        for d in range(cv.d_max):  # one disparity plane at a time
            out[:, d] = costs[y0:y1, d]

    total = np.zeros(costs.shape)
    for _ in _sgm_rows(total, fill, params):
        pass
    return CostVolume(total.transpose(0, 2, 1))


def winner_takes_all(cv: CostVolume) -> DepthMap:
    """Per-pixel argmin disparity; ties go to the smaller disparity. The
    argmin runs one (D, W) row of disparity-major costs at a time, so no
    whole-volume copy is made."""
    disp = np.empty(cv.costs.shape[:2], dtype=np.intp)
    for y, row in enumerate(cv.costs.transpose(0, 2, 1)):
        np.argmin(row, axis=0, out=disp[y])
    return DepthMap(disp.astype(np.float32), None, kind=DISPARITY)


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
    """Full stereo front end: optional BilSub, AD cost, SGM, WTA, median.

    The bytes of winner_takes_all(sgm_aggregate(ad_cost(...))), but the one
    volume held is the SGM total: its costs are computed a band at a time
    from the channel images, and each row's argmin is taken once the row is
    final.
    """
    if bilsub_params is not None:
        left, right = (bilsub(image, **asdict(bilsub_params)) for image in (left, right))
    lchan, rchan, border_cost = _channels(left, right, params.d_max, params.border_cost)

    def fill(y0, y1, out):
        _ad_band(lchan[:, y0:y1], rchan[:, y0:y1], border_cost, out)

    total = np.zeros((left.height, params.d_max, left.width))
    disp = np.empty((left.height, left.width), dtype=np.intp)
    for y in _sgm_rows(total, fill, params):
        np.argmin(total[y], axis=0, out=disp[y])
    del total  # no volume outlives winner-takes-all
    disp = DepthMap(disp.astype(np.float32), None, kind=DISPARITY)
    if median_radius >= 1:
        disp = median_filter(disp, median_radius)
    return disp
