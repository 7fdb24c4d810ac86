"""Full-volume SGM aggregation, kept as the reference for the streamed
sweeps in reldepth.stereo.sgm_aggregate: each direction's path costs are
built as a whole (H, W, D) volume, and the volumes are summed in sorted
direction order.
"""

import numpy as np

from reldepth.stereo import CostVolume, _opposed_pair_count


def relax(prev, p1, p2):
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


def sweep(costs, p1, p2, dy, dx):
    """Path costs for one direction, recurrence restarted at path starts."""
    h, w, _ = costs.shape
    out = np.empty_like(costs)
    if dy == 0:
        xs = range(w) if dx == 1 else range(w - 1, -1, -1)
        for i, x in enumerate(xs):
            if i == 0:
                out[:, x] = costs[:, x]
            else:
                out[:, x] = costs[:, x] + relax(out[:, x - dx], p1, p2)
        return out
    ys = range(h) if dy == 1 else range(h - 1, -1, -1)
    for i, y in enumerate(ys):
        if i == 0:
            out[y] = costs[y]
            continue
        prev_row = out[y - dy]
        if dx == 0:
            out[y] = costs[y] + relax(prev_row, p1, p2)
        else:
            out[y] = costs[y]
            if dx == 1:
                out[y, 1:] += relax(prev_row[:-1], p1, p2)
            else:
                out[y, :-1] += relax(prev_row[1:], p1, p2)
    return out


def sgm_aggregate(cv, params):
    p1, p2 = 2.0 * params.p1, 2.0 * params.p2
    total = np.zeros_like(cv.costs)
    for dy, dx in sorted(params.directions):
        total += sweep(cv.costs, p1, p2, dy, dx)
    n_pairs = _opposed_pair_count(params.directions)
    if n_pairs:
        total -= n_pairs * cv.costs
    return CostVolume(total)
