"""Per-pair loop versions of the pair stages, kept as references for the
whole-array code in reldepth.ordinal, reldepth.losses and
reldepth.network.training. Pairs are any iterable of 5-sequences
(row_i, col_i, row_j, col_j, r); results are lists of 5-tuples of ints.
"""

import csv
import io

import numpy as np

from reldepth.losses import sigmoid, softplus


def relation(v_i, v_j, threshold, larger_is_closer):
    if not (np.isfinite(v_i) and np.isfinite(v_j)):
        raise ValueError("values must be finite")
    if abs(v_i - v_j) <= threshold:
        return 0
    i_closer = v_i > v_j if larger_is_closer else v_i < v_j
    return 1 if i_closer else -1


def sample_pairs(disparity, cfg):
    ys, xs = np.nonzero(disparity.mask)
    n = len(ys)
    rng = np.random.default_rng(cfg.seed)
    pairs = []
    while len(pairs) < cfg.count:
        want = cfg.count - len(pairs)
        a = rng.integers(0, n, size=want)
        b = rng.integers(0, n, size=want)
        for ia, ib in zip(a, b):
            if ia == ib:
                continue
            pi = (int(ys[ia]), int(xs[ia]))
            pj = (int(ys[ib]), int(xs[ib]))
            r = relation(float(disparity.values[pi]), float(disparity.values[pj]),
                         cfg.eq_threshold, larger_is_closer=True)
            pairs.append((*pi, *pj, r))
            if len(pairs) == cfg.count:
                break
    return pairs


def _inside(pt, h, w):
    if not (0 <= pt[0] < h and 0 <= pt[1] < w):
        raise ValueError(f"pair coordinate {pt} outside {h}x{w} map")


def ranking_loss(scores, pairs, mean=False):
    """(value, gradient) of the pairwise ranking loss."""
    z = np.asarray(scores, dtype=np.float64)
    h, w = z.shape
    grad = np.zeros_like(z)
    total = 0.0
    for ri, ci, rj, cj, r in pairs:
        _inside((ri, ci), h, w)
        _inside((rj, cj), h, w)
        m = z[ri, ci] - z[rj, cj]
        if r == 1:
            total += float(softplus(-m))
            dm = float(sigmoid(m)) - 1.0
        elif r == -1:
            total += float(softplus(m))
            dm = float(sigmoid(m))
        else:
            total += m * m
            dm = 2.0 * m
        grad[ri, ci] += dm
        grad[rj, cj] -= dm
    if mean:
        total /= len(pairs)
        grad /= len(pairs)
    return total, grad


def whdr(pred, pairs, pred_threshold=0.0):
    h, w = pred.values.shape
    disagree = 0
    for ri, ci, rj, cj, r in pairs:
        for pt in ((ri, ci), (rj, cj)):
            _inside(pt, h, w)
            if not pred.mask[pt]:
                raise ValueError(f"pair coordinate {pt} is invalid in the prediction")
        got = relation(float(pred.values[ri, ci]), float(pred.values[rj, cj]),
                       pred_threshold, larger_is_closer=False)
        if got != r:
            disagree += 1
    return disagree / len(pairs)


def map_pairs_to_grid(pairs, stride):
    mapped = []
    for ri, ci, rj, cj, r in pairs:
        gi = (ri // stride, ci // stride)
        gj = (rj // stride, cj // stride)
        if gi != gj:
            mapped.append((*gi, *gj, r))
    return mapped


def pairs_csv_bytes(pairs):
    """What csv.writer writes for the pairs, one row each."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in pairs:
        writer.writerow([int(v) for v in row])
    return buf.getvalue().encode()
