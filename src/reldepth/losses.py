"""Differentiable training objectives, each returning value plus analytic
gradient: the pairwise ranking loss over ordinal pairs and the info-gain
weighted multinomial logistic loss over binned depth labels.
"""

from dataclasses import dataclass

import numpy as np

from .binning import InfoGainMatrix
from .ordinal import CLOSER, EQUAL, check_inside, pair_rows


@dataclass
class LossResult:
    value: float
    gradient: np.ndarray  # same shape as the score input

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("loss value must be finite")
        if not np.all(np.isfinite(self.gradient)):
            raise ValueError("loss gradient must be finite")


def softplus(x):
    """log(1 + exp(x)) without overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits):
    """Shift-stabilized softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def ranking_loss(scores, pairs, mean=False) -> LossResult:
    """Pairwise ranking loss over a scalar score map (larger = closer).

    Per pair with margin m = z_i - z_j the loss is log(1 + exp(-m)) for
    r = +1, log(1 + exp(m)) for r = -1, and m^2 for r = 0, summed over
    pairs in order (averaged when mean=True). Gradients accumulate only at
    the two pixels each pair touches, pair by pair; the logistic terms use
    the stable softplus form so margins up to about 1e3 are handled without
    overflow.
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"score map must be 2-D, got shape {z.shape}")
    rows = pair_rows(pairs)
    if not len(rows):
        raise ValueError("need at least one pair")
    h, w = z.shape
    check_inside(rows, h, w)
    at_i = rows[:, 0] * w + rows[:, 1]
    at_j = rows[:, 2] * w + rows[:, 3]
    m = z.ravel()[at_i] - z.ravel()[at_j]
    r = rows[:, 4]
    s = sigmoid(m)
    terms = np.where(r == EQUAL, m * m, softplus(np.where(r == CLOSER, -m, m)))
    dm = np.where(r == EQUAL, 2.0 * m, np.where(r == CLOSER, s - 1.0, s))
    # a running sum and an in-order scatter keep the per-pair loop's rounding
    total = float(np.cumsum(terms)[-1])
    grad = np.bincount(np.stack([at_i, at_j], axis=1).ravel(),
                       weights=np.stack([dm, -dm], axis=1).ravel(),
                       minlength=h * w).reshape(h, w)
    if mean:
        k = len(rows)
        total /= k
        grad /= k
    return LossResult(total, grad)


def infogain_loss(logits, labels, mask, gain: InfoGainMatrix) -> LossResult:
    """Info-gain weighted multinomial logistic loss over valid pixels.

    value = -(1/N) sum_{valid i} sum_D H(L_i, D) log P(D | z_i) with P the
    softmax of the pixel's logits, L_i the 1-based true label, and N the
    valid-pixel count. Gradient per pixel and channel d is
    (1/N) [(sum_D H(L_i, D)) P(d | z_i) - H(L_i, d)]; masked pixels
    contribute nothing to either.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError(f"logits must be (H, W, B), got shape {z.shape}")
    b = z.shape[2]
    if gain.bins != b:
        raise ValueError(f"gain matrix is {gain.bins}x{gain.bins}, logits have {b} channels")
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if labels.shape != z.shape[:2] or mask.shape != z.shape[:2]:
        raise ValueError("labels and mask must match the logit grid")
    n = int(mask.sum())
    if n == 0:
        raise ValueError("at least one valid pixel is required")
    if labels[mask].min() < 1 or labels[mask].max() > b:
        raise ValueError(f"valid labels must lie in [1, {b}]")

    grad = np.zeros_like(z)
    zx = z[mask]  # (n, B)
    shifted = zx - zx.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    h_rows = gain.weights[labels[mask] - 1]  # (n, B)
    value = -(h_rows * log_p).sum() / n
    row_sums = h_rows.sum(axis=1, keepdims=True)
    grad[mask] = (row_sums * np.exp(log_p) - h_rows) / n
    return LossResult(float(value), grad)
