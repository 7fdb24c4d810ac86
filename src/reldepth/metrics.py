"""Depth evaluation measures pooled over the jointly valid pixels of all
evaluated images: rms, mean relative error, mean log10 error, rms log error,
and the three delta threshold accuracies.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .imagery.types import DepthMap

DELTA_THRESHOLD = 1.25


@dataclass
class MetricsReport:
    rms: float
    rel: float
    log10: float
    rmslog: float
    delta1: float
    delta2: float
    delta3: float
    pixel_count: int

    def __post_init__(self):
        if self.pixel_count < 1:
            raise ValueError("a report needs at least one evaluated pixel")
        if not self.delta1 <= self.delta2 <= self.delta3:
            raise ValueError("delta accuracies must be non-decreasing")

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def evaluate(pred: DepthMap, gt: DepthMap, extra_mask=None) -> MetricsReport:
    """Score a predicted depth map against ground truth.

    Metrics are computed over pixels valid in both maps (and in extra_mask
    when given) with positive ground truth. Non-positive predictions inside
    that set raise instead of being clamped, so decoding bugs surface here.
    """
    if pred.values.shape != gt.values.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.values.shape} vs gt {gt.values.shape}"
        )
    sel = pred.mask & gt.mask & (gt.values > 0)
    if extra_mask is not None:
        extra = np.asarray(extra_mask, dtype=bool)
        if extra.shape != sel.shape:
            raise ValueError("extra mask shape mismatch")
        sel &= extra
    n = int(sel.sum())
    if n == 0:
        raise ValueError("no jointly valid pixels to evaluate")
    dp = pred.values[sel].astype(np.float64)
    dg = gt.values[sel].astype(np.float64)
    if dp.min() <= 0:
        raise ValueError("non-positive prediction inside the valid set")

    diff = dg - dp
    ratio = np.maximum(dg / dp, dp / dg)
    log_diff = np.log(dg) - np.log(dp)
    return MetricsReport(
        rms=float(np.sqrt(np.mean(diff ** 2))),
        rel=float(np.mean(np.abs(diff) / dg)),
        log10=float(np.mean(np.abs(np.log10(dg) - np.log10(dp)))),
        rmslog=float(np.sqrt(np.mean(log_diff ** 2))),
        delta1=float(np.mean(ratio < DELTA_THRESHOLD)),
        delta2=float(np.mean(ratio < DELTA_THRESHOLD ** 2)),
        delta3=float(np.mean(ratio < DELTA_THRESHOLD ** 3)),
        pixel_count=n,
    )


def aggregate(reports) -> MetricsReport:
    """Pool reports as if their pixels had been evaluated together.

    Linear metrics pool by pixel-weighted means; the rms metrics pool through
    sums of squares, so the result matches a single evaluation over the
    concatenated pixels.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    total = sum(r.pixel_count for r in reports)

    def wmean(get):
        return sum(get(r) * r.pixel_count for r in reports) / total

    return MetricsReport(
        rms=float(np.sqrt(wmean(lambda r: r.rms ** 2))),
        rel=float(wmean(lambda r: r.rel)),
        log10=float(wmean(lambda r: r.log10)),
        rmslog=float(np.sqrt(wmean(lambda r: r.rmslog ** 2))),
        delta1=float(wmean(lambda r: r.delta1)),
        delta2=float(wmean(lambda r: r.delta2)),
        delta3=float(wmean(lambda r: r.delta3)),
        pixel_count=total,
    )
