"""Ordinal ground truth from disparity maps and the WHDR score.

A pair (i, j, r) relates two pixels: r = +1 when i is closer, -1 when j is
closer, 0 when the two values differ by at most an equality threshold. For
disparities, larger means closer; for depths, smaller means closer. WHDR is
the fraction of pairs whose predicted relation disagrees with the stored one,
all pair weights set to 1.

A pair set is a (K, 5) int64 array with one row row_i, col_i, row_j, col_j, r
per pair, the layout of the pair CSV. Every stage works on the whole array.
"""

import io
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .imagery.io import _atomic_write
from .imagery.types import DepthMap

CLOSER = 1
FARTHER = -1
EQUAL = 0


# one row of a pair set, as Python ints
OrdinalPair = namedtuple("OrdinalPair", "row_i col_i row_j col_j r")


def _check_rows(rows, where):
    """Raise ValueError, naming where(k), for the first row k of rows that
    is not a pair."""
    same = (rows[:, 0] == rows[:, 2]) & (rows[:, 1] == rows[:, 3])
    bad = np.flatnonzero(same | ~np.isin(rows[:, 4], (CLOSER, FARTHER, EQUAL)))
    if bad.size:
        k = bad[0]
        reason = ("pair endpoints must differ" if same[k]
                  else f"relation must be -1, 0 or +1, got {rows[k, 4]}")
        raise ValueError(f"{where(k)}: {reason}")


class PairSet:
    """A checked pair set: ``rows`` is a read-only (K, 5) int64 array.

    np.asarray(pair_set) is the rows without a copy, len() is K, and
    iterating yields one OrdinalPair per row.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = np.array(rows, dtype=np.int64)
        if rows.size == 0:
            rows = rows.reshape(0, 5)
        if rows.ndim != 2 or rows.shape[1] != 5:
            raise ValueError(f"pair rows must have shape (K, 5), got {rows.shape}")
        _check_rows(rows, lambda k: f"pair {k}")
        rows.flags.writeable = False
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return map(OrdinalPair._make, self.rows.tolist())

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rows, dtype=dtype, copy=copy)


def pair_rows(pairs):
    """The (K, 5) rows of a PairSet, or of any array-like of pair rows
    (a list of OrdinalPairs or 5-tuples), checked."""
    return pairs.rows if isinstance(pairs, PairSet) else PairSet(pairs).rows


def check_inside(rows, h, w, prefix=""):
    """Raise ValueError for the first endpoint of the int64 pair rows, in
    pair order, outside an h x w map. A gather would wrap a negative
    coordinate round without a word; read as unsigned, it is too large."""
    pts = rows[:, :4].reshape(-1, 2)
    big = pts.view(np.uint64)
    out = np.flatnonzero((big[:, 0] >= h) | (big[:, 1] >= w))
    if out.size:
        pt = tuple(pts[out[0]].tolist())
        raise ValueError(f"{prefix}pair coordinate {pt} outside {h}x{w} map")


@dataclass
class PairSampleConfig:
    count: int = 1000
    eq_threshold: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("pair count must be >= 1")
        if self.eq_threshold < 0:
            raise ValueError("equality threshold must be >= 0")


def relation_from_values(v_i, v_j, threshold, larger_is_closer):
    """Ordinal relation of two depth-orderable values, elementwise.

    Returns 0 where |v_i - v_j| <= threshold, otherwise +1 where i is the
    closer point under the ordering flag and -1 where j is. Values are
    compared in float64; two scalars give an int, arrays an int64 array.
    """
    v_i = np.asarray(v_i, dtype=np.float64)
    v_j = np.asarray(v_j, dtype=np.float64)
    if not (np.isfinite(v_i).all() and np.isfinite(v_j).all()):
        raise ValueError("values must be finite")
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    i_closer = v_i > v_j if larger_is_closer else v_i < v_j
    rel = np.where(np.abs(v_i - v_j) <= threshold, EQUAL,
                   np.where(i_closer, CLOSER, FARTHER))
    return int(rel) if rel.ndim == 0 else rel


def sample_pairs(disparity: DepthMap, cfg: PairSampleConfig):
    """Draw cfg.count ordinal pairs of distinct valid pixels, uniformly.

    Relations follow the disparity ordering (larger = closer) with the
    configured equality threshold. Endpoints are drawn in batches of the
    pairs still missing, and draws with equal endpoints are dropped, so the
    same map and seed always produce the same PairSet.
    """
    ys, xs = np.nonzero(disparity.mask)
    n = len(ys)
    if n < 2:
        raise ValueError("need at least 2 valid pixels to sample pairs")
    rng = np.random.default_rng(cfg.seed)
    a_kept, b_kept, have = [], [], 0
    while have < cfg.count:
        want = cfg.count - have
        a = rng.integers(0, n, size=want)
        b = rng.integers(0, n, size=want)
        keep = a != b
        a_kept.append(a[keep])
        b_kept.append(b[keep])
        have += int(keep.sum())
    a, b = np.concatenate(a_kept), np.concatenate(b_kept)
    r = relation_from_values(disparity.values[ys[a], xs[a]], disparity.values[ys[b], xs[b]],
                             cfg.eq_threshold, larger_is_closer=True)
    return PairSet(np.stack([ys[a], xs[a], ys[b], xs[b], r], axis=1))


def whdr(pred: DepthMap, pairs, pred_threshold=0.0):
    """Disagreement rate of a predicted depth map against ordinal pairs.

    The prediction is read with depth ordering (smaller = closer). Every pair
    has weight 1; pairs indexing invalid or out-of-bounds pixels are an error.
    """
    rows = pair_rows(pairs)
    if not len(rows):
        raise ValueError("need at least one pair")
    h, w = pred.values.shape
    check_inside(rows, h, w)
    pts = rows[:, :4].reshape(-1, 2)
    invalid = np.flatnonzero(~pred.mask[pts[:, 0], pts[:, 1]])
    if invalid.size:
        pt = tuple(pts[invalid[0]].tolist())
        raise ValueError(f"pair coordinate {pt} is invalid in the prediction")
    got = relation_from_values(pred.values[rows[:, 0], rows[:, 1]],
                               pred.values[rows[:, 2], rows[:, 3]],
                               pred_threshold, larger_is_closer=False)
    return np.count_nonzero(got != rows[:, 4]) / len(rows)


def save_pairs_csv(pairs, path):
    """One pair per line: row_i,col_i,row_j,col_j,r as "%d,%d,%d,%d,%d\\r\\n".

    When the coordinates span no more values than there are rows, each
    field's text is looked up in a table of every value's text in that span,
    and r's in a table of its three; the bytes are the same either way."""
    rows = pair_rows(pairs)
    lo, hi = (int(rows[:, :4].min()), int(rows[:, :4].max())) if len(rows) else (0, 0)
    if hi - lo < len(rows):
        table = np.array([f"{v}," for v in range(lo, hi + 1)] + _R_TEXT, dtype=object)
        index = rows - lo
        index[:, 4] = rows[:, 4] - FARTHER + (hi - lo + 1)
        text = "".join(table[index].ravel().tolist())
    else:
        text = ("%d,%d,%d,%d,%d\r\n" * len(rows)) % tuple(rows.ravel().tolist())
    with _atomic_write(path, "w") as fh:
        fh.write(text)


# each relation's text, in value order from FARTHER
_R_TEXT = ["-1\r\n", "0\r\n", "1\r\n"]
_INT_FIELDS = {"delimiter": ",", "dtype": np.int64, "comments": None, "ndmin": 2}
# the bytes a file the writer made can hold
_WRITER_BYTES = b"0123456789,-\r\n"


def _five_ints(line):
    try:
        return np.loadtxt([line], **_INT_FIELDS).shape == (1, 5)
    except (ValueError, OverflowError):
        return False


def load_pairs_csv(path):
    """The PairSet a pair CSV holds. Blank lines are skipped; any other line
    that is not five integer fields forming a pair is an error naming
    path:line.

    A file of nothing but digits, commas, minus signs and line ends is
    parsed whole in one loadtxt call; one that fails that parse or its
    checks, and any other file, is read line by line for the same rows or
    the same error."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.strip(b"\r\n") and not data.translate(None, _WRITER_BYTES):
        try:
            return PairSet(np.loadtxt(data.decode("ascii").splitlines(), **_INT_FIELDS))
        except (ValueError, OverflowError):
            pass
    # decoded as open(path, newline="") would
    lines = io.TextIOWrapper(io.BytesIO(data), newline="").read().splitlines()
    nonblank = np.fromiter(map(bool, lines), bool, len(lines))
    linenos = np.flatnonzero(nonblank) + 1
    lines = list(compress(lines, nonblank))
    if not lines:
        return PairSet([])
    try:
        rows = np.loadtxt(lines, **_INT_FIELDS)
    except (ValueError, OverflowError):
        rows = None
    if rows is None or rows.shape != (len(lines), 5):
        k = np.flatnonzero(~np.fromiter(map(_five_ints, lines), bool, len(lines)))[0]
        raise ValueError(f"{path}:{linenos[k]}: expected 5 integer fields, got {lines[k]!r}")
    _check_rows(rows, lambda k: f"{path}:{linenos[k]}")
    return PairSet(rows)
