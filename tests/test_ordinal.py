import re

import numpy as np
import pytest

import pair_loops as loops
from reldepth.imagery import DISPARITY, DepthMap
from reldepth.losses import ranking_loss
from reldepth.network import map_pairs_to_grid
from reldepth.ordinal import (
    OrdinalPair,
    PairSampleConfig,
    PairSet,
    load_pairs_csv,
    relation_from_values,
    sample_pairs,
    save_pairs_csv,
    whdr,
)


class TestRelation:
    def test_exact_equality_is_zero(self):
        assert relation_from_values(4.0, 4.0, 0.0, larger_is_closer=True) == 0
        assert relation_from_values(4.0, 4.0, 2.0, larger_is_closer=False) == 0

    def test_disparity_ordering(self):
        assert relation_from_values(10.0, 4.0, 1.0, larger_is_closer=True) == 1

    def test_depth_ordering(self):
        assert relation_from_values(10.0, 4.0, 1.0, larger_is_closer=False) == -1

    def test_threshold_bound_inclusive(self):
        assert relation_from_values(5.0, 4.0, 1.0, larger_is_closer=True) == 0

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a, b = rng.normal(size=2) * 10
            if rng.random() < 0.2:
                b = a  # exercise exact ties as well
            tau = float(rng.uniform(0, 2))
            for flag in (True, False):
                assert relation_from_values(a, b, tau, flag) == -relation_from_values(
                    b, a, tau, flag
                )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            relation_from_values(np.nan, 1.0, 0.0, True)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            PairSet([(0, 0, 0, 0, 1)])
        with pytest.raises(ValueError):
            PairSet([(0, 0, 0, 1, 2)])


def two_layer_map():
    values = np.ones((8, 8), dtype=np.float32)
    values[:, 4:] = 4.0
    return DepthMap(values, kind=DISPARITY)


class TestSamplePairs:
    def test_constant_map_all_equal(self):
        dm = DepthMap(np.full((6, 6), 2.0, dtype=np.float32), kind=DISPARITY)
        pairs = sample_pairs(dm, PairSampleConfig(count=50, eq_threshold=0.5, seed=1))
        assert len(pairs) == 50
        assert all(p.r == 0 for p in pairs)

    def test_cross_layer_pairs_are_strict(self):
        pairs = sample_pairs(two_layer_map(),
                             PairSampleConfig(count=200, eq_threshold=0.5, seed=2))
        dm = two_layer_map()
        for p in pairs:
            vi, vj = dm.values[p.row_i, p.col_i], dm.values[p.row_j, p.col_j]
            if vi != vj:
                assert p.r == (1 if vi > vj else -1)
            else:
                assert p.r == 0

    def test_determinism(self):
        cfg = PairSampleConfig(count=64, eq_threshold=1.0, seed=9)
        assert np.array_equal(sample_pairs(two_layer_map(), cfg),
                              sample_pairs(two_layer_map(), cfg))

    def test_pairs_land_on_valid_pixels(self):
        values = np.full((6, 6), 3.0, dtype=np.float32)
        mask = np.zeros((6, 6), bool)
        mask[0, 0] = mask[5, 5] = mask[2, 3] = True
        dm = DepthMap(values, mask, kind=DISPARITY)
        pairs = sample_pairs(dm, PairSampleConfig(count=30, eq_threshold=0.0, seed=3))
        for p in pairs:
            assert mask[p.row_i, p.col_i] and mask[p.row_j, p.col_j]

    def test_self_consistency_with_relation(self):
        rng = np.random.default_rng(5)
        values = (rng.random((10, 10)) * 8).astype(np.float32)
        dm = DepthMap(values, kind=DISPARITY)
        tau = 1.0
        pairs = sample_pairs(dm, PairSampleConfig(count=100, eq_threshold=tau, seed=6))
        for p in pairs:
            assert p.r == relation_from_values(
                float(values[p.row_i, p.col_i]), float(values[p.row_j, p.col_j]), tau,
                larger_is_closer=True,
            )

    def test_needs_two_valid_pixels(self):
        mask = np.zeros((3, 3), bool)
        mask[0, 0] = True
        dm = DepthMap(np.ones((3, 3), dtype=np.float32), mask, kind=DISPARITY)
        with pytest.raises(ValueError):
            sample_pairs(dm, PairSampleConfig(count=1, eq_threshold=0.0, seed=0))


class TestWhdr:
    def _consistent_setup(self):
        # depth map: left half 8 m (far), right half 2 m (near)
        values = np.full((4, 8), 8.0, dtype=np.float32)
        values[:, 4:] = 2.0
        pred = DepthMap(values, kind="depth")
        pairs = [
            (0, 6, 0, 1, +1),  # near point is closer
            (1, 1, 1, 7, -1),
            (2, 0, 3, 2, 0),
            (2, 5, 3, 6, 0),
        ]
        return pred, pairs

    def test_perfect_agreement(self):
        pred, pairs = self._consistent_setup()
        assert whdr(pred, pairs, pred_threshold=0.0) == 0.0

    def test_total_disagreement_on_strict_pairs(self):
        pred, _ = self._consistent_setup()
        pairs = [(0, 6, 0, 1, -1), (1, 1, 1, 7, +1)]
        assert whdr(pred, pairs, pred_threshold=0.0) == 1.0

    def test_quarter_disagreement(self):
        pred, pairs = self._consistent_setup()
        pairs = pairs[:3] + [(2, 5, 3, 6, +1)]  # one wrong
        assert whdr(pred, pairs, pred_threshold=0.0) == 0.25

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        values = (rng.random((12, 12)) * 5 + 0.5).astype(np.float32)
        pred = DepthMap(values, kind="depth")
        pairs = []
        while len(pairs) < 60:
            a = tuple(int(v) for v in rng.integers(0, 12, 2))
            b = tuple(int(v) for v in rng.integers(0, 12, 2))
            if a != b:
                pairs.append((*a, *b, int(rng.choice([-1, 0, 1]))))
        base = whdr(pred, pairs, pred_threshold=0.0)
        transformed = DepthMap(np.exp(values / 4.0).astype(np.float32), kind="depth")
        assert whdr(transformed, pairs, pred_threshold=0.0) == base

    def test_out_of_bounds_pair(self):
        pred = DepthMap(np.ones((2, 2), dtype=np.float32), kind="depth")
        with pytest.raises(ValueError):
            whdr(pred, [(0, 0, 5, 5, 1)])

    def test_invalid_pixel_pair(self):
        mask = np.ones((2, 2), bool)
        mask[1, 1] = False
        pred = DepthMap(np.ones((2, 2), dtype=np.float32), mask, kind="depth")
        with pytest.raises(ValueError):
            whdr(pred, [(0, 0, 1, 1, 1)])


class TestCsv:
    def test_round_trip(self, tmp_path):
        pairs = [(0, 1, 2, 3, -1), (4, 5, 6, 7, 0)]
        path = tmp_path / "pairs.csv"
        save_pairs_csv(pairs, path)
        assert np.array_equal(load_pairs_csv(path), pairs)
        text = path.read_text().strip().splitlines()
        assert text[0] == "0,1,2,3,-1"

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            load_pairs_csv(path)

    @pytest.mark.parametrize("text, line, message", [
        ("0,1,2,3,1\n1,2,3\n", 2, "expected 5 integer fields, got '1,2,3'"),
        ("0,1,2,3,1\n   \n", 2, "expected 5 integer fields, got '   '"),
        ("1,2,3\n1,2,3\n", 1, "expected 5 integer fields, got '1,2,3'"),
        ("0,1,2,3,1\n0,1,2,3,2\n", 2, "relation must be -1, 0 or +1, got 2"),
        ("0,1,2,3,1\n4,5,4,5,0\n", 2, "pair endpoints must differ"),
        ("0,1,2,3,1\n0,1,x,3,1\n", 2, "expected 5 integer fields, got '0,1,x,3,1'"),
        ("0,1,2,3,1\n0,1,2.5,3,1\n", 2, "expected 5 integer fields, got '0,1,2.5,3,1'"),
        ("\n\n0,1,2,3,1\n\n0,1,2,3,-2\n", 5, "relation must be -1, 0 or +1, got -2"),
        # \x0b and \x0c end a line for str.splitlines, so the row is cut there
        ("0\x0b,1,2,3,1\n", 1, "expected 5 integer fields, got '0'"),
        ("0,1,2,3\x0c,1\r\n", 1, "expected 5 integer fields, got '0,1,2,3'"),
        ("0,1,2,3,1\r\n-,5,6,7,-1\r\n", 2, "expected 5 integer fields, got '-,5,6,7,-1'"),
        ("0,1,2,3,1\r\n9223372036854775808,1,2,3,1\r\n", 2,
         "expected 5 integer fields, got '9223372036854775808,1,2,3,1'"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
            load_pairs_csv(path)

    @pytest.mark.parametrize("text", [
        b"\n0,1,2,3,1\n\n\n4,5,6,7,-1\n\n",
        b"\r\n0,1,2,3,1\r\n\r\n4,5,6,7,-1\r\n",
        b" 0, 1,2,3,+1\n4,5,6,7,-1",
        b"0,1,2,3,1\r\n4,5,6,7,-1\r\n",  # as the writer makes it
        b"0,1,2,3,1\r\n\r\n\r\n4,5,6,7,-1\r\n\r\n",
        b"0,1,2,3,1\r4,5,6,7,-1\r",
        b"0,1,2,3,1\r\n4,5,6,7,-1",
        b"0,1,2,3,1\r\n4,5,6,7,-1\x0b",
    ])
    def test_blank_lines_skipped(self, tmp_path, text):
        path = tmp_path / "pairs.csv"
        path.write_bytes(text)
        assert np.array_equal(load_pairs_csv(path), [(0, 1, 2, 3, 1), (4, 5, 6, 7, -1)])

    def test_empty_file_is_an_empty_set(self, tmp_path):
        path = tmp_path / "pairs.csv"
        save_pairs_csv([], path)
        assert path.read_bytes() == b""
        assert np.asarray(load_pairs_csv(path)).shape == (0, 5)
        path.write_bytes(b"\r\n\n\r")
        assert np.asarray(load_pairs_csv(path)).shape == (0, 5)


class TestPairSet:
    def test_iteration_yields_python_int_rows(self):
        pairs = PairSet(np.array([[0, 1, 2, 3, -1], [4, 5, 6, 7, 0]], dtype=np.int32))
        items = list(pairs)
        assert items == [OrdinalPair(0, 1, 2, 3, -1), OrdinalPair(4, 5, 6, 7, 0)]
        assert all(type(v) is int for p in items for v in p)
        assert np.array_equal(PairSet(items), pairs)

    def test_rows_are_read_only_int64(self):
        rows = np.asarray(PairSet([(0, 1, 2, 3, 1)]))
        assert rows.dtype == np.int64 and rows.shape == (1, 5)
        with pytest.raises(ValueError):
            rows[0, 0] = 5

    @pytest.mark.parametrize("bad", [[(0, 1, 2, 3)], [0, 1, 2, 3, 1], [[(0, 1, 2, 3, 1)]]])
    def test_shape_checked(self, bad):
        with pytest.raises(ValueError, match="shape"):
            PairSet(bad)


# every endpoint position just outside a 3x4 map, negative ones included:
# a gather would wrap -1 round to the last row or column without a word
OUTSIDE_3X4 = [
    (-1, 0, 1, 1, 1), (0, -1, 1, 1, 1), (1, 1, -1, 0, 1), (1, 1, 0, -1, 1),
    (3, 0, 1, 1, 1), (0, 4, 1, 1, 1), (1, 1, 3, 0, 1), (1, 1, 0, 4, 1),
]


@pytest.mark.parametrize("row", OUTSIDE_3X4)
class TestCoordinatesOutsideTheMap:
    def test_ranking_loss_rejects(self, row):
        with pytest.raises(ValueError, match="outside 3x4 map"):
            ranking_loss(np.zeros((3, 4)), [(0, 0, 2, 3, 1), row])

    def test_whdr_rejects(self, row):
        pred = DepthMap(np.ones((3, 4), dtype=np.float32), kind="depth")
        with pytest.raises(ValueError, match="outside 3x4 map"):
            whdr(pred, [(0, 0, 2, 3, 1), row])


def random_masked_map(rng):
    h, w = (int(v) for v in rng.integers(3, 40, size=2))
    # coarse levels make exact ties and threshold-bound relations common
    values = (rng.integers(0, 24, size=(h, w)) * rng.choice([0.25, 0.37, 1.0]))
    mask = rng.random((h, w)) < rng.uniform(0.05, 1.0)
    mask.flat[rng.choice(h * w, size=2, replace=False)] = True
    return DepthMap(values.astype(np.float32), mask, kind=DISPARITY)


@pytest.mark.parametrize("seed", range(24))
def test_pair_stages_match_the_loops(seed, tmp_path):
    """Every whole-array pair stage equals its per-pair loop bit for bit."""
    rng = np.random.default_rng(7000 + seed)
    disp = random_masked_map(rng)
    cfg = PairSampleConfig(count=int(rng.integers(1, 400)),
                           eq_threshold=float(rng.choice([0.0, 0.5, 1.0])), seed=seed)
    want = loops.sample_pairs(disp, cfg)
    pairs = sample_pairs(disp, cfg)
    assert np.array_equal(pairs, want)

    z = rng.normal(size=disp.values.shape) * 3
    for mean in (False, True):
        value, grad = loops.ranking_loss(z, want, mean=mean)
        res = ranking_loss(z, pairs, mean=mean)
        assert res.value == value
        assert res.gradient.tobytes() == grad.tobytes()

    pred = DepthMap(disp.values + 0.5, disp.mask, kind="depth")
    for threshold in (0.0, 0.7):
        assert whdr(pred, pairs, threshold) == loops.whdr(pred, want, threshold)

    for stride in (2, 8):
        assert np.array_equal(np.asarray(map_pairs_to_grid(pairs, stride)).reshape(-1, 5),
                              np.reshape(loops.map_pairs_to_grid(want, stride), (-1, 5)))

    path = tmp_path / "pairs.csv"
    save_pairs_csv(pairs, path)
    assert path.read_bytes() == loops.pairs_csv_bytes(want)
    assert np.array_equal(load_pairs_csv(path), want)


INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


# the writer formats from a table of the coordinates' texts when they span no
# more values than there are rows, and with % otherwise: cases on both sides
@pytest.mark.parametrize("rows", [
    [(0, 1, 2, 3, 1)],
    [(5, 5, 5, 6, 0)],
    [(0, 0, 1000, 5, 1), (3, 4, 5, 6, 0)],
    [(0, 1, 1, 0, -1), (1, 1, 0, 0, 0)],
    [(0, 1, 2, 1, -1), (2, 2, 1, 0, 0)],
    [(-1, 0, 0, -1, -1), (0, 0, -1, -1, 1), (-1, -1, 0, 0, 0)],
    [(-7, 0, 3, -2, 1), (12, -40, 0, 0, -1)],
    [(INT64_MIN, INT64_MIN + 1, INT64_MIN + 1, INT64_MIN, 1),
     (INT64_MIN + 1, INT64_MIN, INT64_MIN, INT64_MIN, -1)],
    [(INT64_MAX, INT64_MAX - 1, INT64_MAX - 1, INT64_MAX, 0),
     (INT64_MAX, INT64_MAX, INT64_MAX - 1, INT64_MAX - 1, 1)],
    [(INT64_MIN, INT64_MAX, 0, 0, 1), (INT64_MAX, 0, INT64_MIN, -1, -1)],
], ids=["one-row", "one-row-span-2", "wide", "span-equals-rows", "span-past-rows",
        "negative", "negative-wide", "int64-min", "int64-max", "int64-both"])
def test_csv_bytes_match_the_loop(rows, tmp_path):
    path = tmp_path / "pairs.csv"
    save_pairs_csv(rows, path)
    assert path.read_bytes() == loops.pairs_csv_bytes(rows)
    assert np.array_equal(load_pairs_csv(path), rows)
