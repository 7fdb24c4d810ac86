import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
import sgm_reference

from reldepth.imagery import DepthMap, Image, SynthSceneSpec, generate_stereogram
from reldepth.stereo import (
    DIRECTIONS_8,
    HORIZONTAL_PAIR,
    BilSubParams,
    CostVolume,
    SgmParams,
    ad_cost,
    bilsub,
    energy,
    match_pair,
    median_filter,
    sgm_aggregate,
    winner_takes_all,
)


def brute_force_min_energy(costs, p1, p2):
    """Exhaustive minimum of the row energy with ordered-pair penalties."""
    n, d = costs.shape[1], costs.shape[2]
    labelings = np.stack(
        np.meshgrid(*[np.arange(d)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)
    data = costs[0, np.arange(n), labelings].sum(axis=1)
    diff = np.abs(np.diff(labelings, axis=1))
    pen = 2 * p1 * (diff == 1).sum(axis=1) + 2 * p2 * (diff > 1).sum(axis=1)
    return float((data + pen).min())


def nanmedian_filter(dmap, radius):
    """median_filter as a NaN-padded window stack reduced by np.nanmedian."""
    h, w = dmap.values.shape
    size = 2 * radius + 1
    area = size * size
    stack = np.full((area, h, w), np.nan, dtype=np.float64)
    for i, (dy, dx) in enumerate(itertools.product(range(-radius, radius + 1), repeat=2)):
        for y, x in itertools.product(range(h), range(w)):
            sy, sx = y - dy, x - dx
            if 0 <= sy < h and 0 <= sx < w and dmap.mask[sy, sx]:
                stack[i, y, x] = dmap.values[sy, sx]
    counts = (~np.isnan(stack)).sum(axis=0)
    out_mask = dmap.mask | (counts * 2 >= area)
    out_vals = np.zeros((h, w), dtype=np.float64)
    rows = stack.reshape(area, -1).T
    flat_mask = out_mask.ravel()
    if flat_mask.any():
        out_vals.ravel()[flat_mask] = np.nanmedian(rows[flat_mask], axis=1)
    return DepthMap(out_vals.astype(np.float32), out_mask, kind=dmap.kind)


class TestBilsub:
    def test_constant_image_maps_to_zero_offset(self):
        img = Image(np.full((8, 8, 1), 0.37, dtype=np.float32))
        out = bilsub(img, spatial_sigma=1.5, range_sigma=0.1, radius=2)
        assert np.allclose(out.data, 0.5, atol=1e-6)

    def test_uniform_weights_reduce_to_box_mean(self):
        # huge sigmas flatten both weight terms: background = 3x3 box mean
        rng = np.random.default_rng(4)
        data = rng.random((6, 7, 1)).astype(np.float32)
        out = bilsub(Image(data), spatial_sigma=1e8, range_sigma=1e8, radius=1)
        x = data[:, :, 0].astype(np.float64)
        box = np.zeros_like(x)
        for i in range(6):
            for j in range(7):
                win = x[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
                box[i, j] = win.mean()
        want = np.clip(0.5 + (x - box), 0.0, 1.0)
        assert np.allclose(out.data[:, :, 0], want, atol=1e-6)

    def test_single_bright_pixel_large_range_sigma(self):
        # range weights ~ 1, so the background is a normalized spatial blur
        data = np.zeros((5, 5, 1), dtype=np.float32)
        data[2, 2, 0] = 1.0
        sigma = 1.0
        out = bilsub(Image(data), spatial_sigma=sigma, range_sigma=1e8, radius=2)
        x = data[:, :, 0].astype(np.float64)
        blur = np.zeros_like(x)
        for i in range(5):
            for j in range(5):
                acc = norm = 0.0
                for di in range(-2, 3):
                    for dj in range(-2, 3):
                        ii, jj = i + di, j + dj
                        if 0 <= ii < 5 and 0 <= jj < 5:
                            w = np.exp(-(di * di + dj * dj) / (2 * sigma ** 2))
                            acc += w * x[ii, jj]
                            norm += w
                blur[i, j] = acc / norm
        want = np.clip(0.5 + (x - blur), 0.0, 1.0)
        assert np.allclose(out.data[:, :, 0], want, atol=1e-6)

    def test_rejects_bad_params(self):
        img = Image(np.zeros((2, 2, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            bilsub(img, spatial_sigma=0.0, range_sigma=0.1, radius=1)
        with pytest.raises(ValueError):
            BilSubParams(radius=0)


class TestAdCost:
    def test_three_channel_sum(self):
        left = Image(np.array([[[0.2, 0.4, 0.6], [0.2, 0.4, 0.6]]], dtype=np.float32))
        right = Image(np.array([[[0.1, 0.4, 0.8], [0.1, 0.4, 0.8]]], dtype=np.float32))
        cv = ad_cost(left, right, d_max=1)
        assert cv.costs[0, 1, 0] == pytest.approx(0.1 + 0.0 + 0.2, abs=1e-7)

    def test_identical_images_zero_at_d0(self):
        rng = np.random.default_rng(0)
        img = Image(rng.random((4, 6, 3)).astype(np.float32))
        cv = ad_cost(img, img, d_max=3)
        assert np.all(cv.costs[:, :, 0] == 0.0)

    def test_grayscale_half_diff(self):
        left = Image(np.array([[0.9, 0.9]], dtype=np.float32)[:, :, None])
        right = Image(np.array([[0.4, 0.4]], dtype=np.float32)[:, :, None])
        cv = ad_cost(left, right, d_max=2)
        assert cv.costs[0, 1, 1] == pytest.approx(0.5, abs=1e-7)

    def test_border_gets_fixed_high_cost(self):
        rng = np.random.default_rng(1)
        img = Image(rng.random((2, 3, 3)).astype(np.float32))
        cv = ad_cost(img, img, d_max=3)
        assert np.all(cv.costs[:, 0, 1:] == 3.0)  # p - d off image
        assert np.all(cv.costs[:, 1, 2] == 3.0)

    def test_shape_mismatch(self):
        a = Image(np.zeros((2, 2, 1), dtype=np.float32))
        b = Image(np.zeros((2, 3, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="mismatch"):
            ad_cost(a, b, d_max=1)

    @pytest.mark.parametrize("d_max", [1, 16, 23])
    def test_matches_pixel_major_loop_bitwise(self, d_max):
        rng = np.random.default_rng(d_max)
        left = Image(rng.random((9, 20, 3)).astype(np.float32))
        right = Image(rng.random((9, 20, 3)).astype(np.float32))
        ldata, rdata = left.data.astype(np.float64), right.data.astype(np.float64)
        ref = np.full((9, 20, d_max), 3.0)
        for d in range(min(d_max, 20)):
            ref[:, d:, d] = np.abs(ldata[:, d:] - rdata[:, :20 - d]).sum(axis=2)
        costs = ad_cost(left, right, d_max=d_max).costs
        # disparity-major memory, (H, D, W), under the (H, W, D) view
        assert costs.transpose(0, 2, 1).flags.c_contiguous
        assert costs.tobytes() == ref.tobytes()


class TestAggregate:
    def test_forward_sweep_hand_unrolled(self):
        # single left-to-right sweep on a 1x4 row, d_max=2, P1=P2=1:
        # step penalty is 2, and each relax subtracts the predecessor minimum
        costs = np.array([[[1, 3], [4, 0], [0, 2], [5, 1]]], dtype=np.float64)
        params = SgmParams(p1=1, p2=1, d_max=2, directions=((0, 1),))
        agg = sgm_aggregate(CostVolume(costs), params)
        want = np.array([[[1, 3], [4, 2], [2, 2], [5, 1]]], dtype=np.float64)
        assert np.array_equal(agg.costs, want)

    def test_horizontal_pair_hand_unrolled(self):
        # both sweeps summed minus the duplicated data term
        costs = np.array([[[1, 3], [4, 0], [0, 2], [5, 1]]], dtype=np.float64)
        params = SgmParams(p1=1, p2=1, d_max=2, directions=HORIZONTAL_PAIR)
        agg = sgm_aggregate(CostVolume(costs), params)
        want = np.array([[[3, 3], [4, 2], [4, 2], [5, 1]]], dtype=np.float64)
        assert np.array_equal(agg.costs, want)

    def test_zero_penalties_scale_by_unpaired_direction_count(self):
        # with zero penalties every sweep collapses to the raw costs; each
        # opposed pair then contributes one copy after the data-term
        # subtraction, unpaired directions one copy each
        rng = np.random.default_rng(3)
        costs = rng.random((4, 5, 3))
        cv = CostVolume(costs)
        full = sgm_aggregate(cv, SgmParams(p1=0, p2=0, d_max=3))
        assert np.allclose(full.costs, 4 * costs)  # 8 directions, 4 pairs
        pair = sgm_aggregate(cv, SgmParams(p1=0, p2=0, d_max=3,
                                           directions=HORIZONTAL_PAIR))
        assert np.allclose(pair.costs, costs)
        single = sgm_aggregate(cv, SgmParams(p1=0, p2=0, d_max=3,
                                             directions=((0, 1),)))
        assert np.allclose(single.costs, costs)

    def test_single_pixel(self):
        cv = CostVolume(np.array([[[2.0, 5.0]]]))
        agg = sgm_aggregate(cv, SgmParams(p1=1, p2=2, d_max=2))
        assert np.allclose(agg.costs, 4 * cv.costs)  # 8 sweeps - 4 data terms

    def test_direction_order_invariance(self):
        rng = np.random.default_rng(9)
        cv = CostVolume(rng.random((5, 6, 4)))
        a = sgm_aggregate(cv, SgmParams(p1=0.1, p2=0.4, d_max=4,
                                        directions=DIRECTIONS_8))
        b = sgm_aggregate(cv, SgmParams(p1=0.1, p2=0.4, d_max=4,
                                        directions=tuple(reversed(DIRECTIONS_8))))
        assert np.array_equal(a.costs, b.costs)

    @pytest.mark.parametrize(
        "directions", [(d,) for d in DIRECTIONS_8] + [HORIZONTAL_PAIR, DIRECTIONS_8],
        ids=[f"{dy},{dx}" for dy, dx in DIRECTIONS_8] + ["pair", "all"])
    def test_matches_full_volume_sweeps_bitwise(self, directions):
        rng = np.random.default_rng(len(directions) * 10 + DIRECTIONS_8.index(directions[0]))
        # the last shape is narrower than the largest d_max
        for (h, w), d_max in itertools.product(((1, 1), (1, 9), (9, 1), (7, 9), (6, 4)),
                                               (1, 2, 5)):
            # quarter steps make ties between disparities and paths common
            costs = np.where(rng.random((h, w, d_max)) < 0.5,
                             rng.integers(0, 4, (h, w, d_max)) * 0.25,
                             rng.random((h, w, d_max)))
            cv = CostVolume(costs)
            for p1, p2 in ((0.1, 0.4), (0.25, 0.25), (0.0, 0.7)):
                params = SgmParams(p1=p1, p2=p2, d_max=d_max, directions=directions)
                got = sgm_aggregate(cv, params).costs
                want = sgm_reference.sgm_aggregate(cv, params).costs
                assert got.tobytes() == want.tobytes(), ((h, w), d_max, p1, p2)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 20)])
    @pytest.mark.parametrize("d_max", [1, 5])
    def test_any_memory_order_gives_the_same_bytes(self, shape, d_max):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] * 10 + d_max)
        costs = np.where(rng.random(shape + (d_max,)) < 0.5,
                         rng.integers(0, 4, shape + (d_max,)) * 0.25,
                         rng.random(shape + (d_max,)))
        big = np.zeros((2 * shape[0], 3 * shape[1], 2 * d_max))
        big[::2, ::3, ::2] = costs
        layouts = {
            "C": costs,
            "ad_cost": np.ascontiguousarray(costs.transpose(0, 2, 1)).transpose(0, 2, 1),
            "Fortran": np.asfortranarray(costs),
            "strided": big[::2, ::3, ::2],
        }
        params = SgmParams(p1=0.1, p2=0.4, d_max=d_max)
        want = sgm_reference.sgm_aggregate(CostVolume(costs), params).costs.tobytes()
        for name, layout in layouts.items():
            assert np.array_equal(layout, costs)
            got = sgm_aggregate(CostVolume(layout), params).costs
            assert got.tobytes() == want, name

    def test_dmax_mismatch(self):
        cv = CostVolume(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            sgm_aggregate(cv, SgmParams(p1=0, p2=0, d_max=4))


class TestWinnerTakesAll:
    def test_unique_argmin(self):
        cv = CostVolume(np.array([[[3.0, 1.0, 2.0]]]))
        assert winner_takes_all(cv).values[0, 0] == 1.0

    def test_tie_breaks_to_smaller(self):
        cv = CostVolume(np.array([[[1.0, 1.0, 2.0]]]))
        assert winner_takes_all(cv).values[0, 0] == 0.0

    def test_identical_pair_unique_texture_pixels(self):
        rng = np.random.default_rng(21)
        img = Image(rng.random((8, 10, 3)).astype(np.float32))
        cv = ad_cost(img, img, d_max=4)
        disp = winner_takes_all(cv)
        # brute-force per pixel: where d=0 is the strict minimizer, WTA must say 0
        strict = np.ones((8, 10), bool)
        for d in range(1, 4):
            strict &= cv.costs[:, :, d] > cv.costs[:, :, 0]
        assert np.all(disp.values[strict] == 0.0)


class TestEnergy:
    def test_constant_field_has_no_smoothness(self):
        rng = np.random.default_rng(2)
        costs = rng.random((3, 4, 3))
        labels = DepthMap(np.ones((3, 4), dtype=np.float32), kind="disparity")
        params = SgmParams(p1=5, p2=9, d_max=3)
        assert energy(labels, CostVolume(costs), params) == pytest.approx(
            costs[:, :, 1].sum()
        )

    def test_two_pixel_small_jump(self):
        costs = np.zeros((1, 2, 2))
        costs[0, 0] = [0.5, 2.0]
        costs[0, 1] = [3.0, 0.25]
        labels = DepthMap(np.array([[0.0, 1.0]], dtype=np.float32), kind="disparity")
        params = SgmParams(p1=5, p2=20, d_max=2)
        # both ordered neighbor pairs fire P1
        assert energy(labels, CostVolume(costs), params) == pytest.approx(0.5 + 0.25 + 2 * 5)

    def test_two_pixel_large_jump(self):
        costs = np.zeros((1, 2, 4))
        labels = DepthMap(np.array([[0.0, 3.0]], dtype=np.float32), kind="disparity")
        params = SgmParams(p1=5, p2=20, d_max=4)
        assert energy(labels, CostVolume(costs), params) == pytest.approx(40.0)

    def test_out_of_range_disparity(self):
        labels = DepthMap(np.array([[5.0]], dtype=np.float32), kind="disparity")
        with pytest.raises(ValueError):
            energy(labels, CostVolume(np.zeros((1, 1, 2))), SgmParams(p1=0, p2=0, d_max=2))


class TestScanlineExactness:
    def test_horizontal_pair_attains_brute_force_minimum(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            w = int(rng.integers(2, 9))
            d = int(rng.integers(2, 5))
            costs = rng.random((1, w, d))
            p1 = float(rng.choice([0.0, 1.0, 5.0]))
            p2 = float(rng.choice([v for v in (0.0, 1.0, 5.0) if v >= p1]))
            params = SgmParams(p1=p1, p2=p2, d_max=d, directions=HORIZONTAL_PAIR)
            cv = CostVolume(costs)
            wta = winner_takes_all(sgm_aggregate(cv, params))
            assert energy(wta, cv, params) == brute_force_min_energy(costs, p1, p2)


class TestMonotonicity:
    def test_sgm_energy_rarely_exceeds_raw_wta(self):
        rng = np.random.default_rng(77)
        violations = 0
        n_instances = 400
        for _ in range(n_instances):
            h, w = (int(v) for v in rng.integers(6, 11, size=2))
            d = int(rng.integers(2, 5))
            cv = CostVolume(rng.random((h, w, d)))
            params = SgmParams(p1=0.1, p2=0.5, d_max=d)
            e_sgm = energy(winner_takes_all(sgm_aggregate(cv, params)), cv, params)
            e_raw = energy(winner_takes_all(cv), cv, params)
            if e_sgm > e_raw + 1e-12:
                violations += 1
        assert violations <= 0.01 * n_instances


class TestMedianFilter:
    def test_constant_map_unchanged(self):
        dm = DepthMap(np.full((5, 5), 3.0, dtype=np.float32), kind="disparity")
        out = median_filter(dm, radius=1)
        assert np.array_equal(out.values, dm.values)
        assert out.mask.all()

    def test_spike_removed(self):
        values = np.full((5, 5), 2.0, dtype=np.float32)
        values[2, 2] = 9.0
        out = median_filter(DepthMap(values, kind="disparity"), radius=1)
        assert out.values[2, 2] == 2.0

    def test_fully_invalid_stays_invalid(self):
        dm = DepthMap(np.zeros((3, 3), dtype=np.float32),
                      np.zeros((3, 3), bool), kind="disparity")
        out = median_filter(dm, radius=1)
        assert not out.mask.any()

    def test_invalid_filled_when_half_window_valid(self):
        values = np.full((3, 3), 4.0, dtype=np.float32)
        mask = np.ones((3, 3), bool)
        mask[1, 1] = False
        out = median_filter(DepthMap(values, mask, kind="disparity"), radius=1)
        assert out.mask[1, 1] and out.values[1, 1] == 4.0

    def test_isolated_invalid_with_sparse_window_stays_invalid(self):
        mask = np.zeros((3, 3), bool)
        mask[0, 0] = True  # 1 valid donor out of 9 < half
        dm = DepthMap(np.full((3, 3), 2.0, dtype=np.float32), mask, kind="disparity")
        out = median_filter(dm, radius=1)
        assert not out.mask[1, 1]

    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_nanmedian_bitwise(self, radius):
        rng = np.random.default_rng(radius)
        for (h, w), invalid in itertools.product(((9, 11), (1, 7), (6, 1), (2, 2)),
                                                 (0.0, 0.1, 0.4, 0.8)):
            # whole disparities tie often; fractional ones make even-count
            # medians average two distinct values
            values = rng.integers(0, 6, (h, w)) + np.where(rng.random((h, w)) < 0.5, 0.0,
                                                           rng.random((h, w)))
            mask = rng.random((h, w)) >= invalid
            dmap = DepthMap(values.astype(np.float32), mask, kind="disparity")
            got = median_filter(dmap, radius)
            want = nanmedian_filter(dmap, radius)
            assert got.mask.tobytes() == want.mask.tobytes()
            assert got.values.tobytes() == want.values.tobytes()


class TestMatchPairBytes:
    def test_desk_scene_digest_pinned(self):
        # one scene at the desk config's shapes and stereo parameters; the
        # digests were taken from the stereo front end before its stages
        # were streamed, and pin its output bytes
        spec = SynthSceneSpec(128, 128, layer_disparities=(1, 5, 13), texture_density=1.0,
                              d_max=16, seed=3)
        left, right, _ = generate_stereogram(spec)
        disp = match_pair(left, right, SgmParams(p1=0.09, p2=0.72, d_max=16),
                          bilsub_params=BilSubParams(spatial_sigma=2.0, range_sigma=0.1,
                                                     radius=2),
                          median_radius=1)
        assert hashlib.sha256(disp.values.tobytes()).hexdigest() == (
            "b2c8ef078c2d15364c4edd0bfe448f120ceafd65f99ec85ccef482454c033581")
        assert hashlib.sha256(disp.mask.tobytes()).hexdigest() == (
            "111ce3c2a38d83a2e4706bde4abddd509d7f8248116c6832b06745bdc349e09f")


class TestMatchPairMemory:
    def test_peak_holds_at_most_three_cost_volumes(self):
        # the costs, the aggregated total and the E/W column copy; the slack
        # covers the images, the scan-line buffers and one block of columns
        width, height, d_max = 256, 48, 32
        spec = SynthSceneSpec(width, height, layer_disparities=(2, 9, 20),
                              texture_density=1.0, d_max=d_max, seed=4)
        left, right, _ = generate_stereogram(spec)
        volume = width * height * d_max * 8
        tracemalloc.start()
        try:
            match_pair(left, right, SgmParams.defaults(d_max=d_max),
                       bilsub_params=BilSubParams(radius=2), median_radius=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * volume, f"peak {peak / volume:.2f} cost volumes"


class TestPlantedRecovery:
    def test_two_layer_scenes_recovered(self):
        for seed in (5, 6, 7):
            spec = SynthSceneSpec(64, 64, layer_disparities=(1, 5),
                                  texture_density=0.6, d_max=8, seed=seed)
            left, right, gt = generate_stereogram(spec)
            params = SgmParams.defaults(channels=3, d_max=8)
            disp = match_pair(left, right, params, median_radius=1)
            sel = gt.mask & disp.mask
            rate = float(np.mean(np.abs(disp.values - gt.values)[sel] <= 1))
            assert rate >= 0.95

    def test_bilsub_front_end_still_recovers(self):
        spec = SynthSceneSpec(64, 64, layer_disparities=(2, 6),
                              texture_density=0.8, d_max=8, seed=13)
        left, right, gt = generate_stereogram(spec)
        disp = match_pair(left, right, SgmParams.defaults(channels=3, d_max=8),
                          bilsub_params=BilSubParams(radius=2), median_radius=1)
        sel = gt.mask & disp.mask
        assert float(np.mean(np.abs(disp.values - gt.values)[sel] <= 1)) >= 0.95


class TestParams:
    def test_penalty_ordering_enforced(self):
        with pytest.raises(ValueError):
            SgmParams(p1=2.0, p2=1.0, d_max=4)

    def test_directions_validated(self):
        with pytest.raises(ValueError):
            SgmParams(p1=0, p2=0, d_max=2, directions=((0, 2),))
        with pytest.raises(ValueError):
            SgmParams(p1=0, p2=0, d_max=2, directions=())

    def test_cost_volume_rejects_negative(self):
        with pytest.raises(ValueError):
            CostVolume(np.full((1, 1, 1), -0.5))
