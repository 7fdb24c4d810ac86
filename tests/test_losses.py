import numpy as np
import pytest

from gradcheck import gradients_close, numerical_gradient
from reldepth.binning import InfoGainMatrix, info_gain_matrix
from reldepth.losses import infogain_loss, ranking_loss, sigmoid, softmax, softplus


def random_pairs(rng, h, w, count, relations=(-1, 0, 1)):
    pairs = []
    while len(pairs) < count:
        a = tuple(int(v) for v in (rng.integers(0, h), rng.integers(0, w)))
        b = tuple(int(v) for v in (rng.integers(0, h), rng.integers(0, w)))
        if a != b:
            pairs.append((*a, *b, int(rng.choice(relations))))
    return pairs


class TestSoftmax:
    def test_two_zeros(self):
        assert np.array_equal(softmax(np.zeros(2)), [0.5, 0.5])

    def test_constant_vector_uniform(self):
        assert np.allclose(softmax(np.full(4, 3.7)), 0.25, atol=1e-15)

    def test_large_gap_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] >= 0.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(10, 7)) * 5
        assert np.allclose(softmax(z).sum(axis=-1), 1.0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.inf, 0.0]))


class TestRankingLoss:
    def test_equal_pair_at_minimum(self):
        z = np.zeros((1, 2))
        res = ranking_loss(z, [(0, 0, 0, 1, 0)])
        assert res.value == 0.0
        assert np.all(res.gradient == 0.0)

    def test_zero_margin_closer_pair(self):
        res = ranking_loss(np.zeros((1, 2)), [(0, 0, 0, 1, 1)])
        assert res.value == pytest.approx(np.log(2), abs=1e-12)
        assert res.gradient[0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert res.gradient[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_margin_two(self):
        z = np.array([[2.0, 0.0]])
        res = ranking_loss(z, [(0, 0, 0, 1, 1)])
        assert res.value == pytest.approx(np.log1p(np.exp(-2.0)), abs=1e-12)

    def test_huge_margin_stable(self):
        z = np.array([[1000.0, 0.0]])
        win = ranking_loss(z, [(0, 0, 0, 1, 1)])
        lose = ranking_loss(z, [(0, 0, 0, 1, -1)])
        assert win.value == pytest.approx(0.0, abs=1e-12)
        assert lose.value == pytest.approx(1000.0, rel=1e-12)

    def test_sum_versus_mean(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 4))
        pairs = random_pairs(rng, 4, 4, 6)
        raw = ranking_loss(z, pairs)
        mean = ranking_loss(z, pairs, mean=True)
        assert mean.value == pytest.approx(raw.value / 6, rel=1e-12)
        assert np.allclose(mean.gradient, raw.gradient / 6, rtol=1e-12)

    def test_shift_invariance_exact(self):
        # the loss depends only on score differences; with scores and shift on
        # a dyadic grid the shifted additions round to nothing, so equality
        # holds bitwise
        rng = np.random.default_rng(2)
        z = rng.integers(-8192, 8192, size=(5, 5)) / 1024.0
        pairs = random_pairs(rng, 5, 5, 12)
        a = ranking_loss(z, pairs)
        b = ranking_loss(z + 256.0, pairs)
        assert a.value == b.value
        assert np.array_equal(a.gradient, b.gradient)

    def test_shift_invariance_to_rounding(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(5, 5)) * 3
        pairs = random_pairs(rng, 5, 5, 12)
        a = ranking_loss(z, pairs)
        b = ranking_loss(z + 17.25, pairs)
        assert b.value == pytest.approx(a.value, rel=1e-12, abs=1e-12)
        assert np.allclose(a.gradient, b.gradient, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h, w = (int(v) for v in rng.integers(2, 9, size=2))
            z = rng.normal(size=(h, w)) * 2
            pairs = random_pairs(rng, h, w, int(rng.integers(3, 12)))
            res = ranking_loss(z, pairs)
            num = numerical_gradient(lambda x: ranking_loss(x, pairs).value, z.copy())
            assert gradients_close(res.gradient, num)

    def test_out_of_bounds_pair(self):
        with pytest.raises(ValueError):
            ranking_loss(np.zeros((2, 2)), [(0, 0, 9, 9, 1)])

    def test_empty_pairs(self):
        with pytest.raises(ValueError):
            ranking_loss(np.zeros((2, 2)), [])


def uniform_logit_case():
    gain = info_gain_matrix(2, 2.0)
    logits = np.zeros((1, 1, 2))
    labels = np.ones((1, 1), dtype=np.int64)
    mask = np.ones((1, 1), bool)
    return logits, labels, mask, gain


class TestInfogainLoss:
    def test_uniform_logits_closed_form(self):
        logits, labels, mask, gain = uniform_logit_case()
        res = infogain_loss(logits, labels, mask, gain)
        assert res.value == pytest.approx((1 + np.exp(-2.0)) * np.log(2.0), abs=1e-12)

    def test_identity_limit_matches_cross_entropy(self):
        rng = np.random.default_rng(4)
        for bins in (2, 10, 20):
            logits = rng.normal(size=(3, 5, bins))
            labels = rng.integers(1, bins + 1, size=(3, 5))
            mask = rng.random((3, 5)) < 0.8
            mask[0, 0] = True
            gain = info_gain_matrix(bins, 40.0)
            res = infogain_loss(logits, labels, mask, gain)
            p = softmax(logits)
            n = mask.sum()
            ce = -np.log(p[np.arange(3)[:, None], np.arange(5)[None, :], labels - 1])
            plain = float(ce[mask].sum() / n)
            assert res.value == pytest.approx(plain, abs=1e-10)

    def test_all_ones_gain_sums_every_channel(self):
        rng = np.random.default_rng(5)
        bins = 6
        logits = rng.normal(size=(4, 4, bins))
        labels = rng.integers(1, bins + 1, size=(4, 4))
        mask = rng.random((4, 4)) < 0.7
        mask[2, 2] = True
        gain = InfoGainMatrix(0.0, np.ones((bins, bins)))
        res = infogain_loss(logits, labels, mask, gain)
        direct = -np.log(softmax(logits)).sum(axis=-1)[mask].sum() / mask.sum()
        assert res.value == pytest.approx(float(direct), rel=1e-12)

    def test_masked_pixels_contribute_nothing(self):
        rng = np.random.default_rng(6)
        bins = 4
        logits = rng.normal(size=(3, 3, bins))
        labels = rng.integers(1, bins + 1, size=(3, 3))
        mask = np.zeros((3, 3), bool)
        mask[1, 1] = True
        gain = info_gain_matrix(bins, 1.0)
        base = infogain_loss(logits, labels, mask, gain)
        perturbed = logits.copy()
        perturbed[0, 0] += 100.0
        after = infogain_loss(perturbed, labels, mask, gain)
        assert after.value == base.value
        assert np.array_equal(after.gradient, base.gradient)
        assert np.all(base.gradient[~mask] == 0.0)

    def test_true_logit_increase_decreases_value(self):
        # holds whenever the gain row sum times the true-class probability
        # stays below 1; the near-identity regime guarantees it
        rng = np.random.default_rng(7)
        bins = 5
        gain = info_gain_matrix(bins, 40.0)
        logits = rng.normal(size=(2, 2, bins))
        labels = rng.integers(1, bins + 1, size=(2, 2))
        mask = np.ones((2, 2), bool)
        base = infogain_loss(logits, labels, mask, gain)
        bumped = logits.copy()
        bumped[0, 1, labels[0, 1] - 1] += 0.05
        assert infogain_loss(bumped, labels, mask, gain).value < base.value

    def test_confident_correct_pixel_tiny_loss_and_gradient(self):
        # one valid pixel, true logit 20 above the rest, near-identity gain:
        # value ~ 2e-20 and the true-channel gradient ~ -2e-20
        bins = 3
        gain = info_gain_matrix(bins, 40.0)
        logits = np.zeros((1, 1, bins))
        logits[0, 0, 1] = 20.0
        labels = np.full((1, 1), 2, dtype=np.int64)
        mask = np.ones((1, 1), bool)
        res = infogain_loss(logits, labels, mask, gain)
        off_diag = gain.weights[1].sum() - 1.0
        assert res.value < 1e-8 * (1.0 + off_diag) * 20.0
        assert abs(res.gradient[0, 0, 1]) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            h, w = (int(v) for v in rng.integers(2, 7, size=2))
            bins = int(rng.integers(2, 11))
            logits = rng.normal(size=(h, w, bins)) * 2
            labels = rng.integers(1, bins + 1, size=(h, w))
            mask = rng.random((h, w)) < 0.8
            mask[0, 0] = True
            gain = info_gain_matrix(bins, float(rng.uniform(0, 3)))
            res = infogain_loss(logits, labels, mask, gain)
            num = numerical_gradient(
                lambda x: infogain_loss(x, labels, mask, gain).value, logits.copy()
            )
            assert gradients_close(res.gradient, num)

    def test_dimension_mismatch(self):
        logits, labels, mask, _ = uniform_logit_case()
        with pytest.raises(ValueError):
            infogain_loss(logits, labels, mask, info_gain_matrix(3, 1.0))

    def test_zero_valid_pixels(self):
        logits, labels, _, gain = uniform_logit_case()
        with pytest.raises(ValueError):
            infogain_loss(logits, labels, np.zeros((1, 1), bool), gain)


class TestStableHelpers:
    def test_softplus_extremes(self):
        assert softplus(np.array([-1000.0]))[0] == 0.0
        assert softplus(np.array([1000.0]))[0] == 1000.0

    def test_sigmoid_extremes(self):
        assert sigmoid(np.array([-1000.0]))[0] == 0.0
        assert sigmoid(np.array([1000.0]))[0] == 1.0
