import copy
import hashlib
import json
import os
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import check_param_subset, gradients_close, numerical_gradient
from reldepth.binning import info_gain_matrix, make_bins
from reldepth.imagery import DepthMap, Image
from reldepth.losses import infogain_loss, ranking_loss
from reldepth.network import (
    AugmentConfig,
    ChannelNorm,
    CheckpointError,
    Conv2d,
    DepthNet,
    MaxPool2,
    NetConfig,
    ReLU,
    ResidualBlock,
    TrainSchedule,
    finetune_classification,
    finetune_regression,
    l2_regression_loss,
    load_checkpoint,
    map_pairs_to_grid,
    predict_depth,
    predict_relative,
    pretrain_ranking,
    save_checkpoint,
    stack_images,
)

TINY = NetConfig(stage_widths=(3, 4, 5), stage_blocks=(1, 1, 1), stage_strides=(1, 2, 2),
                 head_widths=(6,), head_mode="ranking", head_channels=1, seed=7)


def tiny_net(head_mode="ranking", head_channels=1, seed=7):
    cfg = NetConfig(stage_widths=(3, 4, 5), stage_blocks=(1, 1, 1),
                    stage_strides=(1, 2, 2), head_widths=(6,),
                    head_mode=head_mode, head_channels=head_channels, seed=seed)
    return DepthNet(cfg)


def _manifest_span(raw):
    (size,) = struct.unpack("<I", raw[8:12])
    return 12, 12 + size


def read_manifest(path):
    raw = path.read_bytes()
    start, end = _manifest_span(raw)
    return json.loads(raw[start:end])


def write_manifest(path, manifest):
    """Swap a checkpoint's manifest, keeping its payload bytes."""
    raw = path.read_bytes()
    start, end = _manifest_span(raw)
    blob = json.dumps(manifest).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[end:])


# (ksize, stride, pad) of every convolution DepthNet builds
CONV_SHAPES = [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)]


def _with_cin(shapes):
    """Each (ksize, stride, pad) with 3 and with 16 input channels; the
    3-channel cases keep their plain "k-s-p" ids."""
    return ([pytest.param(*shape, 3, id="-".join(map(str, shape))) for shape in shapes]
            + [pytest.param(*shape, 16, id="-".join(map(str, shape)) + "-cin16")
               for shape in shapes])


def _layouts(a):
    """The values of the (N, C, H, W) array a as C-contiguous NCHW, as an
    NCHW view of NHWC memory and as an NCHW view of CNHW memory."""
    return {
        "nchw": np.ascontiguousarray(a),
        "nhwc": np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
        "cnhw": np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
    }


def _close(a, b, rel):
    if rel == 0:
        return a.shape == b.shape and np.array_equal(a, b)
    return a.shape == b.shape and np.abs(a - b).max() <= rel * np.abs(b).max()


class TestLayers:
    def test_conv_delta_kernel_is_identity(self):
        conv = Conv2d(2, 2, 3, rng=np.random.default_rng(0))
        conv.weight.values[...] = 0.0
        for c in range(2):
            conv.weight.values[c, c, 1, 1] = 1.0
        conv.bias.values[...] = 0.0
        x = np.random.default_rng(1).random((2, 2, 6, 6))
        assert np.array_equal(conv.forward(x), x)

    def test_conv_constant_input_interior(self):
        conv = Conv2d(1, 1, 3, rng=np.random.default_rng(2))
        s = conv.weight.values.sum()
        conv.bias.values[...] = 0.0
        x = np.full((1, 1, 5, 5), 0.7)
        out = conv.forward(x)
        assert np.allclose(out[0, 0, 1:-1, 1:-1], s * 0.7, rtol=1e-12)

    def test_conv_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        conv = Conv2d(2, 3, 3, stride=2, rng=rng)
        x = rng.random((1, 2, 6, 6))
        dout_seed = rng.random((1, 3, 3, 3))

        def loss_for(x_arr):
            return float((conv.forward(x_arr) * dout_seed).sum())

        out = conv.forward(x)
        conv.weight.zero_grad()
        conv.bias.zero_grad()
        dx = conv.backward(dout_seed)
        assert gradients_close(dx, numerical_gradient(loss_for, x.copy()))
        num_w = numerical_gradient(
            lambda w: float((_conv_with_weight(conv, w, x) * dout_seed).sum()),
            conv.weight.values.copy(),
        )
        assert gradients_close(conv.weight.grad, num_w)

    @pytest.mark.parametrize("ksize,stride,pad,cin", _with_cin([(3, 1, 1), (1, 2, 0), (3, 2, 1)]))
    def test_conv_other_strides_match_finite_differences(self, ksize, stride, pad, cin):
        rng = np.random.default_rng(4)
        conv = Conv2d(cin, 2, ksize, stride=stride, pad=pad, rng=rng)
        conv.bias.values[...] = rng.random(2)
        x = rng.random((2, cin, 5, 6))
        dout_seed = rng.random(conv.forward(x).shape)
        conv.weight.zero_grad()
        conv.bias.zero_grad()
        dx = conv.backward(dout_seed)
        assert gradients_close(
            dx, numerical_gradient(lambda a: float((conv.forward(a) * dout_seed).sum()), x.copy())
        )
        num_w = numerical_gradient(
            lambda w: float((_conv_with_weight(conv, w, x) * dout_seed).sum()),
            conv.weight.values.copy(),
        )
        assert gradients_close(conv.weight.grad, num_w)
        assert np.allclose(conv.bias.grad, dout_seed.sum(axis=(0, 2, 3)), rtol=1e-12)

    @pytest.mark.parametrize("ksize,stride,pad,cin", _with_cin(CONV_SHAPES))
    def test_conv_forward_matches_nested_sum(self, ksize, stride, pad, cin):
        rng = np.random.default_rng(6)
        conv = Conv2d(cin, 4, ksize, stride=stride, pad=pad, rng=rng)
        conv.bias.values[...] = rng.standard_normal(4)
        x = rng.standard_normal((2, cin, 7, 10))
        ref = _conv_reference(x, conv.weight.values, conv.bias.values, stride, pad)
        out = conv.forward(x)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("ksize,stride,pad,cin", _with_cin(CONV_SHAPES))
    def test_conv_without_input_grad_gives_the_same_parameter_grads(
            self, ksize, stride, pad, cin):
        x = np.random.default_rng(9).standard_normal((2, cin, 7, 10))
        convs = [Conv2d(cin, 4, ksize, stride=stride, pad=pad, rng=np.random.default_rng(8),
                        input_grad=input_grad) for input_grad in (True, False)]
        dout = np.random.default_rng(10).standard_normal(convs[0].forward(x).shape)
        convs[1].forward(x)
        assert convs[0].backward(dout).any()
        dx = convs[1].backward(dout)
        # the callers that wrap backward read the returned array's shape
        assert dx.shape == x.shape and not dx.flags.writeable and not dx.any()
        for full, skipped in zip(*(conv.params() for conv in convs)):
            assert np.array_equal(full[1].grad, skipped[1].grad), full[0]

    def test_relu_backward_zeroes_dead_units(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0]])
        relu.forward(x)
        grads = relu.backward(np.ones_like(x))
        assert np.array_equal(grads, [[0.0, 1.0]])

    def test_maxpool_forward_and_routing(self):
        pool = MaxPool2()
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])
        dx = pool.backward(np.ones_like(out))
        assert dx.sum() == 4
        assert dx[0, 0, 1, 1] == 1.0

    def test_maxpool_ties_go_to_the_first_slot(self):
        # four windows whose first max sits in slot (0, 0), (0, 1), (1, 0)
        # and (1, 1); in the first three it ties with every later slot
        x = np.array([[1, 1, 0, 2, 0, 1, 0, 1],
                      [1, 1, 1, 2, 3, 3, 2, 5]], dtype=np.float64)[None, None]
        firsts = [(0, 0), (0, 3), (1, 4), (1, 7)]
        dout = np.array([[[[10.0, 20.0, 30.0, 40.0]]]])
        for name, arr in _layouts(x).items():
            pool = MaxPool2()
            out = pool.forward(arr)
            assert np.array_equal(out, [[[[1, 2, 3, 5]]]]), name
            dx = pool.backward(dout)
            expected = np.zeros_like(x)
            for (y, x_), g in zip(firsts, dout.ravel()):
                expected[0, 0, y, x_] = g
            assert np.array_equal(dx, expected), name

    @pytest.mark.parametrize("field, value", [
        ("stage_widths", (0, 4, 5)), ("stage_blocks", (1, 0, 1)),
        ("stage_strides", (0, 2, 2)), ("head_widths", (6, 0)),
    ])
    def test_net_config_rejects_sizes_below_one(self, field, value):
        with pytest.raises(ValueError, match=f"every value in {field} must be >= 1"):
            replace(TINY, **{field: value})

    def test_net_config_rejects_no_stages_and_a_negative_seed(self):
        with pytest.raises(ValueError, match="at least one stage"):
            NetConfig(stage_widths=(), stage_blocks=(), stage_strides=())
        with pytest.raises(ValueError, match="seed must be >= 0"):
            NetConfig(seed=-1)
        # no head layers is a valid net
        assert DepthNet(NetConfig(stage_widths=(3,), stage_blocks=(1,), stage_strides=(1,),
                                  head_widths=())).config.total_stride == 2

    def test_maxpool_needs_even_dims(self):
        with pytest.raises(ValueError):
            MaxPool2().forward(np.zeros((1, 1, 3, 4)))

    def test_channel_norm_standardizes_first_batch(self):
        norm = ChannelNorm(3)
        rng = np.random.default_rng(4)
        x = rng.random((2, 3, 5, 5)) * 4 + 1
        out = norm.forward(x)
        assert norm.calibrated
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)
        # later batches reuse the stored statistics
        y = rng.random((2, 3, 5, 5)) * 10
        expected = (y - norm.mu[None, :, None, None]) / norm.sigma[None, :, None, None]
        assert np.allclose(norm.forward(y), expected)


class TestLayoutInvariance:
    """Each layer gives the same outputs and gradients whether its input and
    upstream gradient are C-contiguous NCHW or NCHW views of NHWC or CNHW
    memory."""

    def _check(self, make, x, rel):
        dout = np.random.default_rng(11).standard_normal(make().forward(x).shape)
        results = {}
        for name, arr in _layouts(x).items():
            layer = make()
            out = layer.forward(arr)
            dx = layer.backward(_layouts(dout)[name])
            results[name] = [out, dx] + [t.grad for _, t in layer.params()]
        for name in ("nhwc", "cnhw"):
            for got, want in zip(results[name], results["nchw"]):
                assert _close(got, want, rel), name

    @pytest.mark.parametrize("ksize,stride,pad,cin", _with_cin(CONV_SHAPES))
    def test_conv(self, ksize, stride, pad, cin):
        def make():
            conv = Conv2d(cin, 5, ksize, stride=stride, pad=pad, rng=np.random.default_rng(1))
            conv.bias.values[...] = np.arange(5) * 0.1
            return conv

        x = np.random.default_rng(2).standard_normal((2, cin, 6, 10))
        # the 1x1 stride-2 projection only copies and runs the same GEMMs
        self._check(make, x, 0 if (ksize, stride) == (1, 2) else 1e-12)

    def test_channel_norm(self):
        x = np.random.default_rng(3).standard_normal((3, 4, 6, 8)) * 3 + 1

        def make():
            norm = ChannelNorm(4)
            norm.gamma.values[...] = [0.5, 1.0, 1.5, 2.0]
            norm.beta.values[...] = [-1.0, 0.0, 1.0, 2.0]
            return norm

        self._check(make, x, 1e-12)

    def test_relu(self):
        self._check(ReLU, np.random.default_rng(4).standard_normal((2, 3, 4, 6)), 0)

    def test_maxpool(self):
        x = np.random.default_rng(5).integers(0, 4, (2, 3, 4, 6)).astype(np.float64)
        self._check(MaxPool2, x, 0)


def _conv_reference(x, weight, bias, stride, pad):
    """Direct nested sum over output pixels of the (N, C, H, W) convolution."""
    n, _, h, w = x.shape
    cout, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    out = np.empty((n, cout, out_h, out_w))
    for b in range(n):
        for o in range(cout):
            for y in range(out_h):
                for x_ in range(out_w):
                    patch = xp[b, :, y * stride:y * stride + k, x_ * stride:x_ * stride + k]
                    out[b, o, y, x_] = bias[o] + (patch * weight[o]).sum()
    return out


def _conv_with_weight(conv, w, x):
    saved = conv.weight.values
    conv.weight.values = w
    out = conv.forward(x)
    conv.weight.values = saved
    return out


class TestResidualBlock:
    def test_zero_branch_identity_shortcut(self):
        rng = np.random.default_rng(5)
        block = ResidualBlock(4, 4, stride=1, rng=rng)
        block.conv1.weight.values[...] = 0.0
        block.conv1.bias.values[...] = 0.0
        block.conv2.weight.values[...] = 0.0
        block.conv2.bias.values[...] = 0.0
        x = rng.random((2, 4, 6, 6))
        assert np.array_equal(block.forward(x), x)

    def test_zero_branch_identity_projection(self):
        rng = np.random.default_rng(6)
        block = ResidualBlock(4, 4, stride=1, rng=rng)
        for conv in (block.conv1, block.conv2):
            conv.weight.values[...] = 0.0
            conv.bias.values[...] = 0.0
        block.projection = Conv2d(4, 4, 1, stride=1, pad=0, rng=rng)
        block.projection.weight.values[...] = 0.0
        for c in range(4):
            block.projection.weight.values[c, c, 0, 0] = 1.0
        block.projection.bias.values[...] = 0.0
        x = rng.random((1, 4, 4, 4))
        assert np.allclose(block.forward(x), x, rtol=1e-15)

    def test_identity_trunk_through_block_chain(self):
        rng = np.random.default_rng(7)
        blocks = [ResidualBlock(3, 3, 1, rng) for _ in range(3)]
        for b in blocks:
            for conv in (b.conv1, b.conv2):
                conv.weight.values[...] = 0.0
                conv.bias.values[...] = 0.0
        x = rng.random((1, 3, 8, 8))
        out = x
        for b in blocks:
            out = b.forward(out)
        assert np.array_equal(out, x)

    def test_projection_present_exactly_when_needed(self):
        rng = np.random.default_rng(8)
        assert ResidualBlock(4, 4, 1, rng).projection is None
        assert ResidualBlock(4, 8, 1, rng).projection is not None
        assert ResidualBlock(4, 4, 2, rng).projection is not None

    def test_strided_block_shapes(self):
        rng = np.random.default_rng(9)
        block = ResidualBlock(3, 6, stride=2, rng=rng)
        out = block.forward(rng.random((2, 3, 8, 8)))
        assert out.shape == (2, 6, 4, 4)
        dx = block.backward(np.ones_like(out))
        assert dx.shape == (2, 3, 8, 8)


def full_parameter_gradient_check(net, loss_from_scores, input_shape, seed):
    """Exhaustive finite-difference check of every parameter coordinate."""
    rng = np.random.default_rng(seed)
    x = rng.random(input_shape)
    net.forward(x)  # calibrate normalization statistics once

    def current_loss():
        return loss_from_scores(net.forward(x)).value

    res = loss_from_scores(net.forward(x))
    net.zero_grad()
    if net.config.head_channels == 1:
        dout = res.gradient[None, None]
    else:
        dout = np.moveaxis(res.gradient, -1, 0)[None]
    net.backward(dout)

    from gradcheck import coordinate_check

    for name, tensor in net.named_params():
        flat = tensor.values.ravel()
        gflat = tensor.grad.ravel()
        for ci in range(flat.size):
            bad = coordinate_check(current_loss, flat, ci, gflat[ci])
            assert bad is None, f"{name}[{ci}]: analytic vs numeric {bad}"


class TestWholeNetGradients:
    def test_backward_skips_the_image_gradient(self):
        net = tiny_net()
        x = np.random.default_rng(13).random((2, 3, 16, 16))
        dx = net.backward(np.ones_like(net.forward(x)))
        assert dx.shape == x.shape and not dx.any()
        assert any(t.grad.any() for _, t in net.named_params())

    def test_ranking_loss_every_parameter(self):
        net = tiny_net()
        pairs = [(0, 0, 1, 1, 1), (0, 1, 1, 0, -1), (1, 1, 0, 1, 0)]
        full_parameter_gradient_check(
            net, lambda out: ranking_loss(out[0, 0], pairs), (1, 3, 16, 16), seed=10
        )

    def test_infogain_loss_every_parameter(self):
        bins = 4
        net = tiny_net(head_mode="classification", head_channels=bins)
        gain = info_gain_matrix(bins, 2.0)
        rng = np.random.default_rng(11)
        labels = rng.integers(1, bins + 1, size=(2, 2))
        mask = np.array([[True, False], [True, True]])
        full_parameter_gradient_check(
            net,
            lambda out: infogain_loss(out[0].transpose(1, 2, 0), labels, mask, gain),
            (1, 3, 16, 16), seed=12,
        )

    def test_sampled_seeds_both_losses(self):
        # a light sweep over several seeds; the acceptance suite runs 100
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            net = tiny_net(seed=seed)
            x = rng.random((1, 3, 16, 16))
            pairs = [(0, 0, 1, 1, 1), (1, 0, 0, 1, 0)]
            net.forward(x)

            def loss():
                return ranking_loss(net.forward(x)[0, 0], pairs).value

            res = ranking_loss(net.forward(x)[0, 0], pairs)
            net.zero_grad()
            dout = np.zeros((1, 1, 2, 2))
            dout[0, 0] = res.gradient
            net.backward(dout)
            bad = check_param_subset(loss, [t for _, t in net.named_params()], rng,
                                     coords_per_tensor=2)
            assert bad is None, f"seed {seed}: {bad}"


class TestL2Loss:
    def test_zero_at_identity(self):
        pred = np.array([[1.0, 2.0]])
        res = l2_regression_loss(pred, pred.copy(), np.ones_like(pred, dtype=bool))
        assert res.value == 0.0
        assert np.all(res.gradient == 0.0)

    def test_single_pixel_closed_form(self):
        res = l2_regression_loss(np.array([[3.0]]), np.array([[1.0]]),
                                 np.array([[True]]))
        assert res.value == 4.0
        assert res.gradient[0, 0] == 4.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        pred = rng.normal(size=(5, 6))
        target = rng.normal(size=(5, 6))
        mask = rng.random((5, 6)) < 0.7
        mask[0, 0] = True
        res = l2_regression_loss(pred, target, mask)
        num = numerical_gradient(
            lambda p: l2_regression_loss(p, target, mask).value, pred.copy()
        )
        assert gradients_close(res.gradient, num)

    def test_masked_pixels_ignored(self):
        pred = np.array([[1.0, 50.0]])
        target = np.array([[1.0, 0.0]])
        mask = np.array([[True, False]])
        assert l2_regression_loss(pred, target, mask).value == 0.0

    def test_zero_valid_error(self):
        with pytest.raises(ValueError):
            l2_regression_loss(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2), bool))


def overfit_sample(seed=21, size=32):
    rng = np.random.default_rng(seed)
    img = Image(rng.random((size, size, 3)).astype(np.float32))
    values = np.full((size, size), 4.0, dtype=np.float32)
    values[:, size // 2:] = 16.0
    depth = DepthMap(values, kind="depth")
    return img, depth


class TestTraining:
    def test_zero_learning_rate_is_identity(self):
        net = tiny_net()
        img, _ = overfit_sample()
        pairs = [(0, 0, 20, 20, 1)]
        before = {n: t.values.copy() for n, t in net.named_params()}
        sched = TrainSchedule(batch_size=1, learning_rate=0.0, total_iterations=5)
        pretrain_ranking(net, [(img, pairs)], sched, seed=1)
        for n, t in net.named_params():
            assert np.array_equal(before[n], t.values), n

    def test_same_seed_identical_trajectories(self):
        img, _ = overfit_sample()
        pairs = [(0, 0, 20, 20, 1), (8, 8, 28, 2, -1)]
        sched = TrainSchedule(batch_size=2, learning_rate=1e-4, total_iterations=8)
        h1 = pretrain_ranking(tiny_net(), [(img, pairs)], sched, seed=5)
        h2 = pretrain_ranking(tiny_net(), [(img, pairs)], sched, seed=5)
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]

    def test_overfit_single_image_ranking(self):
        from reldepth.imagery import SynthSceneSpec, generate_stereogram
        from reldepth.ordinal import PairSampleConfig, sample_pairs

        spec = SynthSceneSpec(width=32, height=32, layer_disparities=(2, 10),
                              texture_density=1.0, d_max=16, seed=300)
        left, _, gt = generate_stereogram(spec)
        sampled = sample_pairs(gt, PairSampleConfig(count=40, eq_threshold=0.5, seed=4))
        pairs = [p for p in sampled if map_pairs_to_grid([p], 8)][:10]
        assert len(pairs) == 10
        net = tiny_net(seed=31)
        sched = TrainSchedule(batch_size=1, learning_rate=5e-4,
                              total_iterations=200, decay_iterations=(150,))
        hist = pretrain_ranking(net, [(left, pairs)], sched, seed=32)
        assert hist[-1]["loss"] < 0.02 * hist[0]["loss"]

    def test_loss_trend_windows_non_increasing(self):
        rng = np.random.default_rng(33)
        img, depth = overfit_sample(33)
        pairs = []
        while len(pairs) < 12:
            a = tuple(int(v) for v in rng.integers(0, 32, 2))
            b = tuple(int(v) for v in rng.integers(0, 32, 2))
            if a != b and (a[1] // 16) != (b[1] // 16):
                vi, vj = depth.values[a], depth.values[b]
                pairs.append((*a, *b, 1 if vi < vj else -1))
        net = tiny_net(seed=34)
        sched = TrainSchedule(batch_size=1, learning_rate=2e-4, total_iterations=200)
        hist = pretrain_ranking(net, [(img, pairs)], sched, seed=35)
        losses = np.array([r["loss"] for r in hist])
        medians = [np.median(losses[i * 50:(i + 1) * 50]) for i in range(4)]
        assert all(m2 <= m1 for m1, m2 in zip(medians, medians[1:]))

    def test_finetune_classification_overfits(self):
        from reldepth.imagery import SynthSceneSpec, disparity_to_depth, generate_stereogram
        from reldepth.metrics import evaluate

        scheme = make_bins(2.0, 40.0, 8)
        gain = info_gain_matrix(8, 2.0)
        data = []
        for s in (40, 41, 42, 43):
            spec = SynthSceneSpec(width=96, height=96, layer_disparities=(2, 10),
                                  texture_density=1.0, d_max=16, seed=s)
            left, _, gt = generate_stereogram(spec)
            data.append((left, disparity_to_depth(gt, 32.0)))
        cfg = NetConfig(stage_widths=(6, 8, 12), stage_blocks=(1, 1, 1),
                        stage_strides=(1, 2, 2), head_widths=(12,),
                        head_mode="classification", head_channels=8, seed=44)
        net = DepthNet(cfg)
        sched = TrainSchedule(batch_size=2, learning_rate=5e-3,
                              total_iterations=500, decay_iterations=(350,))
        hist = finetune_classification(net, data, scheme, gain, sched, seed=45)
        assert hist[-1]["loss"] < 0.5 * hist[0]["loss"]
        rates = [evaluate(predict_depth(net, img, scheme), depth).delta1
                 for img, depth in data]
        assert np.mean(rates) >= 0.90

    def test_alpha_zero_equals_all_ones_gain(self):
        scheme = make_bins(2.0, 40.0, 6)
        from reldepth.binning import InfoGainMatrix
        g1 = info_gain_matrix(6, 0.0)
        g2 = InfoGainMatrix(0.0, np.ones((6, 6)))
        data = [overfit_sample(50)]
        sched = TrainSchedule(batch_size=1, learning_rate=1e-3, total_iterations=10)
        h1 = finetune_classification(tiny_net(seed=51), data, scheme, g1, sched, seed=52)
        h2 = finetune_classification(tiny_net(seed=51), data, scheme, g2, sched, seed=52)
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]

    def test_fully_masked_sample_contributes_nothing(self):
        scheme = make_bins(2.0, 40.0, 6)
        gain = info_gain_matrix(6, 2.0)
        img, depth = overfit_sample(60)
        masked = DepthMap(depth.values, np.zeros_like(depth.mask), kind="depth")
        net = tiny_net(head_mode="classification", head_channels=6, seed=61)
        sched = TrainSchedule(batch_size=1, learning_rate=1e-3, total_iterations=1)
        # batch of one fully masked sample: loss 0, parameters untouched
        before = {n: t.values.copy() for n, t in net.named_params()}
        hist = finetune_classification(net, [(img, masked)], scheme, gain, sched, seed=62)
        assert hist[0]["loss"] == 0.0
        for n, t in net.named_params():
            assert np.array_equal(before[n], t.values), n

    def test_finetune_regression_runs_and_descends(self):
        data = [overfit_sample(s) for s in (70, 71)]
        net = tiny_net(seed=72)
        sched = TrainSchedule(batch_size=2, learning_rate=5e-3, total_iterations=150)
        hist = finetune_regression(net, data, sched, seed=73)
        assert hist[-1]["loss"] < hist[0]["loss"]

    def test_augmented_finetune_runs(self):
        scheme = make_bins(2.0, 40.0, 6)
        gain = info_gain_matrix(6, 2.0)
        data = [overfit_sample(80)]
        net = tiny_net(seed=81)
        sched = TrainSchedule(batch_size=2, learning_rate=1e-3, total_iterations=5)
        finetune_classification(net, data, scheme, gain, sched, seed=82,
                                augment_cfg=AugmentConfig(scale_range=(1.0, 1.3),
                                                          flip_prob=0.5))

    def test_trainer_rejects_downscale_augment(self):
        with pytest.raises(ValueError):
            AugmentConfig(scale_range=(0.5, 1.0))

    def test_gradient_clipping_bounds_the_step(self):
        img, _ = overfit_sample()
        pairs = [(0, 0, 20, 20, 0)]
        sched = TrainSchedule(batch_size=1, learning_rate=1.0, total_iterations=1)
        clipped = tiny_net(seed=90)
        free = tiny_net(seed=90)
        pretrain_ranking(clipped, [(img, pairs)], sched, seed=3, clip_norm=1e-3)
        before = dict(tiny_net(seed=90).named_params())
        moved = np.sqrt(sum(
            float(((t.values - before[n].values) ** 2).sum())
            for n, t in clipped.named_params()
        ))
        # one unit-lr step under a 1e-3 norm clip moves at most that far
        assert moved <= 1e-3 + 1e-9
        pretrain_ranking(free, [(img, pairs)], sched, seed=3)
        moved_free = np.sqrt(sum(
            float(((t.values - before[n].values) ** 2).sum())
            for n, t in free.named_params()
        ))
        assert moved_free > moved

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            pretrain_ranking(tiny_net(), [], TrainSchedule(total_iterations=1), seed=0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(decay_iterations=(5, 5), total_iterations=10)
        with pytest.raises(ValueError):
            TrainSchedule(decay_iterations=(10,), total_iterations=10)
        # a negative factor would make the learning rate negative, so SGD
        # would climb the loss
        with pytest.raises(ValueError, match="decay factor must be >= 0"):
            TrainSchedule(decay_iterations=(1,), total_iterations=10, decay_factor=-1.0)
        sched = TrainSchedule(learning_rate=1.0, total_iterations=10,
                              decay_iterations=(2, 6), decay_factor=0.5)
        assert sched.lr_at(0) == 1.0
        assert sched.lr_at(2) == 0.5
        assert sched.lr_at(7) == 0.25


def trainer_case(name, samples=1):
    """A net that already has the trainer's head, and train(net, schedule,
    **kwargs) running that trainer, seed 1, on the 32x32 images of
    trainer_images(samples)."""
    images, depth = trainer_images(samples), overfit_sample()[1]
    if name == "ranking":
        pairs = [(0, 0, 20, 20, 1), (8, 8, 28, 2, -1)]
        return tiny_net(), lambda net, sched, **kw: pretrain_ranking(
            net, [(img, pairs) for img in images], sched, seed=1, **kw)
    dataset = [(img, depth) for img in images]
    if name == "classification":
        scheme, gain = make_bins(2.0, 40.0, 6), info_gain_matrix(6, 2.0)
        return tiny_net("classification", 6), lambda net, sched, **kw: finetune_classification(
            net, dataset, scheme, gain, sched, seed=1, **kw)
    return tiny_net("regression", 1), lambda net, sched, **kw: finetune_regression(
        net, dataset, sched, seed=1, **kw)


def trainer_images(samples):
    return [overfit_sample(seed=21 + i)[0] for i in range(samples)]


def first_batch(images, batch_size, seed=1):
    """The images of the first batch a trainer draws, seed given, from a
    dataset of these images when it does not augment."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    return stack_images([images[i] for i in rng.integers(0, len(images), size=batch_size)])


TRAINERS = ("ranking", "classification", "regression")


@pytest.mark.parametrize("name", TRAINERS)
class TestTrainingLoop:
    def test_nan_weight_reports_divergence(self, name):
        net, train = trainer_case(name)
        _, stem = next(iter(net.named_params()))
        stem.values[...] = np.nan
        with pytest.raises(ValueError, match="training diverged at iteration 0"):
            train(net, TrainSchedule(batch_size=1, total_iterations=2))

    def test_resume_runs_the_remaining_iterations(self, name):
        net, train = trainer_case(name)
        sched = TrainSchedule(batch_size=1, learning_rate=1e-3, total_iterations=5,
                              decay_iterations=(3,), decay_factor=0.5)
        hist = train(net, sched, start_iteration=2)
        assert [r["iter"] for r in hist] == [2, 3, 4]
        assert [r["lr"] for r in hist] == [sched.lr_at(i) for i in (2, 3, 4)]

    @pytest.mark.parametrize("start", (5, 8))
    def test_resume_at_or_past_the_end_changes_nothing(self, name, start):
        net, train = trainer_case(name)
        before = {n: t.values.copy() for n, t in net.named_params()}
        sched = TrainSchedule(batch_size=1, learning_rate=1e-3, total_iterations=5)
        assert train(net, sched, start_iteration=start) == []
        for n, t in net.named_params():
            assert np.array_equal(before[n], t.values), n


# bench/replay.py times a traced run by swapping these names of the training
# module for timed wrappers, so the trainers must call through them
HOOKED = {
    "ranking": {"stack_images", "ranking_loss", "map_pairs_to_grid"},
    "classification": {"stack_images", "infogain_loss", "depth_to_bin", "augment"},
    "regression": {"stack_images", "augment"},
}


@pytest.mark.parametrize("name", TRAINERS)
def test_trainers_call_the_benchmark_hook_names(name, monkeypatch):
    from reldepth.network import training

    hooks = set().union(*HOOKED.values())
    assert hooks == {"stack_images", "ranking_loss", "infogain_loss", "depth_to_bin",
                     "augment", "map_pairs_to_grid"}
    called = set()
    for hook in hooks:
        def counted(*args, _hook=hook, _fn=getattr(training, hook), **kwargs):
            called.add(_hook)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(training, hook, counted)
    net, train = trainer_case(name)
    kwargs = {} if name == "ranking" else {"augment_cfg": AugmentConfig()}
    assert len(train(net, TrainSchedule(batch_size=1, total_iterations=1), **kwargs)) == 1
    assert called == HOOKED[name]


@pytest.mark.parametrize("name", ["classification", "regression"])
def test_each_share_resamples_only_its_own_samples(name, monkeypatch):
    from reldepth import workers
    from reldepth.network import training

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    shares = 2 if workers._openblas_threads() is not None else 1
    calls = []

    def counted(*args, _fn=training.augment, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)
    monkeypatch.setattr(training, "augment", counted)
    net, train = trainer_case(name)
    train(net, TrainSchedule(batch_size=4, total_iterations=3),
          augment_cfg=AugmentConfig(scale_range=(1.0, 1.3)))
    # in the calibration pass and in each of the 3 iterations the parent
    # resamples only its share of the batch, the worker's share in the worker
    assert len(calls) == 4 * len(range(0, 4, shares))


@pytest.mark.parametrize("cpus", (1, 2, 3))
@pytest.mark.parametrize("name", TRAINERS)
@pytest.mark.parametrize("fresh", (True, False), ids=("fresh", "re-headed"))
def test_norms_calibrate_as_in_a_whole_batch_forward(name, fresh, cpus, monkeypatch):
    """The norms a trainer calibrates, every norm of a fresh net or the one
    feeding a new head, take the bytes of one whole-batch forward's
    statistics on any core count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    net, train = trainer_case(name, samples=3)
    if not fresh:
        net.forward(np.random.default_rng(0).random((2, 3, 32, 32)))
        net.re_head(net.config.head_mode, net.config.head_channels)
    reference = copy.deepcopy(net)
    reference.forward(first_batch(trainer_images(3), 4))
    train(net, TrainSchedule(batch_size=4, total_iterations=1))
    norms = dict(net.named_norms())
    assert len(norms) == 8
    for norm_name, norm in reference.named_norms():
        assert norms[norm_name].mu.tobytes() == norm.mu.tobytes(), norm_name
        assert norms[norm_name].sigma.tobytes() == norm.sigma.tobytes(), norm_name


def test_no_process_runs_a_whole_batch_pass(monkeypatch):
    """With a worker per share, calibrating a fresh net holds no more of the
    batch in the parent than a whole-batch forward of that net would."""
    from reldepth import workers

    if workers._openblas_threads() is None:
        pytest.skip("without the BLAS thread setter training runs in one process")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    # images large and channels few enough that activations outweigh the
    # per-sample gradient copies the parent holds for each step
    images = [overfit_sample(seed=21 + i, size=96)[0] for i in range(4)]
    pairs = [(0, 0, 40, 40, 1), (8, 8, 56, 2, -1)]
    config = NetConfig(stage_widths=(8, 16, 32), head_widths=(32, 16), seed=1)
    sched = TrainSchedule(batch_size=4, learning_rate=1e-3, total_iterations=1)
    peaks = []
    for run in (lambda: DepthNet(config).forward(first_batch(images, 4)),
                lambda: pretrain_ranking(DepthNet(config), [(img, pairs) for img in images],
                                         sched, seed=1)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    whole_batch_forward, training = peaks
    assert training < whole_batch_forward


def _holding_a_cache(net):
    return [name for name, leaf in net._leaves() if leaf._cache is not None]


class TestSavedActivations:
    def test_backward_drops_every_cache(self):
        net = tiny_net()
        out = net.forward(np.random.default_rng(0).random((2, 3, 16, 16)))
        assert len(_holding_a_cache(net)) == len(list(net._leaves()))
        net.backward(np.ones_like(out))
        assert _holding_a_cache(net) == []

    def test_forward_without_keep_saves_nothing_and_gives_the_same_bytes(self):
        net = tiny_net()
        x = np.random.default_rng(0).random((2, 3, 16, 16))
        kept = net.forward(x)
        assert net.forward(x, keep=False).tobytes() == kept.tobytes()
        assert _holding_a_cache(net) == []

    def test_a_sample_with_nothing_to_score_saves_nothing(self):
        img, depth = overfit_sample(60)
        masked = DepthMap(depth.values, np.zeros_like(depth.mask), kind="depth")
        net = tiny_net("classification", 6, seed=61)
        sched = TrainSchedule(batch_size=1, learning_rate=1e-3, total_iterations=1)
        finetune_classification(net, [(img, masked)], make_bins(2.0, 40.0, 6),
                                info_gain_matrix(6, 2.0), sched, seed=62)
        assert _holding_a_cache(net) == []

    @pytest.mark.parametrize("mode", ["ranking", "classification", "regression"])
    def test_predictions_save_nothing(self, mode):
        scheme = make_bins(1.0, 16.0, 4)
        net = tiny_net(mode, 4 if mode == "classification" else 1)
        img = Image(np.random.default_rng(93).random((16, 16, 3)).astype(np.float32))
        net.forward(stack_images([img]))  # caches a prediction must not leave behind
        if mode == "ranking":
            predict_relative(net, img)
        else:
            predict_depth(net, img, scheme)
        assert _holding_a_cache(net) == []


def test_training_holds_one_sample_of_activations(monkeypatch):
    """A desk-width pretrain on 64x64 images over 2 shares peaks, in the
    parent, below one sample's forward and backward run on its own plus the
    parameter-sized buffers the loop holds beside it: no activations from an
    earlier sample or from the calibration pass are left over."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    config = NetConfig(stage_widths=(16, 32, 64), head_widths=(64, 32), seed=1)
    images = [overfit_sample(seed=21 + i, size=64)[0] for i in range(4)]
    pairs = [(0, 0, 40, 40, 1), (8, 8, 56, 2, -1)]
    x, grid_pairs = stack_images(images[:1]), map_pairs_to_grid(pairs, config.total_stride)
    net, fresh = DepthNet(config), DepthNet(config)

    def one_sample():
        net.backward(ranking_loss(net.forward(x)[0, 0], grid_pairs).gradient[None, None])

    one_sample()  # calibrates the norms
    sched = TrainSchedule(batch_size=4, learning_rate=1e-3, total_iterations=2)
    peaks = []
    for run in (one_sample,
                lambda: pretrain_ranking(fresh, [(img, pairs) for img in images], sched, seed=1)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_sample_peak, training = peaks
    param_bytes = sum(t.values.nbytes for _, t in fresh.named_params())
    # while the parent runs one of its samples it also holds two
    # parameter-sized buffers: the grad slots (the last step's sums) and this
    # step's running sums, with no earlier sample's gradients left beside
    # them; half a buffer more covers the batch's images, pair grids and
    # pickles
    assert training < one_sample_peak + 2.5 * param_bytes


def test_convs_see_the_benchmark_shapes():
    """bench/replay.py:_conv_cost reads (n, cin, h, w) and (n, cout, oh, ow)
    from the shapes each Conv2d's forward and backward take and return, so
    every conv of the desk net must pass 4-D arrays with channels on axis 1,
    whatever memory lies under them."""
    net = DepthNet(NetConfig(stage_widths=(16, 32, 64), head_widths=(64, 32), seed=1))
    seen = []
    for name, leaf in net._leaves():
        if isinstance(leaf, Conv2d):
            for method in ("forward", "backward"):
                def recorded(arr, _inner=getattr(leaf, method), _key=(name, leaf, method)):
                    out = _inner(arr)
                    seen.append((_key, arr.shape, out.shape))
                    return out
                setattr(leaf, method, recorded)
    x = np.random.default_rng(0).random((2, 3, 16, 16))
    net.backward(np.ones_like(net.forward(x)))
    assert len(seen) == 2 * sum(isinstance(leaf, Conv2d) for _, leaf in net._leaves())
    for (name, conv, method), arg, out in seen:
        x_shape, y_shape = (arg, out) if method == "forward" else (out, arg)
        assert len(x_shape) == len(y_shape) == 4, name
        assert (x_shape[0], x_shape[1]) == (2, conv.in_channels), name
        assert (y_shape[0], y_shape[1]) == (2, conv.out_channels), name


def test_pair_sets_meet_the_benchmark_contract(tmp_path):
    """bench/replay.py takes len() of pair sets, sums p.r over the items they
    yield into JSON span attributes, and hands whdr a list of those items."""
    from reldepth.ordinal import (
        EQUAL,
        PairSampleConfig,
        load_pairs_csv,
        sample_pairs,
        save_pairs_csv,
        whdr,
    )

    rng = np.random.default_rng(5)
    values = rng.integers(1, 5, size=(32, 32)).astype(np.float32)
    sampled = sample_pairs(DepthMap(values, kind="disparity"),
                           PairSampleConfig(count=200, eq_threshold=0.5, seed=5))
    save_pairs_csv(sampled, tmp_path / "pairs.csv")
    loaded = load_pairs_csv(tmp_path / "pairs.csv")
    pred = DepthMap(values, kind="depth")
    for pairs in (sampled, loaded, map_pairs_to_grid(loaded, 8)):
        items = list(pairs)
        assert len(pairs) == len(items) > 0
        assert all(type(p.r) is int for p in items)
        attrs = {"pairs": len(pairs), "equal": sum(p.r == EQUAL for p in items)}
        assert json.loads(json.dumps(attrs)) == attrs
    strict = [p for p in loaded if p.r != EQUAL]
    rows = np.asarray(loaded)
    assert 0 < len(strict) < len(loaded)
    assert whdr(pred, strict) == whdr(pred, rows[rows[:, 4] != EQUAL])


class TestPretrainSetUp:
    def test_pair_outside_its_image_fails_before_any_step(self):
        img, _ = overfit_sample()
        net = tiny_net()
        before = {n: t.values.copy() for n, t in net.named_params()}
        steps = []
        dataset = [(img, [(0, 0, 20, 20, 1)]), (img, [(0, 0, 20, 20, 1), (0, 0, 200, 200, 1)])]
        sched = TrainSchedule(batch_size=1, learning_rate=1e-3, total_iterations=3)
        with pytest.raises(ValueError) as err:
            pretrain_ranking(net, dataset, sched, seed=0, log_fn=steps.append)
        assert str(err.value) == "sample 1: pair coordinate (200, 200) outside 32x32 map"
        assert steps == []
        for n, t in net.named_params():
            assert np.array_equal(before[n], t.values), n

    def test_negative_coordinate_rejected(self):
        img, _ = overfit_sample()
        with pytest.raises(ValueError, match=r"sample 0: pair coordinate \(0, -1\)"):
            pretrain_ranking(tiny_net(), [(img, [(0, -1, 20, 20, 1)])],
                             TrainSchedule(batch_size=1, total_iterations=1), seed=0)


class TestPairMapping:
    def test_coordinates_divided_by_stride(self):
        pairs = [(9, 17, 25, 3, 1)]
        mapped = map_pairs_to_grid(pairs, 8)
        assert np.array_equal(mapped, [(1, 2, 3, 0, 1)])

    def test_collapsing_pairs_dropped(self):
        pairs = [(0, 0, 7, 7, 1), (0, 0, 15, 15, -1)]
        assert np.array_equal(map_pairs_to_grid(pairs, 8), [(0, 0, 1, 1, -1)])


class TestPrediction:
    def test_uniform_logits_decode_to_first_bin(self):
        scheme = make_bins(1.0, 16.0, 4)
        net = tiny_net(head_mode="classification", head_channels=4)
        net.head.weight.values[...] = 0.0
        net.head.bias.values[...] = 0.0
        img = Image(np.random.default_rng(90).random((16, 16, 3)).astype(np.float32))
        pred = predict_depth(net, img, scheme)
        assert np.allclose(pred.values, np.float32(np.sqrt(scheme.edges[0] * scheme.edges[1])))

    def test_biased_head_decodes_chosen_bin(self):
        scheme = make_bins(1.0, 16.0, 4)
        net = tiny_net(head_mode="classification", head_channels=4)
        net.head.weight.values[...] = 0.0
        net.head.bias.values[...] = 0.0
        net.head.bias.values[2] = 5.0  # label 3 everywhere
        img = Image(np.random.default_rng(91).random((16, 16, 3)).astype(np.float32))
        pred = predict_depth(net, img, scheme)
        want = np.float32(np.sqrt(scheme.edges[2] * scheme.edges[3]))
        assert np.allclose(pred.values, want)
        assert pred.values.shape == (16, 16)

    def test_ranking_head_refuses_metric_decode(self):
        net = tiny_net()
        img = Image(np.zeros((16, 16, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            predict_depth(net, img, make_bins(1.0, 2.0, 2))

    def test_relative_prediction_is_positive_and_reversed(self):
        net = tiny_net()
        img = Image(np.random.default_rng(92).random((16, 16, 3)).astype(np.float32))
        from reldepth.network import predict_scores
        scores = predict_scores(net, img)
        rel = predict_relative(net, img)
        assert rel.values.min() > 0
        # largest score maps to smallest depth-like value
        assert rel.values.shape == (16, 16)

    def test_indivisible_input_rejected(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 3, 12, 12)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = tiny_net(seed=100)
        net.forward(np.random.default_rng(0).random((1, 3, 16, 16)))
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path, iteration=42)
        loaded, iteration = load_checkpoint(path)
        assert iteration == 42
        assert loaded.config == net.config
        for (na, ta), (nb, tb) in zip(net.named_params(), loaded.named_params()):
            assert na == nb and np.array_equal(ta.values, tb.values)
        for (na, a), (nb, b) in zip(net.named_norms(), loaded.named_norms()):
            assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)
            assert a.calibrated == b.calibrated

    def test_identical_bytes_for_identical_state(self, tmp_path):
        net = tiny_net(seed=101)
        save_checkpoint(net, tmp_path / "a.ckpt", iteration=1)
        save_checkpoint(net, tmp_path / "b.ckpt", iteration=1)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_layout_is_pinned(self, tmp_path):
        # names, init draws and byte order of a default net's checkpoint; a
        # renamed array or a reordered draw changes this digest
        path = tmp_path / "default.ckpt"
        save_checkpoint(DepthNet(NetConfig(seed=0)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c3a7694fd88ae6ffee0550ebc160df1aab7c34589f8f1a4ac4f822cad81d285d")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTright" + bytes(32))
        with pytest.raises(ValueError):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda m: m["arrays"].pop(3), "arrays do not match", id="missing-array"),
        pytest.param(lambda m: m["arrays"][0].update(name="stem.kernel"), "unexpected",
                     id="foreign-array"),
        pytest.param(lambda m: m["arrays"][0].update(shape=[1]), "shapes or count",
                     id="wrong-shape"),
        pytest.param(lambda m: m["calibrated"].pop("final.norm"), "calibration flags",
                     id="missing-flag"),
        pytest.param(lambda m: m["config"].update(depth=3), "bad config", id="unknown-field"),
        pytest.param(lambda m: m.pop("iteration"), "malformed manifest", id="no-iteration"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, edit, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net(seed=103), path)
        manifest = read_manifest(path)
        edit(manifest)
        write_manifest(path, manifest)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_manifest_must_be_an_object(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net(seed=104), path)
        write_manifest(path, [read_manifest(path)])
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut, message", [
        pytest.param(-8, "truncated payload", id="short"),
        pytest.param(None, "trailing bytes", id="long"),
    ])
    def test_payload_must_fill_the_file_exactly(self, tmp_path, cut, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(tiny_net(seed=105), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut else raw + bytes(8))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_re_head_preserves_trunk(self):
        # the head block is the final conv plus the normalization feeding it;
        # everything upstream must survive the swap untouched
        net = tiny_net(seed=102)
        net.forward(np.random.default_rng(0).random((1, 3, 16, 16)))
        head_side = ("head.", "final.norm")
        trunk_before = {n: t.values.copy() for n, t in net.named_params()
                        if not n.startswith(head_side)}
        net.re_head("classification", 5)
        assert net.config.head_channels == 5
        assert net.head.weight.values.shape[0] == 5
        # the norm feeding the new head restandardizes on the next batch
        assert not dict(net.named_norms())["final.norm"].calibrated
        for n, t in net.named_params():
            if not n.startswith(head_side):
                assert np.array_equal(trunk_before[n], t.values), n
