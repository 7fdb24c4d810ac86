"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The comparative checks (7, 8) and the end-to-end smoke (9) train real
models and take a few minutes; everything is seeded and deterministic.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import coordinate_check, numerical_gradient, gradients_close
from reldepth import stereo
from reldepth.binning import bin_to_depth, depth_to_bin, info_gain_matrix, make_bins
from reldepth.cli import main as cli_main
from reldepth.imagery import (
    DepthMap,
    SynthSceneSpec,
    disparity_to_depth,
    generate_stereogram,
)
from reldepth.losses import infogain_loss, ranking_loss, softmax
from reldepth.metrics import aggregate, evaluate
from reldepth.network import (
    DepthNet,
    NetConfig,
    TrainSchedule,
    finetune_classification,
    finetune_regression,
    l2_regression_loss,
    load_checkpoint,
    predict_depth,
    pretrain_ranking,
    save_checkpoint,
)
from reldepth.ordinal import PairSampleConfig, sample_pairs

pytestmark = pytest.mark.acceptance


def report(criterion, detail):
    print(f"PASS criterion-{criterion}: {detail}")


# ---- criterion 1: scanline exactness oracle -----------------------------------


def brute_force_min_energy(costs, p1, p2):
    n, d = costs.shape[1], costs.shape[2]
    labelings = np.stack(
        np.meshgrid(*[np.arange(d)] * n, indexing="ij"), axis=-1
    ).reshape(-1, n)
    data = costs[0, np.arange(n), labelings].sum(axis=1)
    diff = np.abs(np.diff(labelings, axis=1))
    pen = 2 * p1 * (diff == 1).sum(axis=1) + 2 * p2 * (diff > 1).sum(axis=1)
    return float((data + pen).min())


def test_criterion_1_sgm_scanline_exactness():
    rng = np.random.default_rng(20240001)
    start = time.time()
    for _ in range(1000):
        width = int(rng.integers(2, 9))
        d_max = int(rng.integers(2, 5))
        costs = rng.random((1, width, d_max))
        p1 = float(rng.choice([0.0, 1.0, 5.0]))
        p2 = float(rng.choice([v for v in (0.0, 1.0, 5.0) if v >= p1]))
        params = stereo.SgmParams(p1=p1, p2=p2, d_max=d_max,
                                  directions=stereo.HORIZONTAL_PAIR)
        cv = stereo.CostVolume(costs)
        labeling = stereo.winner_takes_all(stereo.sgm_aggregate(cv, params))
        achieved = stereo.energy(labeling, cv, params)
        optimum = brute_force_min_energy(costs, p1, p2)
        assert achieved == optimum  # exact, zero tolerance
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"1000 instances exact, {elapsed:.1f}s")


# ---- criterion 2: planted-disparity recovery -----------------------------------


def test_criterion_2_planted_recovery():
    start = time.time()
    rates = []
    for seed in range(20):
        rng = np.random.default_rng(30000 + seed)
        bg = int(rng.integers(0, 5))
        fg = int(rng.integers(bg + 1, 9))  # disparities <= 8
        spec = SynthSceneSpec(width=128, height=128, layer_disparities=(bg, fg),
                              texture_density=0.6, d_max=16, seed=seed)
        left, right, gt = generate_stereogram(spec)
        params = stereo.SgmParams.defaults(channels=3, d_max=16)
        disp = stereo.match_pair(left, right, params, median_radius=1)
        sel = gt.mask & disp.mask
        rates.append(float(np.mean(np.abs(disp.values - gt.values)[sel] <= 1)))
    elapsed = time.time() - start
    assert min(rates) >= 0.95
    assert elapsed < 60.0
    report(2, f"20 scenes, min within-1 rate {min(rates):.4f}, {elapsed:.1f}s")


# ---- criterion 3: gradient suites over 100 seeds -------------------------------


def random_pairs(rng, h, w, count):
    pairs = []
    while len(pairs) < count:
        a = tuple(int(v) for v in (rng.integers(0, h), rng.integers(0, w)))
        b = tuple(int(v) for v in (rng.integers(0, h), rng.integers(0, w)))
        if a != b:
            pairs.append((*a, *b, int(rng.choice([-1, 0, 1]))))
    return pairs


def test_criterion_3_gradient_suites():
    start = time.time()
    for seed in range(100):
        rng = np.random.default_rng(40000 + seed)
        h, w = (int(v) for v in rng.integers(2, 9, size=2))
        z = rng.normal(size=(h, w)) * 2
        pairs = random_pairs(rng, h, w, int(rng.integers(2, 9)))
        res = ranking_loss(z, pairs)
        num = numerical_gradient(lambda x: ranking_loss(x, pairs).value, z.copy())
        assert gradients_close(res.gradient, num), f"ranking seed {seed}"

    for seed in range(100):
        rng = np.random.default_rng(41000 + seed)
        h, w = (int(v) for v in rng.integers(2, 9, size=2))
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
        assert gradients_close(res.gradient, num), f"infogain seed {seed}"

    for seed in range(100):
        rng = np.random.default_rng(42000 + seed)
        h, w = (int(v) for v in rng.integers(2, 9, size=2))
        pred = rng.normal(size=(h, w)) * 2
        target = rng.normal(size=(h, w)) * 2
        mask = rng.random((h, w)) < 0.8
        mask[0, 0] = True
        res = l2_regression_loss(pred, target, mask)
        num = numerical_gradient(
            lambda p: l2_regression_loss(p, target, mask).value, pred.copy()
        )
        assert gradients_close(res.gradient, num), f"l2 seed {seed}"

    # full <=3-block network under the ranking loss: sampled coordinates of
    # every parameter tensor per seed (the unit suite exhausts every
    # coordinate for fixed seeds)
    for seed in range(100):
        rng = np.random.default_rng(43000 + seed)
        net = DepthNet(NetConfig(stage_widths=(3, 4, 5), stage_blocks=(1, 1, 1),
                                 stage_strides=(1, 2, 2), head_widths=(6,),
                                 head_mode="ranking", head_channels=1, seed=seed))
        x = rng.random((1, 3, 16, 16))
        pairs = random_pairs(rng, 2, 2, 3)
        net.forward(x)  # fix normalization statistics

        def loss():
            return ranking_loss(net.forward(x)[0, 0], pairs).value

        res = ranking_loss(net.forward(x)[0, 0], pairs)
        net.zero_grad()
        dout = np.zeros((1, 1, 2, 2))
        dout[0, 0] = res.gradient
        net.backward(dout)
        for name, tensor in net.named_params():
            flat = tensor.values.ravel()
            gflat = tensor.grad.ravel()
            for ci in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                bad = coordinate_check(loss, flat, ci, gflat[ci])
                assert bad is None, f"net seed {seed} {name}[{ci}]: {bad}"
    report(3, f"4 suites x 100 seeds, {time.time() - start:.1f}s")


# ---- criterion 4: closed-form loss values ---------------------------------------


def test_criterion_4_closed_form_losses():
    res = ranking_loss(np.zeros((1, 2)), [(0, 0, 0, 1, 1)])
    assert abs(res.value - np.log(2.0)) <= 1e-12

    gain = info_gain_matrix(2, 2.0)
    res = infogain_loss(np.zeros((1, 1, 2)), np.ones((1, 1), dtype=np.int64),
                        np.ones((1, 1), bool), gain)
    assert abs(res.value - (1 + np.exp(-2.0)) * np.log(2.0)) <= 1e-12

    rng = np.random.default_rng(50)
    for alpha in (40.0, 80.0):
        for bins in (2, 10, 20):
            logits = rng.normal(size=(4, 5, bins)) * 2
            labels = rng.integers(1, bins + 1, size=(4, 5))
            mask = rng.random((4, 5)) < 0.85
            mask[0, 0] = True
            gain = info_gain_matrix(bins, alpha)
            value = infogain_loss(logits, labels, mask, gain).value
            p = softmax(logits)
            ce = -np.log(p[np.arange(4)[:, None], np.arange(5)[None, :], labels - 1])
            plain = float(ce[mask].sum() / mask.sum())
            assert abs(value - plain) <= 1e-10, (alpha, bins)
    report(4, "ln2, (1+e^-2)ln2, and identity-limit equivalences hold")


# ---- criterion 5: binning properties --------------------------------------------


def test_criterion_5_binning():
    scheme = make_bins(0.5, 80.0, 40)
    rng = np.random.default_rng(60)
    depths = np.exp(rng.uniform(np.log(0.5), np.log(80.0), size=1_000_000))
    decoded = bin_to_depth(depth_to_bin(depths, scheme), scheme)
    err = np.abs(np.log10(depths) - np.log10(decoded))
    half_bin = (np.log10(80.0) - np.log10(0.5)) / (2 * 40)
    assert err.max() <= half_bin + 1e-12

    for bins in (2, 50, 100):
        s = make_bins(0.7, 80.0, bins)
        labels = np.arange(1, bins + 1)
        assert np.array_equal(depth_to_bin(bin_to_depth(labels, s), s), labels)
    report(5, "quantization bound on 1e6 depths; fixed points for B in {2,50,100}")


# ---- criterion 6: metric fixtures and pooling -----------------------------------


def test_criterion_6_metrics():
    rng = np.random.default_rng(70)
    gt_vals = (rng.random((8, 9)) * 20 + 1).astype(np.float32)
    gt = DepthMap(gt_vals, kind="depth")
    pred = DepthMap((1.3 * gt_vals).astype(np.float32), kind="depth")
    rep = evaluate(pred, gt)
    assert abs(rep.rel - 0.3) <= 1e-6
    assert rep.delta1 == 0.0 and rep.delta2 == 1.0
    assert abs(rep.rmslog - np.log(1.3)) <= 1e-6

    exact_gt = DepthMap(np.array([[2.0, 4.0]], dtype=np.float32), kind="depth")
    exact_pred = DepthMap(np.array([[1.0, 5.0]], dtype=np.float32), kind="depth")
    rep2 = evaluate(exact_pred, exact_gt)
    assert abs(rep2.rms - 1.0) <= 1e-9
    assert abs(rep2.rel - 0.375) <= 1e-9

    vals = rng.random(60) * 9 + 0.5
    noise = np.exp(rng.normal(size=60) * 0.3)
    whole = evaluate(
        DepthMap((vals * noise)[None].astype(np.float32), kind="depth"),
        DepthMap(vals[None].astype(np.float32), kind="depth"),
    )
    for _ in range(20):
        cut = int(rng.integers(1, 59))
        parts = []
        for sl in (slice(None, cut), slice(cut, None)):
            parts.append(evaluate(
                DepthMap((vals * noise)[None, sl].astype(np.float32), kind="depth"),
                DepthMap(vals[None, sl].astype(np.float32), kind="depth"),
            ))
        pooled = aggregate(parts)
        for field in ("rms", "rel", "log10", "rmslog", "delta1", "delta2", "delta3"):
            a, b = getattr(pooled, field), getattr(whole, field)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), field
    report(6, "hand fixtures at 1e-9; pooled aggregation exact on 20 random splits")


# ---- shared synthetic corpus for criteria 7 and 8 -------------------------------

COMPARE_POOL = (2, 6, 10, 14)


def compare_scene(seed, size=64):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    disps = sorted(rng.choice(COMPARE_POOL, size=n, replace=False).tolist())
    return SynthSceneSpec(width=size, height=size,
                          layer_disparities=tuple(int(x) for x in disps),
                          texture_density=1.0, d_max=16, seed=seed)


def compare_corpus():
    scenes = [generate_stereogram(compare_scene(700 + i)) for i in range(16)]
    data = [(left, disparity_to_depth(gt, 32.0)) for left, _, gt in scenes]
    return scenes, data


def compare_net_config(mode, channels, seed):
    return NetConfig(stage_widths=(6, 8, 12), stage_blocks=(1, 1, 1),
                     stage_strides=(1, 2, 2), head_widths=(12,),
                     head_mode=mode, head_channels=channels, seed=seed)


# ---- criterion 7: classification beats L2 regression ----------------------------


def test_criterion_7_classification_vs_regression():
    start = time.time()
    _, data = compare_corpus()
    train, held = data[:12], data[12:]
    scheme = make_bins(2.0, 40.0, 12)
    gain = info_gain_matrix(12, 2.0)
    margins = []
    for seed in range(5):
        sched = TrainSchedule(batch_size=4, learning_rate=5e-3,
                              total_iterations=400, decay_iterations=(300,))
        cls_net = DepthNet(compare_net_config("classification", 12, 900 + seed))
        finetune_classification(cls_net, train, scheme, gain, sched, seed=800 + seed)
        cls_d1 = aggregate(
            [evaluate(predict_depth(cls_net, img, scheme), dm) for img, dm in held]
        ).delta1
        reg_net = DepthNet(compare_net_config("regression", 1, 900 + seed))
        finetune_regression(reg_net, train, sched, seed=800 + seed)
        reg_d1 = aggregate(
            [evaluate(predict_depth(reg_net, img, None), dm) for img, dm in held]
        ).delta1
        margins.append(cls_d1 - reg_d1)
    mean_margin = float(np.mean(margins))
    assert mean_margin > 0.0
    report(7, f"held-out delta1 margin {mean_margin:+.3f} over 5 seeds "
              f"(per-seed {[f'{m:+.3f}' for m in margins]}), {time.time() - start:.0f}s")


# ---- criterion 8: ranking pretraining reaches the loss threshold faster ---------


def test_criterion_8_pretraining_benefit(tmp_path):
    start = time.time()
    scenes, data = compare_corpus()
    train = data[:12]
    scheme = make_bins(2.0, 40.0, 12)
    gain = info_gain_matrix(12, 2.0)
    params = stereo.SgmParams.defaults(channels=3, d_max=16)
    pre_data = []
    for left, right, _ in scenes[:12]:
        disp = stereo.match_pair(left, right, params, median_radius=1)
        prs = sample_pairs(disp, PairSampleConfig(count=300, eq_threshold=1.0, seed=123))
        pre_data.append((left, prs))
    trunk = DepthNet(compare_net_config("ranking", 1, 555))
    pretrain_ranking(trunk, pre_data,
                     TrainSchedule(batch_size=4, learning_rate=2e-4,
                                   total_iterations=200, decay_iterations=(150,)),
                     seed=444)
    trunk_path = tmp_path / "trunk.ckpt"
    save_checkpoint(trunk, trunk_path, iteration=200)

    def iterations_to(history, threshold):
        for rec in history:
            if rec["loss"] <= threshold:
                return rec["iter"] + 1
        return None

    threshold = 1.6
    wins = 0
    rows = []
    for seed in range(5):
        sched = TrainSchedule(batch_size=4, learning_rate=5e-3, total_iterations=250)
        warm, _ = load_checkpoint(trunk_path)
        warm_hist = finetune_classification(warm, train, scheme, gain, sched,
                                            seed=600 + seed)
        cold = DepthNet(compare_net_config("classification", 12, 555))
        cold_hist = finetune_classification(cold, train, scheme, gain, sched,
                                            seed=600 + seed)
        wi = iterations_to(warm_hist, threshold)
        ci = iterations_to(cold_hist, threshold)
        rows.append((wi, ci))
        if wi is not None and (ci is None or wi < ci):
            wins += 1
    assert wins >= 4
    report(8, f"warm start faster to loss {threshold} in {wins}/5 seeds "
              f"{rows}, {time.time() - start:.0f}s")


# ---- criterion 9: end-to-end CLI smoke ------------------------------------------


def test_criterion_9_end_to_end_smoke(tmp_path):
    start = time.time()
    config = str(Path(__file__).resolve().parents[1] / "configs" / "desk.json")
    base = ["--config", config]
    d = {name: str(tmp_path / name)
         for name in ("train", "disp", "pairs", "pre", "fine", "eval",
                      "holdout", "hdisp", "hpairs", "whdr")}

    def run(args):
        assert cli_main(args) == 0, args

    run(["synth", *base, "--out", d["train"]])
    run(["stereo", *base, "--in", d["train"], "--out", d["disp"]])
    run(["pairs", *base, "--in", d["disp"], "--out", d["pairs"]])
    run(["pretrain", *base, "--data", d["train"], "--pairs", d["pairs"],
         "--out", d["pre"]])
    run(["finetune", *base, "--data", d["train"], "--out", d["fine"],
         "--resume", str(Path(d["pre"]) / "model.ckpt")])
    run(["eval", *base, "--data", d["train"], "--out", d["eval"],
         "--ckpt", str(Path(d["fine"]) / "model.ckpt")])
    held = ["--config", config, "--seed", "5000"]
    run(["synth", *held, "--out", d["holdout"]])
    run(["stereo", *held, "--in", d["holdout"], "--out", d["hdisp"]])
    run(["pairs", *held, "--in", d["hdisp"], "--out", d["hpairs"]])
    run(["whdr", *base, "--data", d["holdout"], "--pairs", d["hpairs"],
         "--ckpt", str(Path(d["pre"]) / "model.ckpt"), "--out", d["whdr"]])

    elapsed = time.time() - start
    metrics = json.loads((Path(d["eval"]) / "metrics.json").read_text())
    whdr_out = json.loads((Path(d["whdr"]) / "whdr.json").read_text())
    assert elapsed < 600.0
    assert metrics["aggregate"]["delta1"] >= 0.85
    assert whdr_out["whdr"] <= 0.05
    report(9, f"pipeline {elapsed:.0f}s, training delta1 "
              f"{metrics['aggregate']['delta1']:.3f}, held-out WHDR "
              f"{whdr_out['whdr']:.4f}")


# ---- criterion 10: command determinism ------------------------------------------


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_criterion_10_determinism(tmp_path):
    config = {
        "seed": 11,
        "synth": {"count": 2, "width": 32, "height": 32, "layers_min": 2,
                  "layers_max": 2, "disparity_choices": [1, 6],
                  "texture_density": 1.0, "d_max": 8},
        "sgm": {"p1": 0.09, "p2": 0.72, "d_max": 8, "directions": "all",
                "bilsub": {"enabled": True, "spatial_sigma": 2.0,
                           "range_sigma": 0.1, "radius": 2},
                "median_radius": 1},
        "pairs": {"count": 40, "eq_threshold": 1.0},
        "bins": {"d_min": 2.0, "d_max": 40.0, "B": 8, "alpha": 2.0,
                 "focal_baseline": 32.0},
        "train": {
            "net": {"stage_widths": [3, 4, 5], "stage_blocks": [1, 1, 1],
                    "stage_strides": [1, 2, 2], "head_widths": [6], "seed": 2},
            "pretrain": {"batch_size": 2, "learning_rate": 0.0002,
                         "total_iterations": 6, "decay_iterations": []},
            "finetune": {"batch_size": 2, "learning_rate": 0.001,
                         "total_iterations": 6, "decay_iterations": [],
                         "augment": {"enabled": True,
                                     "scale_range": [1.0, 1.2],
                                     "flip_prob": 0.5}},
        },
        "eval": {"strict_pairs_only": True, "pred_threshold": 0.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    base = ["--config", str(cfg_path)]

    digests = {}
    for attempt in ("a", "b"):
        root = tmp_path / attempt
        d = {name: str(root / name)
             for name in ("synth", "disp", "pairs", "gtpairs", "pre", "fine",
                          "eval", "whdr")}
        assert cli_main(["synth", *base, "--out", d["synth"]]) == 0
        assert cli_main(["stereo", *base, "--in", d["synth"], "--out", d["disp"]]) == 0
        assert cli_main(["pairs", *base, "--in", d["disp"], "--out", d["pairs"]]) == 0
        # pair sampling straight from ground truth for the ordinal scoring leg
        assert cli_main(["pairs", *base, "--in", d["synth"], "--out", d["gtpairs"]]) == 0
        assert cli_main(["pretrain", *base, "--data", d["synth"],
                         "--pairs", d["pairs"], "--out", d["pre"]]) == 0
        assert cli_main(["finetune", *base, "--data", d["synth"], "--out", d["fine"],
                         "--resume", str(Path(d["pre"]) / "model.ckpt")]) == 0
        assert cli_main(["eval", *base, "--data", d["synth"], "--out", d["eval"],
                         "--ckpt", str(Path(d["fine"]) / "model.ckpt")]) == 0
        assert cli_main(["whdr", *base, "--data", d["synth"], "--pairs", d["gtpairs"],
                         "--ckpt", str(Path(d["pre"]) / "model.ckpt"),
                         "--out", d["whdr"]]) == 0
        digests[attempt] = tree_digest(root)
    assert digests["a"] == digests["b"]
    report(10, "all seven commands hash-identical across two runs")
