import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from reldepth.cli import main
from reldepth.imagery import DISPARITY, load_pfm

BASE_CONFIG = {
    "seed": 3,
    "synth": {
        "count": 2, "width": 32, "height": 32,
        "layers_min": 2, "layers_max": 2,
        "disparity_choices": [1, 6], "texture_density": 1.0, "d_max": 8,
    },
    "sgm": {
        "p1": 0.09, "p2": 0.72, "d_max": 8, "directions": "all",
        "bilsub": {"enabled": False}, "median_radius": 1,
    },
    "pairs": {"count": 50, "eq_threshold": 1.0},
    "bins": {"d_min": 2.0, "d_max": 40.0, "B": 8, "alpha": 2.0,
             "focal_baseline": 32.0},
    "train": {
        "net": {"stage_widths": [3, 4, 5], "stage_blocks": [1, 1, 1],
                "stage_strides": [1, 2, 2], "head_widths": [6], "seed": 2},
        "pretrain": {"batch_size": 2, "learning_rate": 0.0002,
                     "total_iterations": 4, "decay_iterations": []},
        "finetune": {"batch_size": 2, "learning_rate": 0.001,
                     "total_iterations": 4, "decay_iterations": [],
                     "augment": {"enabled": False}},
    },
    "eval": {"strict_pairs_only": True, "pred_threshold": 0.0},
}


def write_config(tmp_path, **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in overrides.items():
        node = cfg
        *parents, last = dotted.split(".")
        for key in parents:
            node = node[key]
        node[last] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture
def pipeline(tmp_path):
    cfg = write_config(tmp_path)
    dirs = {name: str(tmp_path / name)
            for name in ("synth", "disp", "pairs", "pre", "fine", "eval", "whdr")}
    return cfg, dirs


def run(args):
    return main(args)


def assert_config_rejected(config_path, tmp_path, capsys):
    out = tmp_path / "never"
    assert run(["synth", "--config", str(config_path), "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


class TestSynth:
    def test_zero_scenes_is_success(self, tmp_path):
        cfg = write_config(tmp_path, **{"synth.count": 0})
        out = tmp_path / "empty"
        assert run(["synth", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenes"] == []

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--config", cfg, "--out", str(a)]) == 0
        assert run(["synth", "--config", cfg, "--out", str(b)]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_manifest_lists_loadable_triples(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "data"
        assert run(["synth", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["scenes"]) == 2
        from reldepth.imagery import load_image
        for scene in manifest["scenes"]:
            load_image(out / scene["left"])
            load_image(out / scene["right"])
            load_pfm(out / scene["gt"], kind=DISPARITY)

    def test_seed_flag_changes_scenes(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run(["synth", "--config", cfg, "--out", str(a)])
        run(["synth", "--config", cfg, "--seed", "99", "--out", str(b)])
        assert tree_digest(a) != tree_digest(b)


class TestStereoAndPairs:
    def test_zero_disparity_scene_matches_zero(self, tmp_path):
        cfg = write_config(tmp_path, **{
            "synth.disparity_choices": [0, 0, 0],  # force an all-zero scene
            "synth.layers_min": 1, "synth.layers_max": 1,
            "synth.count": 1,
        })
        synth_dir, disp_dir = tmp_path / "s", tmp_path / "d"
        assert run(["synth", "--config", cfg, "--out", str(synth_dir)]) == 0
        assert run(["stereo", "--config", cfg, "--in", str(synth_dir),
                    "--out", str(disp_dir)]) == 0
        disp = load_pfm(disp_dir / "disp_000.pfm", kind=DISPARITY)
        sel = disp.mask
        assert float(np.mean(disp.values[sel] == 0.0)) > 0.98

    def test_pair_csv_row_count(self, pipeline):
        cfg, d = pipeline
        assert run(["synth", "--config", cfg, "--out", d["synth"]]) == 0
        assert run(["stereo", "--config", cfg, "--in", d["synth"], "--out", d["disp"]]) == 0
        assert run(["pairs", "--config", cfg, "--in", d["disp"], "--out", d["pairs"]]) == 0
        rows = (Path(d["pairs"]) / "pairs_000.csv").read_text().strip().splitlines()
        assert len(rows) == 50

    def test_thousand_pair_default_row_count(self, tmp_path):
        cfg = write_config(tmp_path, **{"pairs.count": 1000, "synth.count": 1})
        synth_dir, pair_dir = tmp_path / "s", tmp_path / "p"
        assert run(["synth", "--config", cfg, "--out", str(synth_dir)]) == 0
        # ground-truth manifests are accepted directly by the pairs command
        assert run(["pairs", "--config", cfg, "--in", str(synth_dir),
                    "--out", str(pair_dir)]) == 0
        rows = (pair_dir / "pairs_000.csv").read_text().strip().splitlines()
        assert len(rows) == 1000

    @pytest.mark.parametrize("manifest", [{}, {"scenes": [{"index": 0}]}])
    def test_malformed_manifest_is_runtime_failure(self, tmp_path, capsys, manifest):
        cfg = write_config(tmp_path)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps(manifest))
        src = ["--data", str(bad)]
        for args in (["stereo", "--in", str(bad)], ["pairs", "--in", str(bad)],
                     ["pretrain", *src, "--pairs", str(bad)], ["finetune", *src],
                     ["eval", *src, "--pred", str(bad)],
                     ["whdr", *src, "--pairs", str(bad), "--ckpt", str(bad / "x.ckpt")]):
            out = tmp_path / args[0]
            assert run([*args, "--config", cfg, "--out", str(out)]) == 2, args
            err = capsys.readouterr().err
            if manifest and args[0] in ("stereo", "pairs"):
                # a scene without its input file fails alone, in the manifest
                assert "scene 0:" in err
                assert len(json.loads((out / "manifest.json").read_text())["failures"]) == 1
            else:
                assert err.startswith("error:"), args

    def test_missing_input_dir_is_runtime_failure(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = run(["stereo", "--config", cfg, "--in", str(tmp_path / "nothere"),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()


class TestConfigValidation:
    def test_bad_penalties_rejected_before_work(self, tmp_path, capsys):
        assert_config_rejected(write_config(tmp_path, **{"sgm.p1": 5.0, "sgm.p2": 1.0}),
                               tmp_path, capsys)
        # a switch is a JSON boolean and a radius a JSON integer, not a truthy value
        for key, value in (("sgm.median_radius", 1.7), ("sgm.median_radius", True),
                           ("sgm.bilsub.enabled", "false"), ("sgm.bilsub.enabled", 0)):
            assert_config_rejected(write_config(tmp_path, **{key: value}), tmp_path, capsys)
        # every seed feeds a numpy seed sequence, which takes only integers >= 0
        for key in ("seed", "train.net.seed"):
            for seed in ("three", 1.5, 2.5, -1, True, None):
                assert_config_rejected(write_config(tmp_path, **{key: seed}), tmp_path, capsys)
        # so does the --seed override, given as an int or as the flag's text
        out = tmp_path / "never"
        assert run(["synth", "--config", write_config(tmp_path), "--seed", "-1",
                    "--out", str(out)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()
        from reldepth.cli import ConfigError, load_config
        assert load_config(write_config(tmp_path), seed_override="7").seed == 7
        for seed in (-1, "-1", "three", "2.5", True, 2.5):
            with pytest.raises(ConfigError, match="--seed"):
                load_config(write_config(tmp_path), seed_override=seed)

    def test_bad_bins_rejected(self, tmp_path):
        cfg = write_config(tmp_path, **{"bins.d_min": 10.0, "bins.d_max": 10.0})
        assert run(["synth", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_bad_schedule_rejected(self, tmp_path, capsys):
        for key, value in (("train.pretrain.decay_iterations", [99]),
                           ("train.pretrain.batch_size", "4"),
                           ("train.finetune.decay_iterations", 3),
                           ("train.pretrain.pair_mean", "false"),
                           ("train.pretrain.pair_mean", 1),
                           ("train.pretrain.clip_norm", True),
                           ("train.finetune.augment.enabled", "false"),
                           ("eval.strict_pairs_only", "no"),
                           ("eval.pred_threshold", "0.5"),
                           ("eval.pred_threshold", True),
                           ("eval.pred_threshold", -0.1)):
            assert_config_rejected(write_config(tmp_path, **{key: value}), tmp_path, capsys)

    def test_missing_section_rejected(self, tmp_path, capsys):
        raw = json.loads(json.dumps(BASE_CONFIG))
        del raw["bins"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        assert_config_rejected(path, tmp_path, capsys)
        # a section that is there must be an object
        for section in ("sgm.bilsub", "train.net", "train.pretrain", "train.finetune",
                        "train.finetune.augment", "eval"):
            for value in (3, [], "on", None):
                cfg = write_config(tmp_path, **{section: value})
                assert_config_rejected(cfg, tmp_path, capsys)

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        misspelled = ("synth.cout", "sgm.p_1", "sgm.bilsub.radios", "pairs.counts",
                      "bins.b", "train.net.stage_width", "train.pretrain.learning_rat",
                      "train.finetune.batchsize", "train.finetune.augment.flip",
                      "eval.pred_treshold", "train.nett", "sed")
        # fields the code fixes, and a switch only train.pretrain reads
        not_keys = ("sgm.border_cost", "train.net.head_mode", "train.net.in_channels",
                    "pairs.seed", "train.finetune.pair_mean")
        for key in misspelled + not_keys:
            assert_config_rejected(write_config(tmp_path, **{key: 1}), tmp_path, capsys)

    def test_unreadable_config(self, tmp_path, capsys):
        assert_config_rejected(tmp_path / "nope.json", tmp_path, capsys)
        path = tmp_path / "c.json"
        for top_level in ([BASE_CONFIG], "config", 3, None):
            path.write_text(json.dumps(top_level))
            assert_config_rejected(path, tmp_path, capsys)


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
# (bin count, alpha, bins.d_max) the README promises for the full-scale configs
PROMISED_BINS = {"indoor_full.json": (100, 2.0, None), "outdoor_full.json": (50, 0.2, 80.0)}


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_loads(path):
    from reldepth.cli import load_config

    assert set(PROMISED_BINS) <= {p.name for p in SHIPPED_CONFIGS}
    cfg = load_config(path)
    if path.name in PROMISED_BINS:
        bins, alpha, d_max = PROMISED_BINS[path.name]
        assert (cfg.scheme.bins, cfg.gain.alpha) == (bins, alpha)
        assert d_max is None or cfg.scheme.d_max == d_max


class TestTrainEvalCommands:
    def _through_pairs(self, cfg, d):
        assert run(["synth", "--config", cfg, "--out", d["synth"]]) == 0
        assert run(["stereo", "--config", cfg, "--in", d["synth"], "--out", d["disp"]]) == 0
        assert run(["pairs", "--config", cfg, "--in", d["disp"], "--out", d["pairs"]]) == 0

    def test_full_pipeline_and_resume_noop(self, pipeline):
        cfg, d = pipeline
        self._through_pairs(cfg, d)
        assert run(["pretrain", "--config", cfg, "--data", d["synth"],
                    "--pairs", d["pairs"], "--out", d["pre"]]) == 0
        ckpt = str(Path(d["pre"]) / "model.ckpt")
        assert run(["finetune", "--config", cfg, "--data", d["synth"],
                    "--out", d["fine"], "--resume", ckpt]) == 0
        fine_ckpt = Path(d["fine"]) / "model.ckpt"
        before = hashlib.sha256(fine_ckpt.read_bytes()).hexdigest()
        # resuming a finished finetune run must not change the checkpoint
        assert run(["finetune", "--config", cfg, "--data", d["synth"],
                    "--out", d["fine"], "--resume", str(fine_ckpt)]) == 0
        after = hashlib.sha256(fine_ckpt.read_bytes()).hexdigest()
        assert before == after

        assert run(["eval", "--config", cfg, "--data", d["synth"],
                    "--out", d["eval"], "--ckpt", str(fine_ckpt)]) == 0
        metrics = json.loads((Path(d["eval"]) / "metrics.json").read_text())
        assert metrics["aggregate"]["pixel_count"] > 0

        assert run(["whdr", "--config", cfg, "--data", d["synth"],
                    "--pairs", d["pairs"], "--ckpt", str(Path(d["pre"]) / "model.ckpt"),
                    "--out", d["whdr"]]) == 0
        whdr = json.loads((Path(d["whdr"]) / "whdr.json").read_text())
        assert 0.0 <= whdr["whdr"] <= 1.0

    def test_eval_with_perfect_predictions(self, pipeline):
        cfg, d = pipeline
        assert run(["synth", "--config", cfg, "--out", d["synth"]]) == 0
        # hand the ground truth back as predictions, converted to depth
        from reldepth.imagery import disparity_to_depth, save_pfm
        pred_dir = Path(d["synth"]).parent / "pred"
        pred_dir.mkdir()
        manifest = json.loads((Path(d["synth"]) / "manifest.json").read_text())
        for scene in manifest["scenes"]:
            gt = load_pfm(Path(d["synth"]) / scene["gt"], kind=DISPARITY)
            save_pfm(disparity_to_depth(gt, 32.0), pred_dir / scene["gt"])
        assert run(["eval", "--config", cfg, "--data", d["synth"],
                    "--out", d["eval"], "--pred", str(pred_dir)]) == 0
        agg = json.loads((Path(d["eval"]) / "metrics.json").read_text())["aggregate"]
        assert agg["rms"] == 0.0 and agg["delta1"] == 1.0

    def test_eval_requires_exactly_one_source(self, pipeline):
        cfg, d = pipeline
        assert run(["synth", "--config", cfg, "--out", d["synth"]]) == 0
        assert run(["eval", "--config", cfg, "--data", d["synth"],
                    "--out", d["eval"]]) == 2

    def test_whdr_with_no_scenes_is_runtime_failure(self, tmp_path, capsys):
        from reldepth.cli import load_config
        from reldepth.network import DepthNet, save_checkpoint

        cfg = write_config(tmp_path, **{"synth.count": 0})
        synth_dir, pair_dir, out = tmp_path / "s", tmp_path / "p", tmp_path / "w"
        assert run(["synth", "--config", cfg, "--out", str(synth_dir)]) == 0
        assert run(["pairs", "--config", cfg, "--in", str(synth_dir),
                    "--out", str(pair_dir)]) == 0
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(DepthNet(load_config(cfg).net), ckpt, iteration=0)
        assert run(["whdr", "--config", cfg, "--data", str(synth_dir), "--pairs",
                    str(pair_dir), "--ckpt", str(ckpt), "--out", str(out)]) == 2
        assert "no scenes to score" in capsys.readouterr().err
        assert not (out / "whdr.json").exists()

    @pytest.mark.parametrize("case, message", [
        ("missing-flag", "calibration flags do not match"),
        ("missing-array", "arrays do not match"),
        ("unknown-field", "bad config"),
        ("not-an-object", "not a JSON object"),
    ])
    def test_malformed_checkpoint_is_runtime_failure(self, pipeline, capsys, case, message):
        from reldepth.cli import load_config
        from reldepth.network import DepthNet, save_checkpoint

        cfg, d = pipeline
        assert run(["synth", "--config", cfg, "--out", d["synth"]]) == 0
        ckpt = Path(d["synth"]) / "bad.ckpt"
        save_checkpoint(DepthNet(load_config(cfg).net), ckpt)
        raw = ckpt.read_bytes()
        (size,) = struct.unpack("<I", raw[8:12])
        manifest = json.loads(raw[12:12 + size])
        if case == "missing-flag":
            del manifest["calibrated"]["final.norm"]
        elif case == "missing-array":
            del manifest["arrays"][0]
        elif case == "unknown-field":
            manifest["config"]["depth"] = 3
        else:
            manifest = [manifest]
        blob = json.dumps(manifest).encode()
        ckpt.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + size:])
        capsys.readouterr()
        assert run(["eval", "--config", cfg, "--data", d["synth"], "--ckpt", str(ckpt),
                    "--out", d["eval"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_pair_outside_its_image_fails_pretrain(self, pipeline, capsys):
        cfg, d = pipeline
        assert run(["synth", "--config", cfg, "--out", d["synth"]]) == 0
        assert run(["pairs", "--config", cfg, "--in", d["synth"], "--out", d["pairs"]]) == 0
        with open(Path(d["pairs"]) / "pairs_001.csv", "a") as fh:
            fh.write("200,200,0,0,1\n")
        assert run(["pretrain", "--config", cfg, "--data", d["synth"],
                    "--pairs", d["pairs"], "--out", d["pre"]]) == 2
        err = capsys.readouterr().err
        assert "sample 1: pair coordinate (200, 200) outside 32x32 map" in err
        assert "diverged" not in err
        assert not (Path(d["pre"]) / "model.ckpt").exists()

    def test_whdr_with_only_equal_pairs_left_is_runtime_failure(self, pipeline, capsys):
        from reldepth.cli import load_config
        from reldepth.network import DepthNet, save_checkpoint

        cfg, d = pipeline  # the base config scores strict pairs only
        assert run(["synth", "--config", cfg, "--out", d["synth"]]) == 0
        assert run(["pairs", "--config", cfg, "--in", d["synth"], "--out", d["pairs"]]) == 0
        (Path(d["pairs"]) / "pairs_000.csv").write_text("0,0,1,1,0\n2,2,0,5,0\n")
        ckpt = Path(d["pre"]) / "model.ckpt"
        ckpt.parent.mkdir()
        save_checkpoint(DepthNet(load_config(cfg).net), ckpt, iteration=0)
        assert run(["whdr", "--config", cfg, "--data", d["synth"], "--pairs", d["pairs"],
                    "--ckpt", str(ckpt), "--out", d["whdr"]]) == 2
        assert "scene 0: no pairs left to score" in capsys.readouterr().err
        assert not (Path(d["whdr"]) / "whdr.json").exists()

    @pytest.mark.parametrize("command, field, value", [
        ("pretrain", "head_widths", (7,)),
        ("finetune", "stage_widths", (3, 4, 6)),
    ])
    def test_resume_with_a_different_net_fails(self, pipeline, capsys, command, field, value):
        from dataclasses import replace

        from reldepth.cli import load_config
        from reldepth.network import DepthNet, save_checkpoint

        cfg, d = pipeline
        assert run(["synth", "--config", cfg, "--out", d["synth"]]) == 0
        assert run(["pairs", "--config", cfg, "--in", d["synth"], "--out", d["pairs"]]) == 0
        ckpt = Path(d["synth"]) / "other.ckpt"
        save_checkpoint(DepthNet(replace(load_config(cfg).net, **{field: value})), ckpt)
        capsys.readouterr()
        inputs = ["--pairs", d["pairs"]] if command == "pretrain" else []
        out = Path(d["pre"])
        assert run([command, "--config", cfg, "--data", d["synth"], *inputs,
                    "--out", str(out), "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"resume checkpoint has {field} {value}, config has" in err
        assert not (out / "model.ckpt").exists()

    def test_training_commands_deterministic(self, pipeline):
        cfg, d = pipeline
        self._through_pairs(cfg, d)
        out_a, out_b = d["pre"] + "_a", d["pre"] + "_b"
        for out in (out_a, out_b):
            assert run(["pretrain", "--config", cfg, "--data", d["synth"],
                        "--pairs", d["pairs"], "--out", out]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)
