import hashlib
import inspect
import json
import multiprocessing
import os
import pkgutil
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from reldepth.cli import COMMANDS, main
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
    err = capsys.readouterr().err
    assert "config error:" in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("name", list(COMMANDS))
def test_commands_table_matches_functions_and_help(name, capsys):
    function, _, flags = COMMANDS[name]
    parameters = list(inspect.signature(function).parameters)
    assert parameters == ["cfg", *(parameter for parameter, _, _ in flags.values())]
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for flag in ("--config", "--seed", *flags):
        assert f" {flag} " in usage, flag


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


def see_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def scene_args(tmp_path, command, count):
    """The arguments, all but --out, that run command over count scenes,
    making under tmp_path the inputs it reads unless they are there: synth
    scenes for every command but synth, their ground-truth pairs for whdr,
    and an 8-bin classifier for eval and a ranking net for whdr, each with
    its norms calibrated by one forward, as eval and whdr refuse a net with
    an uncalibrated norm. A test that patches a function the set-up may call
    makes the inputs first."""
    from dataclasses import replace

    from reldepth.cli import load_config
    from reldepth.network import CLASSIFICATION, DepthNet, save_checkpoint

    cfg = write_config(tmp_path, **{"synth.count": count})
    data, pairs, ckpt = tmp_path / "synth", tmp_path / "pairs", tmp_path / f"{command}.ckpt"
    if command != "synth" and not data.exists():
        assert run(["synth", "--config", cfg, "--out", str(data)]) == 0
    if command == "whdr" and not pairs.exists():
        assert run(["pairs", "--config", cfg, "--in", str(data), "--out", str(pairs)]) == 0
    if command in ("eval", "whdr") and not ckpt.exists():
        net = DepthNet(load_config(cfg).net)
        if command == "eval":
            net = DepthNet(replace(net.config, head_mode=CLASSIFICATION, head_channels=8))
        net.forward(np.random.default_rng(0).random((2, 3, 32, 32)))
        save_checkpoint(net, ckpt)
    inputs = {"synth": [], "stereo": ["--in", data], "pairs": ["--in", data],
              "eval": ["--data", data, "--ckpt", ckpt],
              "whdr": ["--data", data, "--pairs", pairs, "--ckpt", ckpt]}[command]
    return [command, "--config", cfg, *map(str, inputs)]


def scene_run(tmp_path, capsys, monkeypatch, command, count, cpus, out="out"):
    """Run command over count scenes seeing cpus usable cores, so the forked
    path runs on any machine; returns (exit code, output directory, stderr
    lines of the command)."""
    args = scene_args(tmp_path, command, count)
    capsys.readouterr()
    see_cpus(monkeypatch, cpus)
    rc = run([*args, "--out", str(tmp_path / out)])
    return rc, tmp_path / out, capsys.readouterr().err.splitlines()


def in_children(monkeypatch, target, dies_on_call=1, exit_code=9):
    """Patch the function at the dotted path target so that its dies_on_call-th
    call in a forked child ends the child: by os._exit(exit_code) for exit
    code 9, else by an exception that is no scene failure (exit code 1)."""
    parent, real, calls = os.getpid(), pkgutil.resolve_name(target), []

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == dies_on_call:
                if exit_code == 9:
                    os._exit(9)
                raise RuntimeError("not a scene failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(target, patched)


class SceneCommand:
    """The tests every per-scene command passes. A subclass names the
    command, the function the command calls once per scene (a dotted path
    that tests patch) and the file listing its scenes, with the list's key."""

    command = per_scene = listing = None

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_outputs_equal_the_one_core_run(self, tmp_path, capsys, monkeypatch, cpus, count):
        rc, serial, err = scene_run(tmp_path, capsys, monkeypatch, self.command, count, 1,
                                    "serial")
        assert (rc, err) == (0, [])
        rc, forked, err = scene_run(tmp_path, capsys, monkeypatch, self.command, count, cpus,
                                    "forked")
        assert (rc, err) == (0, [])
        name, key = self.listing
        scenes = json.loads((forked / name).read_text())[key]
        assert [scene["index"] for scene in scenes] == list(range(count))
        # and the files a manifest entry names are there
        assert all((forked / v).is_file() for scene in scenes for v in scene.values()
                   if isinstance(v, str))
        assert tree_digest(forked) == tree_digest(serial)
        assert multiprocessing.active_children() == []

    def test_error_in_own_share_stops_the_children(self, tmp_path, capsys, monkeypatch):
        parent, real = os.getpid(), pkgutil.resolve_name(self.per_scene)

        def patched(*args, **kwargs):
            if os.getpid() == parent:
                raise RuntimeError("parent share failed")
            time.sleep(60)
            return real(*args, **kwargs)

        scene_args(tmp_path, self.command, 3)
        monkeypatch.setattr(self.per_scene, patched)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="parent share failed"):
            scene_run(tmp_path, capsys, monkeypatch, self.command, 3, 3)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []


class AllScenesOrNone(SceneCommand):
    """A command whose first failing scene, in scene order, fails it with
    exit 2 and leaves its output file unwritten."""

    def test_dead_worker_fails_the_command(self, tmp_path, capsys, monkeypatch):
        scene_args(tmp_path, self.command, 3)
        in_children(monkeypatch, self.per_scene)
        rc, out, err = scene_run(tmp_path, capsys, monkeypatch, self.command, 3, 2)
        assert (rc, err) == (2, [f"error: {self.command} worker exited 9"])
        assert not (out / self.listing[0]).exists()
        assert multiprocessing.active_children() == []


class EachSceneOnItsOwn(SceneCommand):
    """A command that lists a failing scene in its manifest and works the
    others (cli._scene_loop)."""

    @pytest.mark.parametrize("dies_on_call, exit_code, failed", [
        (1, 9, [1, 2, 4]),  # each child dies on its first scene, by os._exit(9)
        (2, 1, [4]),  # the child with two scenes raises on its second
    ])
    def test_dead_worker_fails_the_scenes_it_did_not_report(
            self, tmp_path, capsys, monkeypatch, dies_on_call, exit_code, failed):
        scene_args(tmp_path, self.command, 5)
        in_children(monkeypatch, self.per_scene, dies_on_call, exit_code)
        # shares of 5 scenes on 3 cores: {0, 3} here, {1, 4} and {2} in children
        rc, out, err = scene_run(tmp_path, capsys, monkeypatch, self.command, 5, 3)
        manifest = json.loads((out / "manifest.json").read_text())
        lost = f"{self.command} worker exited {exit_code}"
        assert rc == 2
        assert manifest["failures"] == [{"index": i, "error": lost} for i in failed]
        assert [e["index"] for e in manifest["scenes"]] == sorted({0, 1, 2, 3, 4} - set(failed))
        assert err == [f"scene {i}: {lost}" for i in failed]
        assert multiprocessing.active_children() == []


class TestSynthProcesses(AllScenesOrNone):
    command, per_scene = "synth", "reldepth.cli.generate_stereogram"
    listing = "manifest.json", "scenes"

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_first_error_in_scene_order_fails_the_command(self, tmp_path, capsys, monkeypatch,
                                                          cpus):
        from reldepth import cli

        real_save = cli.save_pfm

        def save_pfm(dmap, path):
            # shares of 5 scenes on 3 cores: {0, 3} here, {1, 4} and {2} in children
            if path.name in ("gt_002.pfm", "gt_004.pfm"):
                raise OSError(f"cannot write {path.name}")
            if path.name == "gt_003.pfm":
                raise ValueError("bad scene 3")
            real_save(dmap, path)

        monkeypatch.setattr(cli, "save_pfm", save_pfm)
        rc, out, err = scene_run(tmp_path, capsys, monkeypatch, "synth", 5, cpus)
        assert (rc, err) == (2, ["error: cannot write gt_002.pfm"])
        assert not (out / "manifest.json").exists()
        assert multiprocessing.active_children() == []


class TestStereoProcesses(EachSceneOnItsOwn):
    command, per_scene = "stereo", "reldepth.stereo.match_pair"
    listing = "manifest.json", "scenes"

    def test_outputs_equal_direct_matching(self, tmp_path, capsys, monkeypatch):
        from reldepth import stereo
        from reldepth.cli import load_config
        from reldepth.imagery import load_image, save_pfm

        rc, out, err = scene_run(tmp_path, capsys, monkeypatch, "stereo", 5, 3)
        assert (rc, err) == (0, [])
        cfg = load_config(write_config(tmp_path, **{"synth.count": 5}))
        names = [f"disp_{i:03d}.pfm" for i in range(5)]
        expected = {"kind": "disparity", "d_max": 8, "failures": [],
                    "scenes": [{"index": i, "disparity": n} for i, n in enumerate(names)]}
        assert (out / "manifest.json").read_text() == json.dumps(
            expected, sort_keys=True, indent=2) + "\n"
        for i, name in enumerate(names):
            left = load_image(tmp_path / "synth" / f"left_{i:03d}.ppm")
            right = load_image(tmp_path / "synth" / f"right_{i:03d}.ppm")
            save_pfm(stereo.match_pair(left, right, cfg.sgm_params, bilsub_params=cfg.bilsub,
                                       median_radius=cfg.median_radius), tmp_path / name)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failed_scenes_report_as_in_process(self, tmp_path, capsys, monkeypatch, cpus):
        cfg = write_config(tmp_path, **{"synth.count": 3})
        assert run(["synth", "--config", cfg, "--out", str(tmp_path / "synth")]) == 0
        # scene 1 is in a child's share, scene 2 in the parent's or a child's
        (tmp_path / "synth" / "left_001.ppm").write_bytes(b"P6\n4 4\n255\n")
        (tmp_path / "synth" / "right_002.ppm").unlink()
        rc, serial, serial_err = scene_run(tmp_path, capsys, monkeypatch, "stereo", 3, 1,
                                           "serial")
        assert rc == 2 and len(serial_err) == 2
        assert serial_err[0].startswith("scene 1:") and serial_err[1].startswith("scene 2:")
        rc, forked, forked_err = scene_run(tmp_path, capsys, monkeypatch, "stereo", 3, cpus,
                                           "forked")
        assert (rc, forked_err) == (2, serial_err)
        assert (forked / "manifest.json").read_bytes() == (serial / "manifest.json").read_bytes()
        assert (forked / "disp_000.pfm").read_bytes() == (serial / "disp_000.pfm").read_bytes()


class TestPairsProcesses(EachSceneOnItsOwn):
    command, per_scene = "pairs", "reldepth.cli.sample_pairs"
    listing = "manifest.json", "scenes"


class TestEvalProcesses(AllScenesOrNone):
    command, per_scene = "eval", "reldepth.cli.evaluate"
    listing = "metrics.json", "per_scene"


class TestWhdrProcesses(AllScenesOrNone):
    command, per_scene = "whdr", "reldepth.cli.whdr"
    listing = "whdr.json", "per_scene"


@pytest.mark.parametrize("command, stage, per_scene, output, norm", [
    # a finetune re-heads the pretrained net; a 0-iteration one never calibrates the new norm
    ("eval", "finetune", "reldepth.cli.evaluate", "metrics.json", "final.norm"),
    # a 0-iteration pretrain saves the fresh net, no norm calibrated
    ("whdr", "pretrain", "reldepth.cli.whdr", "whdr.json", "stage0.block0.norm1"),
])
def test_uncalibrated_net_is_refused_before_any_scene(tmp_path, capsys, monkeypatch, command,
                                                      stage, per_scene, output, norm):
    cfg, data, pairs = synth_and_pairs(
        tmp_path, **{"synth.count": 3, f"train.{stage}.total_iterations": 0})
    pre, fine = tmp_path / "pre", tmp_path / "fine"
    assert run(["pretrain", "--config", cfg, "--data", data, "--pairs", pairs,
                "--out", str(pre)]) == 0
    ckpt = pre / "model.ckpt"
    if stage == "finetune":
        assert run(["finetune", "--config", cfg, "--data", data, "--out", str(fine),
                    "--resume", str(ckpt)]) == 0
        ckpt = fine / "model.ckpt"

    def called(*args, **kwargs):
        (tmp_path / f"called-{os.getpid()}").touch()
        raise AssertionError("a scene was worked")

    monkeypatch.setattr(per_scene, called)
    see_cpus(monkeypatch, 3)
    inputs = ["--pairs", pairs] if command == "whdr" else []
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--config", cfg, "--data", data, *inputs, "--ckpt", str(ckpt),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: norm {norm} of the net was calibrated by no training step\n")
    assert not (out / output).exists()
    assert list(tmp_path.glob("called-*")) == []
    assert multiprocessing.active_children() == []


def test_every_process_of_a_share_runs_one_blas_thread(monkeypatch):
    from reldepth import cli, workers

    threads = workers._openblas_threads()
    if threads is None:
        pytest.skip("numpy carries no OpenBLAS thread setter")
    get, _ = threads
    before = get()
    see_cpus(monkeypatch, 3)
    assert cli._in_shares(list(range(5)), lambda scene: get(), "test worker") == [(1, None)] * 5
    assert get() == before


# batch 4 splits into 1, 2 or 3 shares; augmentation draws in every share
FOUR_SAMPLE_BATCHES = {
    "train.pretrain.batch_size": 4, "train.pretrain.total_iterations": 3,
    "train.finetune.batch_size": 4, "train.finetune.total_iterations": 3,
    "train.finetune.augment": {"enabled": True},
}


def synth_and_pairs(tmp_path, **overrides):
    """A config and a synth dataset with pairs sampled from its ground truth;
    returns (config path, synth dir, pairs dir)."""
    cfg = write_config(tmp_path, **overrides)
    data, pairs = str(tmp_path / "synth"), str(tmp_path / "pairs")
    assert run(["synth", "--config", cfg, "--out", data]) == 0
    assert run(["pairs", "--config", cfg, "--in", data, "--out", pairs]) == 0
    return cfg, data, pairs


class TestTrainingProcesses:
    def test_bytes_do_not_depend_on_the_core_count(self, tmp_path, monkeypatch):
        cfg, data, pairs = synth_and_pairs(tmp_path, **FOUR_SAMPLE_BATCHES)
        trees = {}
        for cpus in (1, 2, 3):
            see_cpus(monkeypatch, cpus)
            pre, fine = tmp_path / f"pre{cpus}", tmp_path / f"fine{cpus}"
            assert run(["pretrain", "--config", cfg, "--data", data, "--pairs", pairs,
                        "--out", str(pre)]) == 0
            assert run(["finetune", "--config", cfg, "--data", data, "--out", str(fine),
                        "--resume", str(pre / "model.ckpt")]) == 0
            assert multiprocessing.active_children() == []
            trees[cpus] = {path.name: path.read_bytes()
                           for path in (*pre.iterdir(), *fine.iterdir())}
        assert sorted(trees[1]) == ["finetune_log.jsonl", "model.ckpt", "pretrain_log.jsonl"]
        assert trees[1] == trees[2] == trees[3]

    def test_dead_worker_fails_the_command(self, tmp_path, capsys, monkeypatch):
        from reldepth.network import training

        cfg, data, pairs = synth_and_pairs(tmp_path, **FOUR_SAMPLE_BATCHES)
        parent, real_loss = os.getpid(), training.ranking_loss

        def ranking_loss(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(7)
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(training, "ranking_loss", ranking_loss)
        see_cpus(monkeypatch, 3)
        capsys.readouterr()
        out = tmp_path / "pre"
        assert run(["pretrain", "--config", cfg, "--data", data, "--pairs", pairs,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: training worker exited 7\n"
        assert not (out / "model.ckpt").exists()
        assert multiprocessing.active_children() == []

    def test_worker_dying_in_the_calibration_pass_fails_the_command(
            self, tmp_path, capsys, monkeypatch):
        from reldepth.network import ChannelNorm

        cfg, data, pairs = synth_and_pairs(tmp_path, **FOUR_SAMPLE_BATCHES)
        parent, real_forward, calls = os.getpid(), ChannelNorm.forward, []

        def forward(norm, x):
            # a fresh net's worker dies at its third norm, after it has sent
            # the parent the inputs of the first two
            if os.getpid() != parent:
                calls.append(1)
                if len(calls) == 3:
                    os._exit(7)
            return real_forward(norm, x)

        monkeypatch.setattr(ChannelNorm, "forward", forward)
        see_cpus(monkeypatch, 2)
        capsys.readouterr()
        out = tmp_path / "pre"
        assert run(["pretrain", "--config", cfg, "--data", data, "--pairs", pairs,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: training worker exited 7\n"
        assert not (out / "model.ckpt").exists()
        assert multiprocessing.active_children() == []

    def test_calibration_error_in_a_worker_comes_back_as_text(self, tmp_path, capfd,
                                                              monkeypatch):
        from reldepth.network import ChannelNorm

        cfg, data, pairs = synth_and_pairs(tmp_path, **FOUR_SAMPLE_BATCHES)
        parent, real_forward = os.getpid(), ChannelNorm.forward

        def forward(norm, x):
            # only the worker's share fails, at its first norm of a fresh net
            if os.getpid() != parent:
                raise ValueError("worker share failed")
            return real_forward(norm, x)

        monkeypatch.setattr(ChannelNorm, "forward", forward)
        see_cpus(monkeypatch, 2)
        capfd.readouterr()
        out = tmp_path / "pre"
        assert run(["pretrain", "--config", cfg, "--data", data, "--pairs", pairs,
                    "--out", str(out)]) == 2
        # no worker traceback on the shared stderr
        assert capfd.readouterr().err == "error: worker share failed\n"
        assert not (out / "model.ckpt").exists()
        assert multiprocessing.active_children() == []

    def test_loss_error_in_a_worker_reads_as_in_process(self, tmp_path, capsys, monkeypatch):
        from reldepth.network import training

        cfg, data, pairs = synth_and_pairs(tmp_path, **FOUR_SAMPLE_BATCHES)
        real_loss = training.ranking_loss

        def failing(fails):
            parent, calls = os.getpid(), []

            def ranking_loss(scores, grid_pairs, **kwargs):
                calls.append(grid_pairs)
                if fails(os.getpid() != parent, len(calls)):
                    raise ValueError(f"no ranking for {len(grid_pairs)} pairs")
                return real_loss(scores, grid_pairs, **kwargs)
            return ranking_loss

        errors = []
        # sample 1 of iteration 0 fails: the second call in one process, the
        # worker's first call on 2 cores
        for cpus, fails in ((1, lambda child, n: n == 2), (2, lambda child, n: child)):
            monkeypatch.setattr(training, "ranking_loss", failing(fails))
            see_cpus(monkeypatch, cpus)
            capsys.readouterr()
            out = tmp_path / f"pre{cpus}"
            assert run(["pretrain", "--config", cfg, "--data", data, "--pairs", pairs,
                        "--out", str(out)]) == 2
            assert not (out / "model.ckpt").exists()
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: training diverged at iteration 0: no ranking for")
        assert errors[1] == errors[0]
        assert multiprocessing.active_children() == []


    @pytest.mark.parametrize("wide_scenes,message,resume", [
        ((0, 1), "input 32x33 not divisible by total stride 8", True),
        ((1,), "images in a batch must share one shape", True),
        ((1,), "images in a batch must share one shape", False),
    ])
    def test_image_size_errors_read_as_in_process(self, tmp_path, capfd, monkeypatch,
                                                  wide_scenes, message, resume):
        from shutil import copy

        from reldepth.cli import load_config
        from reldepth.network import DepthNet, save_checkpoint

        # the wide scenes are 33 pixels wide; on calibrated norms every
        # sample's forward pass runs in its own share, on a fresh net the
        # first batch's calibration pass fails in every share
        cfg, data, pairs = synth_and_pairs(tmp_path, **FOUR_SAMPLE_BATCHES)
        (tmp_path / "wide").mkdir()
        wide = tmp_path / "wide" / "synth"
        assert run(["synth", "--config", write_config(tmp_path / "wide", **{"synth.width": 33}),
                    "--out", str(wide)]) == 0
        for i in wide_scenes:
            copy(wide / f"left_{i:03d}.ppm", data)
        net = DepthNet(load_config(cfg).net)
        net.forward(np.random.default_rng(0).random((2, 3, 32, 32)))
        save_checkpoint(net, tmp_path / "calibrated.ckpt", iteration=0)
        errors = []
        for cpus in (1, 2):
            see_cpus(monkeypatch, cpus)
            capfd.readouterr()
            out = tmp_path / f"pre{cpus}"
            resumed = ["--resume", str(tmp_path / "calibrated.ckpt")] if resume else []
            assert run(["pretrain", "--config", cfg, "--data", data, "--pairs", pairs,
                        "--out", str(out), *resumed]) == 2
            assert not (out / "model.ckpt").exists()
            errors.append(capfd.readouterr().err)
        # no worker traceback on the shared stderr
        assert errors == [f"error: {message}\n"] * 2
        assert multiprocessing.active_children() == []

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
                           ("eval.pred_threshold", -0.1),
                           ("train.pretrain.decay_factor", -1.0)):
            assert_config_rejected(write_config(tmp_path, **{key: value}), tmp_path, capsys)

    @pytest.mark.parametrize("key, value, message", [
        # json reads NaN and Infinity; NaN would turn clipping off unnoticed
        ("train.pretrain.clip_norm", float("nan"), "non-finite number NaN"),
        ("bins.focal_baseline", float("nan"), "non-finite number NaN"),
        ("sgm.p2", float("inf"), "non-finite number Infinity"),
        ("pairs.eq_threshold", -float("inf"), "non-finite number -Infinity"),
        # a field with an int default takes a JSON integer, not a fraction or bool
        ("synth.count", 2.5, "synth: count must be an integer, got 2.5"),
        ("pairs.count", 10.5, "pairs: count must be an integer, got 10.5"),
        ("train.pretrain.batch_size", 2.5, "train.pretrain: batch_size must be an integer"),
        ("sgm.bilsub.radius", True, "sgm.bilsub: radius must be an integer, got True"),
        ("train.finetune.augment.flip_prob", 5.0, "flip probability must lie in [0, 1]"),
        ("train.finetune.augment.flip_prob", -1.0, "flip probability must lie in [0, 1]"),
        ("sgm.directions", "diag", "one of all, horizontal, got 'diag'"),
        # so does every value of a tuple of integers, and a float field takes no bool
        ("train.net.stage_widths", [3.7, 4, 5],
         "train.net: every value in stage_widths must be an integer, got [3.7, 4, 5]"),
        ("synth.disparity_choices", [1.5, 6],
         "synth: every value in disparity_choices must be an integer, got [1.5, 6]"),
        ("train.pretrain.decay_iterations", [1.5],
         "train.pretrain: every value in decay_iterations must be an integer, got [1.5]"),
        ("sgm.directions", [[0, 1.5]],
         "sgm: every value in directions must be an integer, got [[0, 1.5]]"),
        ("train.pretrain.learning_rate", True,
         "train.pretrain: learning_rate must be a number, got True"),
        ("pairs.eq_threshold", True, "pairs: eq_threshold must be a number, got True"),
        # bins and eval are dataclass sections like the others
        ("bins.focal_baseline", "32", "bins: focal_baseline must be a number, got '32'"),
        ("bins.d_min", True, "bins: d_min must be a number, got True"),
        ("bins.alpha", True, "bins: alpha must be a number, got True"),
        ("eval.strict_pairs_only", 1, "eval: strict_pairs_only must be true or false, got 1"),
        # a list is no number, and a switch no list
        ("train.pretrain.decay_factor", [0.5],
         "train.pretrain: decay_factor must be a number, got [0.5]"),
        ("sgm.bilsub.enabled", [], "sgm.bilsub: enabled must be true or false, got []"),
        # a foreground rectangle needs 3 px a side, and a scene may draw any choice
        ("synth.width", 1, "synth: a scene with more than one layer must be at least 3 px"),
        ("synth.width", 2, "synth: a scene with more than one layer must be at least 3 px"),
        ("synth.height", 2, "synth: a scene with more than one layer must be at least 3 px"),
        ("synth.disparity_choices", [1, 6, 8], "synth: layer disparity 8 outside [0, 8)"),
    ])
    def test_bad_value_rejected_by_name(self, tmp_path, capsys, key, value, message):
        err = assert_config_rejected(write_config(tmp_path, **{key: value}), tmp_path, capsys)
        assert message in err

    def test_small_synth_frame_checked_at_the_largest_layer_count(self, tmp_path, capsys):
        from reldepth.cli import load_config

        one_to_two = {"synth.width": 2, "synth.layers_min": 1, "synth.layers_max": 2}
        err = assert_config_rejected(write_config(tmp_path, **one_to_two), tmp_path, capsys)
        assert "synth: a scene with more than one layer must be at least 3 px" in err
        # one layer needs no room for a foreground rectangle
        assert load_config(write_config(tmp_path, **{**one_to_two, "synth.layers_max": 1}))

    def test_numbers_load_as_floats_and_clip_norm_takes_null(self, tmp_path):
        from reldepth.cli import load_config

        cfg = load_config(write_config(tmp_path, **{
            "train.pretrain.clip_norm": None, "train.finetune.clip_norm": 5,
            "bins.focal_baseline": 32, "eval.pred_threshold": 0}))
        assert cfg.pretrain_clip_norm is None
        assert cfg.finetune_clip_norm == 5.0 and type(cfg.finetune_clip_norm) is float
        assert cfg.focal_baseline == 32.0 and type(cfg.focal_baseline) is float
        assert type(cfg.pred_threshold) is float

    @pytest.mark.parametrize("overrides, message", [
        ({"train.net.stage_widths": [0, 4, 4]}, "every value in stage_widths must be >= 1"),
        ({"train.net.head_widths": [0]}, "every value in head_widths must be >= 1"),
        ({"train.net.stage_widths": [], "train.net.stage_blocks": [],
          "train.net.stage_strides": []}, "the net needs at least one stage"),
        # a stage without blocks would skip its stride, and pairs would land
        # on the wrong cells of the output grid
        ({"train.net.stage_blocks": [1, 0, 1]}, "every value in stage_blocks must be >= 1"),
        ({"train.net.stage_strides": [0, 1, 1]}, "every value in stage_strides must be >= 1"),
        ({"train.net.seed": -1}, "seed must be >= 0, got -1"),
    ])
    def test_bad_net_rejected_before_training(self, tmp_path, capsys, overrides, message):
        out = tmp_path / "never"
        assert run(["pretrain", "--config", write_config(tmp_path, **overrides),
                    "--data", str(tmp_path / "data"), "--pairs", str(tmp_path / "pairs"),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: train.net: ") and message in err
        assert not out.exists()

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


def _leaf_keys(node, prefix=""):
    """The dotted name of every non-object value in a config tree."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


@pytest.mark.parametrize("config", [BASE_CONFIG, *SHIPPED_CONFIGS],
                         ids=lambda c: getattr(c, "name", "BASE_CONFIG"))
def test_every_config_key_is_a_field(config):
    from dataclasses import fields

    from reldepth.cli import BinsConfig, EvalConfig, StageConfig, SynthConfig
    from reldepth.network import AugmentConfig, NetConfig
    from reldepth.ordinal import PairSampleConfig
    from reldepth.stereo import BilSubParams, SgmParams

    # the dataclass each section is built from, so each key takes its
    # field's type and range checks
    sections = {"synth": SynthConfig, "sgm": SgmParams, "sgm.bilsub": BilSubParams,
                "pairs": PairSampleConfig, "bins": BinsConfig, "train.net": NetConfig,
                "train.pretrain": StageConfig, "train.finetune": StageConfig,
                "train.finetune.augment": AugmentConfig, "eval": EvalConfig}
    not_fields = {"seed", "sgm.median_radius", "sgm.bilsub.enabled",
                  "train.finetune.augment.enabled"}
    raw = config if isinstance(config, dict) else json.loads(config.read_text())
    for name in set(_leaf_keys(raw)) - not_fields:
        section, _, key = name.rpartition(".")
        assert section in sections, name
        assert key in {f.name for f in fields(sections[section])}, name


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

    @pytest.mark.parametrize("command, message, output", [
        ("whdr", "no scenes to score under", "whdr.json"),
        ("eval", "no scenes to evaluate under", "metrics.json"),
        ("pretrain", "dataset is empty", "model.ckpt"),
        ("finetune", "dataset is empty", "model.ckpt"),
    ], ids=["whdr", "eval", "pretrain", "finetune"])
    def test_whdr_with_no_scenes_is_runtime_failure(self, tmp_path, capsys, command, message,
                                                    output):
        from reldepth.cli import load_config
        from reldepth.network import DepthNet, save_checkpoint

        cfg = write_config(tmp_path, **{"synth.count": 0})
        synth_dir, pair_dir, out = tmp_path / "s", tmp_path / "p", tmp_path / "w"
        assert run(["synth", "--config", cfg, "--out", str(synth_dir)]) == 0
        assert run(["pairs", "--config", cfg, "--in", str(synth_dir),
                    "--out", str(pair_dir)]) == 0
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(DepthNet(load_config(cfg).net), ckpt, iteration=0)
        flags = {"whdr": ["--pairs", str(pair_dir), "--ckpt", str(ckpt)],
                 "eval": ["--ckpt", str(ckpt)], "pretrain": ["--pairs", str(pair_dir)],
                 "finetune": []}[command]
        capsys.readouterr()
        assert run([command, "--config", cfg, "--data", str(synth_dir), *flags,
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        if command in ("whdr", "eval"):
            assert str(synth_dir) in err
        assert not (out / output).exists()

    @pytest.mark.parametrize("command, case, message", [
        ("pretrain", "no scenes", "dataset is empty"),
        ("finetune", "no scenes", "dataset is empty"),
        ("pretrain", "pairs in one cell", "sample 0 has no pairs left at grid resolution"),
    ], ids=["pretrain-no-scenes", "finetune-no-scenes", "pretrain-pairs-in-one-cell"])
    def test_stage_failing_in_its_set_up_leaves_the_out_dir(self, tmp_path, capsys, command,
                                                            case, message):
        cfg, data, pairs = synth_and_pairs(tmp_path)
        inputs = ["--pairs", pairs] if command == "pretrain" else []
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--data", data, *inputs, "--out", str(out)]) == 0
        files = [out / "model.ckpt", out / f"{command}_log.jsonl"]
        before = [path.read_bytes() for path in files]
        assert all(before)
        if case == "no scenes":
            for directory in (data, pairs):
                (Path(directory) / "manifest.json").write_text('{"scenes": []}')
        else:  # both ends of every pair fall in one cell of the net's output grid
            (Path(pairs) / "pairs_000.csv").write_text("0,0,1,1,1\r\n1,0,0,1,-1\r\n")
        capsys.readouterr()
        assert run([command, "--config", cfg, "--data", data, *inputs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [path.read_bytes() for path in files] == before

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
        net = DepthNet(load_config(cfg).net)
        net.forward(np.random.default_rng(0).random((2, 3, 32, 32)))  # calibrates the norms
        save_checkpoint(net, ckpt, iteration=0)
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

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_resumed_training_equals_uninterrupted(self, tmp_path, command):
        configs = {}
        for total in (3, 6):
            (tmp_path / str(total)).mkdir()
            configs[total] = write_config(tmp_path / str(total), **{
                "train.finetune.augment": {"enabled": True},
                f"train.{command}.total_iterations": total})
        data, pairs = str(tmp_path / "data"), str(tmp_path / "pairs")
        assert run(["synth", "--config", configs[6], "--out", data]) == 0
        assert run(["pairs", "--config", configs[6], "--in", data, "--out", pairs]) == 0
        inputs = ["--data", data] + (["--pairs", pairs] if command == "pretrain" else [])
        straight, resumed = tmp_path / "straight", tmp_path / "resumed"
        assert run([command, "--config", configs[6], *inputs, "--out", str(straight)]) == 0
        assert run([command, "--config", configs[3], *inputs, "--out", str(resumed)]) == 0
        assert run([command, "--config", configs[6], *inputs, "--out", str(resumed),
                    "--resume", str(resumed / "model.ckpt")]) == 0
        for name in ("model.ckpt", f"{command}_log.jsonl"):
            assert (resumed / name).read_bytes() == (straight / name).read_bytes(), name

    @staticmethod
    def _resume_over_a_longer_log(tmp_path, tail):
        """Run 3 pretrain iterations, append tail(lines) to their log, where
        lines are the log lines of a straight 6-iteration run, and resume to 6:
        the checkpoint and log must have the straight run's bytes."""
        configs = {}
        for total in (3, 6):
            (tmp_path / str(total)).mkdir()
            configs[total] = write_config(tmp_path / str(total),
                                          **{"train.pretrain.total_iterations": total})
        cfg, data, pairs = synth_and_pairs(tmp_path)
        inputs = ["--data", data, "--pairs", pairs]
        straight, resumed = tmp_path / "straight", tmp_path / "resumed"
        assert run(["pretrain", "--config", configs[6], *inputs, "--out", str(straight)]) == 0
        assert run(["pretrain", "--config", configs[3], *inputs, "--out", str(resumed)]) == 0
        lines = (straight / "pretrain_log.jsonl").read_bytes().splitlines(keepends=True)
        assert len(lines) == 6
        with open(resumed / "pretrain_log.jsonl", "ab") as fh:
            fh.write(tail(lines))
        assert run(["pretrain", "--config", configs[6], *inputs, "--out", str(resumed),
                    "--resume", str(resumed / "model.ckpt")]) == 0
        for name in ("model.ckpt", "pretrain_log.jsonl"):
            assert (resumed / name).read_bytes() == (straight / name).read_bytes(), name

    def test_resume_cuts_the_log_back_to_the_checkpoint(self, tmp_path):
        # a run that died after logging past the checkpoint: iteration 3's
        # record, which the resumed run writes again, and half of iteration 4's
        self._resume_over_a_longer_log(
            tmp_path, lambda lines: lines[3] + lines[4][:len(lines[4]) // 2])

    def test_resume_drops_a_log_line_that_is_not_utf8(self, tmp_path):
        self._resume_over_a_longer_log(
            tmp_path, lambda lines: lines[3] + b"\xff\n" + lines[4][:len(lines[4]) // 2])

    @pytest.mark.parametrize("total", [3, 0])
    def test_fresh_stage_discards_the_old_log(self, tmp_path, total):
        configs = {}
        for t in (6, total):
            (tmp_path / str(t)).mkdir()
            configs[t] = write_config(tmp_path / str(t), **{"train.pretrain.total_iterations": t})
        _, data, pairs = synth_and_pairs(tmp_path)
        inputs = ["--data", data, "--pairs", pairs]
        old, empty = tmp_path / "old", tmp_path / "empty"
        assert run(["pretrain", "--config", configs[6], *inputs, "--out", str(old)]) == 0
        assert len((old / "pretrain_log.jsonl").read_text().splitlines()) == 6
        for out in (old, empty):
            assert run(["pretrain", "--config", configs[total], *inputs, "--out", str(out)]) == 0
        log = (old / "pretrain_log.jsonl").read_bytes()
        assert log == (empty / "pretrain_log.jsonl").read_bytes()
        assert len(log.splitlines()) == total

    def test_fresh_stage_never_reads_the_old_log(self, tmp_path):
        cfg, data, pairs = synth_and_pairs(tmp_path)
        inputs = ["--config", cfg, "--data", data, "--pairs", pairs]
        old, empty = tmp_path / "old", tmp_path / "empty"
        old.mkdir()
        (old / "pretrain_log.jsonl").write_bytes(b"\xff\xfe\n")  # not UTF-8
        for out in (old, empty):
            assert run(["pretrain", *inputs, "--out", str(out)]) == 0
        log = (old / "pretrain_log.jsonl").read_bytes()
        assert log == (empty / "pretrain_log.jsonl").read_bytes() and log

    @pytest.mark.parametrize("iteration", [4, 9])
    def test_resume_at_or_past_the_end_runs_no_step(self, tmp_path, iteration):
        from reldepth.cli import load_config
        from reldepth.network import DepthNet, save_checkpoint

        cfg, data, pairs = synth_and_pairs(tmp_path)  # 4 pretrain iterations
        ckpt, out = tmp_path / "done.ckpt", tmp_path / "pre"
        save_checkpoint(DepthNet(load_config(cfg).net), ckpt, iteration=iteration)
        assert run(["pretrain", "--config", cfg, "--data", data, "--pairs", pairs,
                    "--out", str(out), "--resume", str(ckpt)]) == 0
        assert (out / "model.ckpt").read_bytes() == ckpt.read_bytes()
        assert (out / "pretrain_log.jsonl").read_bytes() == b""

    def test_classifier_with_other_bins(self, tmp_path, capsys):
        from dataclasses import replace

        from reldepth.cli import load_config
        from reldepth.network import CLASSIFICATION, DepthNet, load_checkpoint, save_checkpoint

        cfg, data, _ = synth_and_pairs(tmp_path)  # bins.B is 8
        ckpt = tmp_path / "five.ckpt"
        net = DepthNet(replace(load_config(cfg).net, head_mode=CLASSIFICATION, head_channels=5))
        net.forward(np.random.default_rng(0).random((2, 3, 32, 32)))  # calibrates the norms
        save_checkpoint(net, ckpt, iteration=2)
        capsys.readouterr()
        assert run(["eval", "--config", cfg, "--data", data, "--ckpt", str(ckpt),
                    "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err == "error: scheme has 8 bins, head has 5\n"
        assert not (tmp_path / "eval" / "metrics.json").exists()
        # finetune swaps the head and trains from iteration 0
        fine = tmp_path / "fine"
        assert run(["finetune", "--config", cfg, "--data", data, "--out", str(fine),
                    "--resume", str(ckpt)]) == 0
        tuned, iteration = load_checkpoint(fine / "model.ckpt")
        assert (tuned.config.head_mode, tuned.config.head_channels, iteration) == (
            CLASSIFICATION, 8, 4)
        log = [json.loads(line) for line in (fine / "finetune_log.jsonl").read_text().splitlines()]
        assert [record["iter"] for record in log] == [0, 1, 2, 3]
        assert run(["eval", "--config", cfg, "--data", data, "--ckpt", str(fine / "model.ckpt"),
                    "--out", str(tmp_path / "eval")]) == 0

    def test_non_finite_ground_truth_fails_finetune(self, tmp_path, capsys):
        cfg, data, _ = synth_and_pairs(tmp_path)
        gt = Path(data) / "gt_001.pfm"
        raw = bytearray(gt.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))
        gt.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run(["finetune", "--config", cfg, "--data", data,
                    "--out", str(tmp_path / "fine")]) == 2
        assert "only -inf marks invalid pixels" in capsys.readouterr().err
        assert not (tmp_path / "fine" / "model.ckpt").exists()

    def test_training_commands_deterministic(self, pipeline):
        cfg, d = pipeline
        self._through_pairs(cfg, d)
        out_a, out_b = d["pre"] + "_a", d["pre"] + "_b"
        for out in (out_a, out_b):
            assert run(["pretrain", "--config", cfg, "--data", d["synth"],
                        "--pairs", d["pairs"], "--out", out]) == 0
        assert tree_digest(out_a) == tree_digest(out_b)
