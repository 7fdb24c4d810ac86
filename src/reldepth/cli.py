"""Batch front end: synth -> stereo -> pairs -> pretrain -> finetune -> eval,
driven by a JSON config with one section per subsystem and a global seed.

Every command validates its configuration against the owning module's
parameter types before touching any output, writes deterministic artifacts
(no timestamps, sorted JSON keys), and exits 0 on success, 1 on validation
failure, 2 on runtime failure.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import stereo
from .binning import BinningScheme, InfoGainMatrix, info_gain_matrix, make_bins
from .imagery import (
    DISPARITY,
    SynthSceneSpec,
    disparity_to_depth,
    generate_stereogram,
    load_image,
    load_pfm,
    save_image,
    save_pfm,
)
from .metrics import aggregate, evaluate
from .network import (
    AugmentConfig,
    DepthNet,
    NetConfig,
    TrainSchedule,
    finetune_classification,
    load_checkpoint,
    predict_depth,
    predict_relative,
    pretrain_ranking,
    save_checkpoint,
)
from .network.model import CLASSIFICATION, RANKING
from .ordinal import PairSampleConfig, load_pairs_csv, sample_pairs, save_pairs_csv, whdr

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    pass


@dataclass
class SynthConfig:
    count: int = 8
    width: int = 128
    height: int = 128
    layers_min: int = 2
    layers_max: int = 3
    disparity_choices: tuple = (1, 5, 9, 13)
    texture_density: float = 1.0
    d_max: int = 16

    def __post_init__(self):
        self.disparity_choices = tuple(int(d) for d in self.disparity_choices)
        if self.count < 0:
            raise ValueError("scene count must be >= 0")
        if not 1 <= self.layers_min <= self.layers_max:
            raise ValueError("need 1 <= layers_min <= layers_max")
        if self.layers_max > len(self.disparity_choices):
            raise ValueError("not enough disparity choices for the layer count")
        # one throwaway spec exercises the scene validators up front
        SynthSceneSpec(self.width, self.height,
                       self.disparity_choices[:self.layers_min],
                       self.texture_density, self.d_max, 0)


@dataclass
class PipelineConfig:
    seed: int
    synth: SynthConfig
    sgm_params: stereo.SgmParams
    bilsub: stereo.BilSubParams | None
    median_radius: int
    pair_cfg: PairSampleConfig
    scheme: BinningScheme
    gain: InfoGainMatrix
    focal_baseline: float
    net: NetConfig
    pretrain: TrainSchedule
    finetune: TrainSchedule
    augment_cfg: AugmentConfig | None
    pretrain_pair_mean: bool
    pretrain_clip_norm: float | None
    finetune_clip_norm: float | None
    strict_pairs_only: bool
    pred_threshold: float


def _section(parent, name, default=None):
    """parent's entry for the last part of the dotted name, which must be a
    JSON object; without a default the section is required."""
    sec = parent.get(name.rsplit(".", 1)[-1], default)
    if sec is None:
        raise ConfigError(f"missing config section {name!r}")
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return sec


def _schedule_from(sec, name):
    try:
        return TrainSchedule(
            batch_size=sec.get("batch_size", 4),
            learning_rate=sec.get("learning_rate", 2e-4),
            total_iterations=sec.get("total_iterations", 300),
            decay_iterations=tuple(sec.get("decay_iterations", ())),
            decay_factor=sec.get("decay_factor", 0.1),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train.{name}: {exc}") from None


def load_config(path, seed_override=None) -> PipelineConfig:
    """Parse and fully validate a pipeline config before any work happens."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    if seed_override is not None:
        seed = int(seed_override)

    try:
        synth = SynthConfig(**_section(raw, "synth"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"synth: {exc}") from None

    sgm_sec = _section(raw, "sgm")
    bilsub_sec = _section(sgm_sec, "sgm.bilsub", {"enabled": False})
    try:
        directions = sgm_sec.get("directions", "all")
        if directions == "all":
            dirs = stereo.DIRECTIONS_8
        elif directions == "horizontal":
            dirs = stereo.HORIZONTAL_PAIR
        else:
            dirs = tuple(tuple(d) for d in directions)
        sgm_params = stereo.SgmParams(
            p1=sgm_sec.get("p1", 0.09),
            p2=sgm_sec.get("p2", 0.72),
            d_max=sgm_sec.get("d_max", synth.d_max),
            directions=dirs,
        )
        bilsub = None
        if bilsub_sec.get("enabled", True):
            bilsub = stereo.BilSubParams(
                spatial_sigma=bilsub_sec.get("spatial_sigma", 2.0),
                range_sigma=bilsub_sec.get("range_sigma", 0.1),
                radius=bilsub_sec.get("radius", 3),
            )
        median_radius = int(sgm_sec.get("median_radius", 1))
        if median_radius < 0:
            raise ValueError("median_radius must be >= 0")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sgm: {exc}") from None

    pairs_sec = _section(raw, "pairs")
    try:
        pair_cfg = PairSampleConfig(
            count=pairs_sec.get("count", 1000),
            eq_threshold=pairs_sec.get("eq_threshold", 1.0),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"pairs: {exc}") from None

    bins_sec = _section(raw, "bins")
    try:
        scheme = make_bins(bins_sec.get("d_min", 2.0), bins_sec.get("d_max", 40.0),
                           bins_sec.get("B", 16))
        gain = info_gain_matrix(scheme.bins, bins_sec.get("alpha", 2.0))
        focal_baseline = float(bins_sec.get("focal_baseline", 32.0))
        if focal_baseline <= 0:
            raise ValueError("focal_baseline must be positive")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bins: {exc}") from None

    train_sec = _section(raw, "train")
    net_sec = _section(train_sec, "train.net", {})
    pretrain_sec = _section(train_sec, "train.pretrain", {})
    finetune_sec = _section(train_sec, "train.finetune", {})
    try:
        net = NetConfig(
            in_channels=3,
            stage_widths=tuple(net_sec.get("stage_widths", (16, 32, 64))),
            stage_blocks=tuple(net_sec.get("stage_blocks", (2, 2, 2))),
            stage_strides=tuple(net_sec.get("stage_strides", (1, 2, 2))),
            head_widths=tuple(net_sec.get("head_widths", (64, 32))),
            head_mode=RANKING,
            head_channels=1,
            seed=int(net_sec.get("seed", seed)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train.net: {exc}") from None
    pretrain = _schedule_from(pretrain_sec, "pretrain")
    finetune = _schedule_from(finetune_sec, "finetune")
    pretrain_pair_mean = bool(pretrain_sec.get("pair_mean", False))

    def _clip_from(sec, name):
        value = sec.get("clip_norm")
        if value is None:
            return None
        if not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(f"train.{name}: clip_norm must be positive")
        return float(value)

    pretrain_clip = _clip_from(pretrain_sec, "pretrain")
    finetune_clip = _clip_from(finetune_sec, "finetune")
    aug_sec = _section(finetune_sec, "train.finetune.augment", {"enabled": False})
    augment_cfg = None
    if aug_sec.get("enabled", True):
        try:
            augment_cfg = AugmentConfig(
                scale_range=tuple(aug_sec.get("scale_range", (1.0, 1.25))),
                flip_prob=aug_sec.get("flip_prob", 0.5),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"train.finetune.augment: {exc}") from None

    eval_sec = _section(raw, "eval", {})
    strict_pairs_only = bool(eval_sec.get("strict_pairs_only", True))
    try:
        pred_threshold = float(eval_sec.get("pred_threshold", 0.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"eval: pred_threshold: {exc}") from None
    if pred_threshold < 0:
        raise ConfigError("eval: pred_threshold must be >= 0")

    if sgm_params.d_max < synth.d_max:
        raise ConfigError(
            f"sgm.d_max ({sgm_params.d_max}) below synth.d_max ({synth.d_max})"
        )

    return PipelineConfig(
        seed=seed, synth=synth, sgm_params=sgm_params, bilsub=bilsub,
        median_radius=median_radius, pair_cfg=pair_cfg, scheme=scheme, gain=gain,
        focal_baseline=focal_baseline, net=net, pretrain=pretrain,
        finetune=finetune, augment_cfg=augment_cfg,
        pretrain_pair_mean=pretrain_pair_mean,
        pretrain_clip_norm=pretrain_clip, finetune_clip_norm=finetune_clip,
        strict_pairs_only=strict_pairs_only, pred_threshold=pred_threshold,
    )


def _derive_seed(*parts):
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _read_manifest(dirpath):
    mpath = Path(dirpath) / "manifest.json"
    if not mpath.is_file():
        raise FileNotFoundError(f"no manifest.json under {dirpath}")
    return json.loads(mpath.read_text())


def _scene_spec(cfg: PipelineConfig, index):
    scene_seed = _derive_seed(cfg.seed, index)
    rng = np.random.default_rng(scene_seed)
    n_layers = int(rng.integers(cfg.synth.layers_min, cfg.synth.layers_max + 1))
    disps = np.sort(rng.choice(np.asarray(cfg.synth.disparity_choices),
                               size=n_layers, replace=False))
    return SynthSceneSpec(
        width=cfg.synth.width, height=cfg.synth.height,
        layer_disparities=tuple(int(d) for d in disps),
        texture_density=cfg.synth.texture_density,
        d_max=cfg.synth.d_max, seed=scene_seed,
    )


# ---- commands ----------------------------------------------------------------


def cmd_synth(cfg: PipelineConfig, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenes = []
    for i in range(cfg.synth.count):
        spec = _scene_spec(cfg, i)
        left, right, gt = generate_stereogram(spec)
        names = {
            "left": f"left_{i:03d}.ppm",
            "right": f"right_{i:03d}.ppm",
            "gt": f"gt_{i:03d}.pfm",
        }
        save_image(left, out / names["left"])
        save_image(right, out / names["right"])
        save_pfm(gt, out / names["gt"])
        scenes.append({
            "index": i, "seed": spec.seed,
            "layer_disparities": list(spec.layer_disparities), **names,
        })
    _write_json(out / "manifest.json", {
        "kind": "synth", "count": cfg.synth.count,
        "width": cfg.synth.width, "height": cfg.synth.height,
        "d_max": cfg.synth.d_max, "scenes": scenes,
    })
    print(f"wrote {cfg.synth.count} scenes to {out}")
    return EXIT_OK


def cmd_stereo(cfg: PipelineConfig, in_dir, out_dir):
    manifest = _read_manifest(in_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries, failures = [], []
    for scene in manifest["scenes"]:
        name = f"disp_{scene['index']:03d}.pfm"
        try:
            left = load_image(Path(in_dir) / scene["left"])
            right = load_image(Path(in_dir) / scene["right"])
            disp = stereo.match_pair(left, right, cfg.sgm_params,
                                     bilsub_params=cfg.bilsub,
                                     median_radius=cfg.median_radius)
            save_pfm(disp, out / name)
            entries.append({"index": scene["index"], "disparity": name})
        except (OSError, ValueError) as exc:
            failures.append({"index": scene["index"], "error": str(exc)})
            print(f"scene {scene['index']}: {exc}", file=sys.stderr)
    _write_json(out / "manifest.json", {
        "kind": "disparity", "scenes": entries, "failures": failures,
        "d_max": cfg.sgm_params.d_max,
    })
    print(f"matched {len(entries)}/{len(manifest['scenes'])} scenes into {out}")
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_pairs(cfg: PipelineConfig, in_dir, out_dir):
    manifest = _read_manifest(in_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries, failures = [], []
    for scene in manifest["scenes"]:
        name = f"pairs_{scene['index']:03d}.csv"
        try:
            # matched disparities from a stereo run, or ground truth from a
            # synth dataset
            disp_name = scene.get("disparity", scene.get("gt"))
            if disp_name is None:
                raise ValueError("manifest entry has no disparity map")
            disp = load_pfm(Path(in_dir) / disp_name, kind=DISPARITY)
            pair_cfg = PairSampleConfig(
                count=cfg.pair_cfg.count,
                eq_threshold=cfg.pair_cfg.eq_threshold,
                seed=_derive_seed(cfg.seed, 7, scene["index"]),
            )
            save_pairs_csv(sample_pairs(disp, pair_cfg), out / name)
            entries.append({"index": scene["index"], "pairs": name})
        except (OSError, ValueError) as exc:
            failures.append({"index": scene["index"], "error": str(exc)})
            print(f"scene {scene['index']}: {exc}", file=sys.stderr)
    _write_json(out / "manifest.json", {
        "kind": "pairs", "count": cfg.pair_cfg.count, "scenes": entries,
        "failures": failures,
    })
    print(f"sampled pairs for {len(entries)}/{len(manifest['scenes'])} scenes into {out}")
    return EXIT_RUNTIME if failures else EXIT_OK


def _log_writer(fh):
    def write(record):
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return write


def _train_stage(cfg: PipelineConfig, stage, out_dir, resume, continues, trainer, *args,
                 **kwargs):
    """Run trainer(net, *args, schedule, ...) for one stage ("pretrain" or
    "finetune") on a fresh net or the resume checkpoint's, then save
    model.ckpt. When continues(net) holds for a checkpoint, training picks up
    at its iteration and <stage>_log.jsonl is appended to, not restarted."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net, iteration = (DepthNet(cfg.net), 0) if resume is None else load_checkpoint(resume)
    start_iteration = iteration if continues(net) else 0
    schedule = getattr(cfg, stage)
    with open(out / f"{stage}_log.jsonl", "w" if start_iteration == 0 else "a") as fh:
        trainer(net, *args, schedule, log_fn=_log_writer(fh),
                start_iteration=start_iteration, **kwargs)
    ckpt = out / "model.ckpt"
    save_checkpoint(net, ckpt, iteration=max(start_iteration, schedule.total_iterations))
    return ckpt


def cmd_pretrain(cfg: PipelineConfig, data_dir, pairs_dir, out_dir, resume=None):
    data_manifest = _read_manifest(data_dir)
    pairs_manifest = _read_manifest(pairs_dir)
    pair_files = {e["index"]: e["pairs"] for e in pairs_manifest["scenes"]}
    dataset = []
    for scene in data_manifest["scenes"]:
        if scene["index"] not in pair_files:
            raise FileNotFoundError(f"no pair file for scene {scene['index']}")
        image = load_image(Path(data_dir) / scene["left"])
        pairs = load_pairs_csv(Path(pairs_dir) / pair_files[scene["index"]])
        dataset.append((image, pairs))

    def continues(net):
        if net.config.head_mode != RANKING:
            raise ValueError("resume checkpoint is not a ranking model")
        return True

    ckpt = _train_stage(cfg, "pretrain", out_dir, resume, continues, pretrain_ranking,
                        dataset, seed=_derive_seed(cfg.seed, 11),
                        pair_mean=cfg.pretrain_pair_mean, clip_norm=cfg.pretrain_clip_norm)
    print(f"pretrained ranking model saved to {ckpt}")
    return EXIT_OK


def _finetune_dataset(cfg, data_dir):
    manifest = _read_manifest(data_dir)
    dataset = []
    for scene in manifest["scenes"]:
        image = load_image(Path(data_dir) / scene["left"])
        gt = load_pfm(Path(data_dir) / scene["gt"], kind=DISPARITY)
        dataset.append((image, disparity_to_depth(gt, cfg.focal_baseline)))
    return dataset


def cmd_finetune(cfg: PipelineConfig, data_dir, out_dir, resume=None):
    dataset = _finetune_dataset(cfg, data_dir)

    def continues(net):
        # a classifier with the config's bins is an interrupted finetune; any
        # other checkpoint only supplies the trunk and the trainer swaps its head
        return (net.config.head_mode == CLASSIFICATION
                and net.config.head_channels == cfg.scheme.bins)

    ckpt = _train_stage(cfg, "finetune", out_dir, resume, continues, finetune_classification,
                        dataset, cfg.scheme, cfg.gain, seed=_derive_seed(cfg.seed, 13),
                        augment_cfg=cfg.augment_cfg, clip_norm=cfg.finetune_clip_norm)
    print(f"finetuned classifier saved to {ckpt}")
    return EXIT_OK


def cmd_eval(cfg: PipelineConfig, data_dir, out_dir, ckpt=None, pred_dir=None):
    if (ckpt is None) == (pred_dir is None):
        raise ValueError("exactly one of --ckpt / --pred is required")
    manifest = _read_manifest(data_dir)
    net = None
    if ckpt is not None:
        net, _ = load_checkpoint(ckpt)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports, per_scene = [], []
    for scene in manifest["scenes"]:
        gt_disp = load_pfm(Path(data_dir) / scene["gt"], kind=DISPARITY)
        gt = disparity_to_depth(gt_disp, cfg.focal_baseline)
        if net is not None:
            image = load_image(Path(data_dir) / scene["left"])
            pred = predict_depth(net, image, cfg.scheme)
        else:
            pred = load_pfm(Path(pred_dir) / scene["gt"], kind="depth")
        report = evaluate(pred, gt)
        reports.append(report)
        per_scene.append({"index": scene["index"], **report.to_dict()})
    pooled = aggregate(reports)
    _write_json(out / "metrics.json",
                {"aggregate": pooled.to_dict(), "per_scene": per_scene})
    print(pooled.to_json())
    return EXIT_OK


def cmd_whdr(cfg: PipelineConfig, data_dir, pairs_dir, ckpt, out_dir):
    manifest = _read_manifest(data_dir)
    if not manifest["scenes"]:
        raise ValueError(f"no scenes to score under {data_dir}")
    pairs_manifest = _read_manifest(pairs_dir)
    pair_files = {e["index"]: e["pairs"] for e in pairs_manifest["scenes"]}
    net, _ = load_checkpoint(ckpt)
    if net.config.head_mode != RANKING:
        raise ValueError("whdr scoring expects a ranking checkpoint")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    per_scene, disagree, total = [], 0.0, 0
    for scene in manifest["scenes"]:
        if scene["index"] not in pair_files:
            raise FileNotFoundError(f"no pair file for scene {scene['index']}")
        pairs = load_pairs_csv(Path(pairs_dir) / pair_files[scene["index"]])
        if cfg.strict_pairs_only:
            pairs = [p for p in pairs if p.r != 0]
        if not pairs:
            raise ValueError(f"scene {scene['index']}: no pairs left to score")
        image = load_image(Path(data_dir) / scene["left"])
        pred = predict_relative(net, image)
        rate = whdr(pred, pairs, pred_threshold=cfg.pred_threshold)
        per_scene.append({"index": scene["index"], "whdr": rate,
                          "pair_count": len(pairs)})
        disagree += rate * len(pairs)
        total += len(pairs)
    pooled = disagree / total
    _write_json(out / "whdr.json", {"whdr": pooled, "per_scene": per_scene})
    print(f"whdr {pooled:.6f} over {total} pairs")
    return EXIT_OK


# ---- argument parsing ----------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reldepth",
        description="stereo-supervised ordinal pretraining and depth classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        for flag, (required, help_str) in flags.items():
            p.add_argument(flag, required=required, help=help_str)
        return p

    add("synth", "generate layered random-dot stereo scenes",
        **{"--out": (True, "output dataset directory")})
    add("stereo", "run the SGM front end over a synth dataset",
        **{"--in": (True, "synth dataset directory"),
           "--out": (True, "disparity output directory")})
    add("pairs", "sample ordinal pairs from disparity maps",
        **{"--in": (True, "disparity directory"),
           "--out": (True, "pair CSV output directory")})
    add("pretrain", "train the ranking model on ordinal pairs",
        **{"--data": (True, "synth dataset directory"),
           "--pairs": (True, "pair CSV directory"),
           "--out": (True, "checkpoint/log output directory"),
           "--resume": (False, "ranking checkpoint to continue from")})
    add("finetune", "train the depth classifier on metric ground truth",
        **{"--data": (True, "synth dataset directory"),
           "--out": (True, "checkpoint/log output directory"),
           "--resume": (False, "checkpoint to continue from")})
    add("eval", "score depth predictions against ground truth",
        **{"--data": (True, "synth dataset directory"),
           "--out": (True, "metrics output directory"),
           "--ckpt": (False, "checkpoint to predict with"),
           "--pred": (False, "directory of predicted depth PFMs")})
    add("whdr", "score a ranking checkpoint on ordinal pairs",
        **{"--data": (True, "synth dataset directory"),
           "--pairs": (True, "pair CSV directory"),
           "--ckpt": (True, "ranking checkpoint"),
           "--out": (True, "whdr output directory")})
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "synth":
            return cmd_synth(cfg, args.out)
        if args.command == "stereo":
            return cmd_stereo(cfg, getattr(args, "in"), args.out)
        if args.command == "pairs":
            return cmd_pairs(cfg, getattr(args, "in"), args.out)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, args.data, args.pairs, args.out, resume=args.resume)
        if args.command == "finetune":
            return cmd_finetune(cfg, args.data, args.out, resume=args.resume)
        if args.command == "eval":
            return cmd_eval(cfg, args.data, args.out, ckpt=args.ckpt, pred_dir=args.pred)
        if args.command == "whdr":
            return cmd_whdr(cfg, args.data, args.pairs, args.ckpt, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
