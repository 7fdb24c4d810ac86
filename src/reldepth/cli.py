"""Batch front end: synth -> stereo -> pairs -> pretrain -> finetune -> eval,
driven by a JSON config with one section per subsystem and a global seed.

Every command validates its configuration against the owning module's
parameter types before touching any output, writes deterministic artifacts
(no timestamps, sorted JSON keys), and exits 0 on success, 1 on validation
failure, 2 on runtime failure.
"""

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin

import numpy as np

from . import stereo, workers
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
from .imagery.io import _atomic_write
from .metrics import MetricsReport, aggregate, evaluate
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
from .ordinal import EQUAL, PairSampleConfig, load_pairs_csv, sample_pairs, save_pairs_csv, whdr

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

# named direction sets the sgm section's "directions" key may give
DIRECTION_SETS = {"all": stereo.DIRECTIONS_8, "horizontal": stereo.HORIZONTAL_PAIR}
# the net fields a --resume checkpoint must share with train.net; the head's
# mode and channel count are left out because finetune swaps the head
RESUME_FIELDS = ("in_channels", "stage_widths", "stage_blocks", "stage_strides", "head_widths")


class ConfigError(ValueError):
    pass


@dataclass
class SynthConfig:
    count: int = 8
    width: int = 128
    height: int = 128
    layers_min: int = 2
    layers_max: int = 3
    disparity_choices: tuple[int, ...] = (1, 5, 9, 13)
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
        # a scene may draw any of the choices and up to layers_max layers, so
        # throwaway specs put each choice at that layer count through the
        # scene validators up front
        for d in self.disparity_choices:
            SynthSceneSpec(self.width, self.height, (d,) * self.layers_max,
                           self.texture_density, self.d_max, 0)


@dataclass
class StageConfig(TrainSchedule):
    clip_norm: float | None = None
    pair_mean: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be a positive number, got {self.clip_norm!r}")
        self.clip_norm = None if self.clip_norm is None else float(self.clip_norm)


@dataclass
class BinsConfig:
    d_min: float = 2.0
    d_max: float = 40.0
    B: int = 16
    alpha: float = 2.0
    focal_baseline: float = 32.0

    def __post_init__(self):
        self.scheme = make_bins(self.d_min, self.d_max, self.B)
        self.gain = info_gain_matrix(self.scheme.bins, self.alpha)
        self.focal_baseline = float(self.focal_baseline)
        if self.focal_baseline <= 0:
            raise ValueError("focal_baseline must be positive")


@dataclass
class EvalConfig:
    strict_pairs_only: bool = True
    pred_threshold: float = 0.0

    def __post_init__(self):
        if self.pred_threshold < 0:
            raise ValueError(
                f"pred_threshold must be a non-negative number, got {self.pred_threshold!r}")
        self.pred_threshold = float(self.pred_threshold)


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
    pretrain: StageConfig
    finetune: StageConfig
    augment_cfg: AugmentConfig | None
    pretrain_pair_mean: bool
    pretrain_clip_norm: float | None
    finetune_clip_norm: float | None
    strict_pairs_only: bool
    pred_threshold: float


def _section(parent, name, default=None):
    """Remove and return parent's entry for the last part of the dotted name,
    which must be a JSON object; without a default the section is required."""
    sec = parent.pop(name.rsplit(".", 1)[-1], default)
    if sec is None:
        raise ConfigError(f"missing config section {name!r}")
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return sec


def _reject_unknown(keys, name, known=()):
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ConfigError(f"{name}: unknown key {unknown[0]!r}")


# the JSON values a field of each type takes and their name; a boolean is no number
JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
              float: ((int, float), "a number")}


def _value_type(annotation):
    """bool, int or float when every value a field with the type annotation
    holds, through nested tuples and past an X | None, has that type;
    otherwise None."""
    if annotation in JSON_TYPES:
        return annotation
    types = {_value_type(arg) for arg in get_args(annotation) if arg not in (Ellipsis, NoneType)}
    return types.pop() if get_origin(annotation) in (tuple, UnionType) and len(types) == 1 else None


def _holds_only(value, annotation, types):
    """Whether value is a list wherever the type annotation is a tuple, and
    every other value in it null where the annotation is an X | None or else
    of one of the types exactly."""
    if get_origin(annotation) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _holds_only(entry, get_args(annotation)[0], types) for entry in value)
    return type(value) in types or value is None and NoneType in get_args(annotation)


def _build(name, base, sec, fixed=(), switch=False):
    """The dataclass instance base with the section's keys replacing its
    fields. Each key must name a field other than the fixed ones, which the
    code sets. A field typed bool takes only a JSON boolean, int only a JSON
    integer and float any JSON number but a boolean; each entry of a tuple of
    them the same, and an X | None field also null. A switch section also
    takes "enabled", a boolean that is true by default, and is None when it is
    false. A bad key or value is a config error of the named section."""
    types = {f.name: f.type for f in fields(base) if f.name not in fixed}
    if switch:
        types["enabled"] = bool
    _reject_unknown(sec, name, types)
    for key, value in sec.items():
        kind = _value_type(types[key])
        if kind and not _holds_only(value, types[key], JSON_TYPES[kind][0]):
            each = "every value in " if get_origin(types[key]) is tuple else ""
            raise ConfigError(f"{name}: {each}{key} must be {JSON_TYPES[kind][1]}, got {value!r}")
    enabled = sec.pop("enabled", True)
    try:
        built = replace(base, **sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None
    return built if enabled else None


def _non_negative_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _non_finite(constant):
    raise ConfigError(f"config holds the non-finite number {constant}")


def load_config(path, seed_override=None) -> PipelineConfig:
    """Parse and fully validate a pipeline config before any work happens.

    A section backed by a parameter dataclass takes that dataclass's field
    names as its keys and its defaults; an unknown key, or a NaN or infinite
    number anywhere, is a config error."""
    try:
        raw = json.loads(Path(path).read_text(), parse_constant=_non_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    seed = _non_negative_int(raw.pop("seed", 0), "seed")
    if seed_override is not None:
        # a decimal string is accepted too, as callers pass the flag's text
        if str(seed_override).isdecimal():
            seed_override = int(seed_override)
        seed = _non_negative_int(seed_override, "--seed")

    synth = _build("synth", SynthConfig(), _section(raw, "synth"))

    sgm_sec = _section(raw, "sgm")
    bilsub = _build("sgm.bilsub", stereo.BilSubParams(),
                    _section(sgm_sec, "sgm.bilsub", {"enabled": False}), switch=True)
    median_radius = _non_negative_int(sgm_sec.pop("median_radius", 1), "sgm: median_radius")
    directions = sgm_sec.get("directions")
    if isinstance(directions, str):
        if directions not in DIRECTION_SETS:
            raise ConfigError(f"sgm: directions must be a list of [dy, dx] steps or one of"
                              f" {', '.join(DIRECTION_SETS)}, got {directions!r}")
        sgm_sec["directions"] = DIRECTION_SETS[directions]
    sgm_sec.setdefault("d_max", synth.d_max)
    sgm_params = _build("sgm", stereo.SgmParams.defaults(), sgm_sec, fixed=("border_cost",))
    if sgm_params.d_max < synth.d_max:
        raise ConfigError(
            f"sgm.d_max ({sgm_params.d_max}) below synth.d_max ({synth.d_max})"
        )

    pair_cfg = _build("pairs", PairSampleConfig(seed=seed), _section(raw, "pairs"),
                      fixed=("seed",))
    bins = _build("bins", BinsConfig(), _section(raw, "bins"))

    train_sec = _section(raw, "train")
    net = _build("train.net", NetConfig(seed=seed), _section(train_sec, "train.net", {}),
                 fixed=("in_channels", "head_mode", "head_channels"))
    pretrain = _build("train.pretrain", StageConfig(), _section(train_sec, "train.pretrain", {}))
    finetune_sec = _section(train_sec, "train.finetune", {})
    augment_cfg = _build("train.finetune.augment", AugmentConfig(),
                         _section(finetune_sec, "train.finetune.augment", {"enabled": False}),
                         switch=True)
    finetune = _build("train.finetune", StageConfig(), finetune_sec, fixed=("pair_mean",))
    _reject_unknown(train_sec, "train")
    evaluation = _build("eval", EvalConfig(), _section(raw, "eval", {}))
    _reject_unknown(raw, "config")

    return PipelineConfig(
        seed=seed, synth=synth, sgm_params=sgm_params, bilsub=bilsub,
        median_radius=median_radius, pair_cfg=pair_cfg, scheme=bins.scheme, gain=bins.gain,
        focal_baseline=bins.focal_baseline, net=net, pretrain=pretrain,
        finetune=finetune, augment_cfg=augment_cfg, pretrain_pair_mean=pretrain.pair_mean,
        pretrain_clip_norm=pretrain.clip_norm, finetune_clip_norm=finetune.clip_norm,
        strict_pairs_only=evaluation.strict_pairs_only, pred_threshold=evaluation.pred_threshold,
    )


def _derive_seed(*parts):
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _write_json(path, payload):
    with _atomic_write(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _read_scenes(dirpath):
    """The scene entries of dirpath's manifest.json, each an object with an
    integer "index"."""
    mpath = Path(dirpath) / "manifest.json"
    if not mpath.is_file():
        raise FileNotFoundError(f"no manifest.json under {dirpath}")
    manifest = json.loads(mpath.read_text())
    scenes = manifest.get("scenes") if isinstance(manifest, dict) else None
    if not isinstance(scenes, list):
        raise ValueError(f"{mpath}: no list of scenes")
    for scene in scenes:
        if not isinstance(scene, dict) or type(scene.get("index")) is not int:
            raise ValueError(f"{mpath}: scene entry without an integer index")
    return scenes


def _scene_file(dirpath, scene, key):
    """dirpath / the file the scene's manifest entry names under key."""
    name = scene.get(key)
    if not isinstance(name, str):
        raise ValueError(f"scene {scene['index']}: manifest entry has no {key!r} file")
    return Path(dirpath) / name


def _pair_loader(pairs_dir):
    """load(scene) -> the pairs that pairs_dir's manifest lists for the scene."""
    files = {e["index"]: _scene_file(pairs_dir, e, "pairs") for e in _read_scenes(pairs_dir)}

    def load(scene):
        if scene["index"] not in files:
            raise FileNotFoundError(f"no pair file for scene {scene['index']}")
        return load_pairs_csv(files[scene["index"]])
    return load


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

    def make(i):
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
        return {
            "index": i, "seed": spec.seed,
            "layer_disparities": list(spec.layer_disparities), **names,
        }

    scenes = _every_scene(list(range(cfg.synth.count)), make, "synth worker")
    _write_json(out / "manifest.json", {
        "kind": "synth", "count": cfg.synth.count,
        "width": cfg.synth.width, "height": cfg.synth.height,
        "d_max": cfg.synth.d_max, "scenes": scenes,
    })
    print(f"wrote {cfg.synth.count} scenes to {out}")
    return EXIT_OK


def _every_scene(scenes, work, name, net=None):
    """work(scene) for each scene, in scene order, worked in _in_shares(...,
    name); the first failure in scene order raises ValueError with its text.
    The net work predicts with, if any, is refused before any scene if a norm
    of it is uncalibrated: that norm would take its statistics from the first
    scene it scores, fitting the net to the data it is scored on."""
    for norm_name, norm in net.named_norms() if net is not None else ():
        if not norm.calibrated:
            raise ValueError(f"norm {norm_name} of the net was calibrated by no training step")
    outcomes = _in_shares(scenes, work, name)
    for _, error in outcomes:
        if error is not None:
            raise ValueError(error)
    return [result for result, _ in outcomes]


def _scene_loop(in_dir, out_dir, work, verb, name, **manifest):
    """Run work(scene, out) over the scenes of in_dir's manifest; it returns
    the scene's entry for the output manifest. A scene that fails with
    OSError or ValueError is listed under "failures" and the others still run.
    The scenes are worked in _in_shares(..., name), so the manifest, the
    stderr lines and the exit code do not depend on the process count.
    Writes out_dir/manifest.json (the entries plus the manifest keyword
    arguments) and returns exit code 2 if any scene failed."""
    scenes = _read_scenes(in_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def attempt(scene):
        return {"index": scene["index"], **work(scene, out)}

    entries, failures = [], []
    for scene, (entry, error) in zip(scenes, _in_shares(scenes, attempt, name)):
        if error is None:
            entries.append(entry)
        else:
            failures.append({"index": scene["index"], "error": error})
            print(f"scene {scene['index']}: {error}", file=sys.stderr)
    _write_json(out / "manifest.json", {**manifest, "scenes": entries, "failures": failures})
    print(f"{verb} {len(entries)}/{len(scenes)} scenes into {out}")
    return EXIT_RUNTIME if failures else EXIT_OK


def _in_shares(scenes, work, name):
    """The outcome of work(scene) for each scene, in scene order: (result,
    None), or (None, error text) for a scene whose work raised OSError or
    ValueError. Scene k goes to share k % n of workers.forked's n shares: this
    process works share 0 and a forked child named name each other share,
    sending back one outcome per scene. A child that dies fails each scene it
    did not report with "<name> exited <code>". Only builtin outcomes cross
    the pipes (see workers.py). Every child is joined before this returns or
    raises."""

    def attempt(scene):
        try:
            return work(scene), None
        except (OSError, ValueError) as exc:
            return None, str(exc)

    def serve(k, shares, conn):
        for scene in scenes[k::shares]:
            conn.send(attempt(scene))

    with workers.forked(len(scenes), serve, name) as children:
        shares = len(children) + 1
        outcomes = [None] * len(scenes)
        outcomes[0::shares] = [attempt(scene) for scene in scenes[0::shares]]
        for k, child in enumerate(children, 1):
            for i in range(k, len(scenes), shares):
                try:
                    outcomes[i] = child.recv()
                except workers.WorkerExited as exc:  # raised again for each later scene
                    outcomes[i] = None, str(exc)
        return outcomes


def cmd_stereo(cfg: PipelineConfig, in_dir, out_dir):
    def match(scene, out):
        left = load_image(_scene_file(in_dir, scene, "left"))
        right = load_image(_scene_file(in_dir, scene, "right"))
        disp = stereo.match_pair(left, right, cfg.sgm_params, bilsub_params=cfg.bilsub,
                                 median_radius=cfg.median_radius)
        name = f"disp_{scene['index']:03d}.pfm"
        save_pfm(disp, out / name)
        return {"disparity": name}

    return _scene_loop(in_dir, out_dir, match, "matched", "stereo worker",
                       kind="disparity", d_max=cfg.sgm_params.d_max)


def cmd_pairs(cfg: PipelineConfig, in_dir, out_dir):
    def sample(scene, out):
        # matched disparities from a stereo run, or ground truth from a
        # synth dataset
        key = "disparity" if "disparity" in scene else "gt"
        disp = load_pfm(_scene_file(in_dir, scene, key), kind=DISPARITY)
        pair_cfg = replace(cfg.pair_cfg, seed=_derive_seed(cfg.seed, 7, scene["index"]))
        name = f"pairs_{scene['index']:03d}.csv"
        save_pairs_csv(sample_pairs(disp, pair_cfg), out / name)
        return {"pairs": name}

    return _scene_loop(in_dir, out_dir, sample, "sampled pairs for", "pairs worker",
                       kind="pairs", count=cfg.pair_cfg.count)


def _cut_log(path, iteration):
    """Rewrite the training log at path, if there is one, keeping only the
    whole records of iterations before iteration."""
    if not path.is_file():
        return
    kept = []
    for line in path.read_text().split("\n"):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and type(record.get("iter")) is int \
                and record["iter"] < iteration:
            kept.append(line + "\n")
    with _atomic_write(path, "w") as fh:
        fh.writelines(kept)


@contextmanager
def _log_writer(path, start_iteration):
    """Yield a log_fn that writes each record as a JSON line to the training
    log at path. The log is opened at the first record, or when the block
    ends if it wrote none: restarted when start_iteration is 0, else cut
    back to the records before start_iteration and appended to. So a block
    that raises before its first record leaves the log as it was."""
    fh = None

    def write(record):
        nonlocal fh
        if fh is None:
            fh = _open_log(path, start_iteration)
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    try:
        yield write
        if fh is None:
            fh = _open_log(path, start_iteration)
    finally:
        if fh is not None:
            fh.close()


def _open_log(path, start_iteration):
    if start_iteration == 0:
        return open(path, "w")
    _cut_log(path, start_iteration)
    return open(path, "a")


def _train_stage(cfg: PipelineConfig, stage, out_dir, resume, continues, trainer, *args,
                 **kwargs):
    """Run trainer(net, *args, schedule, ...) for one stage ("pretrain" or
    "finetune") on a fresh net or the resume checkpoint's, then save
    model.ckpt. When continues(net) holds for a checkpoint, training picks up
    at its iteration and <stage>_log.jsonl is appended to, not restarted,
    once it is cut back to the records before that iteration: a run that
    died after logging past its checkpoint leaves no duplicate or partial
    line. A stage that fails before its first record leaves the log and the
    checkpoint as they were (see _log_writer)."""
    net, iteration = (DepthNet(cfg.net), 0) if resume is None else load_checkpoint(resume)
    for field in RESUME_FIELDS:
        have, want = getattr(net.config, field), getattr(cfg.net, field)
        if have != want:
            raise ValueError(f"resume checkpoint has {field} {have}, config has {want}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start_iteration = iteration if continues(net) else 0
    schedule = getattr(cfg, stage)
    log = out / f"{stage}_log.jsonl"
    with _log_writer(log, start_iteration) as write:
        trainer(net, *args, schedule, log_fn=write, start_iteration=start_iteration, **kwargs)
    ckpt = out / "model.ckpt"
    save_checkpoint(net, ckpt, iteration=max(start_iteration, schedule.total_iterations))
    return ckpt


def cmd_pretrain(cfg: PipelineConfig, data_dir, pairs_dir, out_dir, resume=None):
    scenes = _read_scenes(data_dir)
    load_pairs = _pair_loader(pairs_dir)
    dataset = []
    for scene in scenes:
        image = load_image(_scene_file(data_dir, scene, "left"))
        dataset.append((image, load_pairs(scene)))

    def continues(net):
        if net.config.head_mode != RANKING:
            raise ValueError("resume checkpoint is not a ranking model")
        return True

    ckpt = _train_stage(cfg, "pretrain", out_dir, resume, continues, pretrain_ranking,
                        dataset, seed=_derive_seed(cfg.seed, 11),
                        pair_mean=cfg.pretrain_pair_mean, clip_norm=cfg.pretrain_clip_norm)
    print(f"pretrained ranking model saved to {ckpt}")
    return EXIT_OK


def cmd_finetune(cfg: PipelineConfig, data_dir, out_dir, resume=None):
    dataset = []
    for scene in _read_scenes(data_dir):
        image = load_image(_scene_file(data_dir, scene, "left"))
        gt = load_pfm(_scene_file(data_dir, scene, "gt"), kind=DISPARITY)
        dataset.append((image, disparity_to_depth(gt, cfg.focal_baseline)))

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
    scenes = _read_scenes(data_dir)
    if not scenes:
        raise ValueError(f"no scenes to evaluate under {data_dir}")
    net = None if ckpt is None else load_checkpoint(ckpt)[0]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def score(scene):
        gt_disp = load_pfm(_scene_file(data_dir, scene, "gt"), kind=DISPARITY)
        gt = disparity_to_depth(gt_disp, cfg.focal_baseline)
        if net is not None:
            image = load_image(_scene_file(data_dir, scene, "left"))
            pred = predict_depth(net, image, cfg.scheme)
        else:
            pred = load_pfm(_scene_file(pred_dir, scene, "gt"), kind="depth")
        return evaluate(pred, gt).to_dict()

    reports = _every_scene(scenes, score, "eval worker", net)
    pooled = aggregate(MetricsReport(**report) for report in reports)
    per_scene = [{"index": scene["index"], **report} for scene, report in zip(scenes, reports)]
    _write_json(out / "metrics.json",
                {"aggregate": pooled.to_dict(), "per_scene": per_scene})
    print(pooled.to_json())
    return EXIT_OK


def cmd_whdr(cfg: PipelineConfig, data_dir, pairs_dir, ckpt, out_dir):
    scenes = _read_scenes(data_dir)
    if not scenes:
        raise ValueError(f"no scenes to score under {data_dir}")
    load_pairs = _pair_loader(pairs_dir)
    net, _ = load_checkpoint(ckpt)
    if net.config.head_mode != RANKING:
        raise ValueError("whdr scoring expects a ranking checkpoint")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def score(scene):
        pairs = np.asarray(load_pairs(scene))
        if cfg.strict_pairs_only:
            pairs = pairs[pairs[:, 4] != EQUAL]
        if not len(pairs):
            raise ValueError(f"scene {scene['index']}: no pairs left to score")
        image = load_image(_scene_file(data_dir, scene, "left"))
        rate = whdr(predict_relative(net, image), pairs, pred_threshold=cfg.pred_threshold)
        return {"index": scene["index"], "whdr": rate, "pair_count": len(pairs)}

    per_scene, disagree, total = _every_scene(scenes, score, "whdr worker", net), 0.0, 0
    for entry in per_scene:
        disagree += entry["whdr"] * entry["pair_count"]
        total += entry["pair_count"]
    pooled = disagree / total
    _write_json(out / "whdr.json", {"whdr": pooled, "per_scene": per_scene})
    print(f"whdr {pooled:.6f} over {total} pairs")
    return EXIT_OK


# ---- argument parsing ----------------------------------------------------------

# name -> (function, help, {flag: (parameter, required, help)}); the flags fill
# the function's parameters after cfg, which --config and --seed make
COMMANDS = {
    "synth": (cmd_synth, "generate layered random-dot stereo scenes", {
        "--out": ("out_dir", True, "output dataset directory")}),
    "stereo": (cmd_stereo, "run the SGM front end over a synth dataset", {
        "--in": ("in_dir", True, "synth dataset directory"),
        "--out": ("out_dir", True, "disparity output directory")}),
    "pairs": (cmd_pairs, "sample ordinal pairs from disparity maps", {
        "--in": ("in_dir", True, "disparity directory"),
        "--out": ("out_dir", True, "pair CSV output directory")}),
    "pretrain": (cmd_pretrain, "train the ranking model on ordinal pairs", {
        "--data": ("data_dir", True, "synth dataset directory"),
        "--pairs": ("pairs_dir", True, "pair CSV directory"),
        "--out": ("out_dir", True, "checkpoint/log output directory"),
        "--resume": ("resume", False, "ranking checkpoint to continue from")}),
    "finetune": (cmd_finetune, "train the depth classifier on metric ground truth", {
        "--data": ("data_dir", True, "synth dataset directory"),
        "--out": ("out_dir", True, "checkpoint/log output directory"),
        "--resume": ("resume", False, "checkpoint to continue from")}),
    "eval": (cmd_eval, "score depth predictions against ground truth", {
        "--data": ("data_dir", True, "synth dataset directory"),
        "--out": ("out_dir", True, "metrics output directory"),
        "--ckpt": ("ckpt", False, "checkpoint to predict with"),
        "--pred": ("pred_dir", False, "directory of predicted depth PFMs")}),
    "whdr": (cmd_whdr, "score a ranking checkpoint on ordinal pairs", {
        "--data": ("data_dir", True, "synth dataset directory"),
        "--pairs": ("pairs_dir", True, "pair CSV directory"),
        "--ckpt": ("ckpt", True, "ranking checkpoint"),
        "--out": ("out_dir", True, "whdr output directory")}),
}


@functools.cache
def build_parser():
    """The argument parser, built once: argparse keeps no state between
    parse_args calls."""
    parser = argparse.ArgumentParser(
        prog="reldepth",
        description="stereo-supervised ordinal pretraining and depth classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="pipeline JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        for flag, (parameter, required, help_str) in flags.items():
            p.add_argument(flag, dest=parameter, required=required, help=help_str)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    function, _, flags = COMMANDS[args.command]
    try:
        return function(cfg, **{p: getattr(args, p) for p, _, _ in flags.values()})
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
