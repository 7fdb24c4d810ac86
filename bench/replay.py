"""Traced replays: each CLI command's inputs pushed again through the public
functions of the layers the command drives, on the same shapes and seeds,
one span per call.

Spans whose attributes carry ``part=<command>`` re-do the command's own work
stage by stage; their sum against the command's time gives its unattributed
share. The other spans are diagnostics that split a stage further: one
``sgm_aggregate`` call per direction and a whole ``match_pair``.

Training replays call the public trainers themselves. For the length of the
call the trainer module's own names for stack_images, the losses,
depth_to_bin, augment and map_pairs_to_grid are swapped for timed wrappers,
and the net's forward, backward and every layer's forward and backward are
timed on the instance. The trainer's log_fn ends one step span and opens the
next, so every timed call of an iteration nests under its step.
"""

import json
import os
from contextlib import contextmanager
from pathlib import Path

from reldepth import stereo
from reldepth.cli import _derive_seed as derive_seed  # the CLI's per-stage seeds
from reldepth.imagery import (
    DISPARITY,
    SynthSceneSpec,
    disparity_to_depth,
    generate_stereogram,
    load_image,
    load_pfm,
    save_image,
    save_pfm,
)
from reldepth.metrics import evaluate
from reldepth.network import (
    CLASSIFICATION,
    ChannelNorm,
    Conv2d,
    DepthNet,
    MaxPool2,
    ReLU,
    finetune_classification,
    load_checkpoint,
    predict_depth,
    predict_relative,
    pretrain_ranking,
    save_checkpoint,
    training,
)
from reldepth.ordinal import (
    EQUAL,
    PairSampleConfig,
    load_pairs_csv,
    sample_pairs,
    save_pairs_csv,
    whdr,
)

DIRECTION_NAMES = {
    (0, 1): "E", (0, -1): "W", (1, 0): "S", (-1, 0): "N",
    (1, 1): "SE", (-1, -1): "NW", (1, -1): "SW", (-1, 1): "NE",
}
LAYER_TYPES = (Conv2d, ChannelNorm, ReLU, MaxPool2)


# ---- layer instrumentation ------------------------------------------------------


def _visit(value, path):
    if isinstance(value, LAYER_TYPES):
        yield path, value
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _visit(item, f"{path}.{i}")
    elif hasattr(value, "forward"):
        for key, item in vars(value).items():
            yield from _visit(item, f"{path}.{key}" if path else key)


def named_layers(net):
    """(name, layer) for every layer of a DepthNet. Convolutions and norms are
    named by their parameter prefix (``stage1.block0.projection``)."""
    param_names = {id(t): name for name, t in net.named_params()}
    norm_names = {id(norm): name for name, norm in net.named_norms()}
    for path, layer in _visit(net, ""):
        if isinstance(layer, Conv2d):
            path = param_names[id(layer.weight)].rsplit(".", 1)[0]
        elif isinstance(layer, ChannelNorm):
            path = norm_names.get(id(layer), path)
        yield path, layer


def _conv_cost(layer, x_shape, y_shape, backward):
    """Computed FLOPs and compulsory bytes of one conv pass (float64, no
    im2col expansion). Backward computes both dW and dX, twice the forward."""
    n, cin, h, w = x_shape
    _, cout, oh, ow = y_shape
    k2 = layer.ksize * layer.ksize
    flops = 2 * n * cout * oh * ow * cin * k2
    x, y, wgt = n * cin * h * w, n * cout * oh * ow, cout * cin * k2 + cout
    if backward:
        return 2 * flops, 8 * (y + x + 2 * wgt + x)
    return flops, 8 * (x + wgt + y)


def instrument(net, tracer):
    """Wrap the net's and each layer instance's forward/backward in a span."""
    for method in ("forward", "backward"):
        setattr(net, method, _timed(tracer, f"network.model.{method}", getattr(net, method)))
    for name, layer in named_layers(net):
        for method in ("forward", "backward"):
            _wrap(layer, method, name, tracer)


def _wrap(layer, method, name, tracer):
    inner = getattr(layer, method)
    kind = type(layer).__name__
    backward = method == "backward"
    span_name = f"network.layers.{name}.{'bwd' if backward else 'fwd'}"

    def timed(arr):
        with tracer.span(span_name, layer=kind, prefix=name) as attrs:
            out = inner(arr)
        if kind == "Conv2d":
            # backward maps dY back to dX, so the shapes arrive swapped
            x_shape, y_shape = (out.shape, arr.shape) if backward else (arr.shape, out.shape)
            attrs["flops"], attrs["bytes"] = _conv_cost(layer, x_shape, y_shape, backward)
        return out

    setattr(layer, method, timed)


def _timed(tracer, name, fn, attrs_of=None):
    """fn wrapped in a span; attrs_of(args, result) adds attributes."""
    def timed(*args, **kwargs):
        with tracer.span(name) as attrs:
            out = fn(*args, **kwargs)
        if attrs_of is not None:
            attrs.update(attrs_of(args, out))
        return out
    return timed


# the trainer module's names that are timed, with their span names
TRAINER_CALLS = {
    "stack_images": "network.model.stack_images",
    "ranking_loss": "losses.ranking_loss",
    "infogain_loss": "losses.infogain_loss",
    "depth_to_bin": "binning.depth_to_bin",
    "augment": "imagery.augment",
    "map_pairs_to_grid": "network.training.map_pairs_to_grid",
}
TRAINER_ATTRS = {
    "ranking_loss": lambda args, out: {"pairs": len(args[1])},
    "map_pairs_to_grid": lambda args, out: {"mapped": len(args[0]), "kept": len(out)},
}


@contextmanager
def timed_trainer_calls(tracer):
    """Time the trainer module's own calls while the block runs."""
    saved = {name: getattr(training, name) for name in TRAINER_CALLS}
    for name, fn in saved.items():
        setattr(training, name, _timed(tracer, TRAINER_CALLS[name], fn, TRAINER_ATTRS.get(name)))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(training, name, fn)


# ---- replays --------------------------------------------------------------------


def _manifest(dirpath):
    return json.loads((Path(dirpath) / "manifest.json").read_text())


class Replayer:
    """Replays commands into its own directory; ``run`` dispatches by name."""

    def __init__(self, tracer, load_config, workdir):
        self.tracer = tracer
        self.load_config = load_config
        self.workdir = Path(workdir)
        self.problems = []

    def run(self, command, flags):
        t = self.tracer
        out = self.workdir / command
        out.mkdir(parents=True, exist_ok=True)
        with t.span(f"replay.{command}"):
            cfg = t.call("cli.load_config", self.load_config, flags["--config"],
                         flags.get("--seed"), part=command)
            getattr(self, command)(cfg, flags, out)

    # -- helpers that time one public call each --

    def _load(self, part, fn, path, *args):
        return self.tracer.call("imagery.io.load", fn, path, *args, part=part)

    def _save(self, part, fn, obj, path, **extra):
        with self.tracer.span("imagery.io.save", part=part, **extra) as attrs:
            fn(obj, path)
        attrs["bytes"] = os.path.getsize(path)

    def _save_ckpt(self, part, net, path, iteration, command_ckpt):
        """Save the replayed net; it must match the command's checkpoint byte
        for byte, or timing the trainer changed what it computes."""
        with self.tracer.span("network.checkpoint.save", part=part) as attrs:
            save_checkpoint(net, path, iteration=iteration)
        attrs["bytes"] = os.path.getsize(path)
        if Path(path).read_bytes() != Path(command_ckpt).read_bytes():
            self.problems.append(f"replayed {part} checkpoint differs from {command_ckpt}")

    def _train(self, name, trainer, net, iterations, *args, **kwargs):
        """Run a public trainer on an instrumented net, one step span per
        iteration. The first step also holds the trainer's set-up before it."""
        t = self.tracer
        instrument(net, t)

        def next_step(record):
            t.close()
            if record["iter"] + 1 < iterations:
                t.open("network.training.step", trainer=name)

        with timed_trainer_calls(t), t.span(f"network.training.{name}", part=name):
            if iterations:
                t.open("network.training.step", trainer=name)
            trainer(net, *args, log_fn=next_step, **kwargs)

    # -- commands --

    def synth(self, cfg, flags, out):
        manifest = _manifest(flags["--out"])
        for scene in manifest["scenes"]:
            spec = SynthSceneSpec(
                width=manifest["width"], height=manifest["height"],
                layer_disparities=tuple(scene["layer_disparities"]),
                texture_density=cfg.synth.texture_density,
                d_max=manifest["d_max"], seed=scene["seed"],
            )
            left, right, gt = self.tracer.call(
                "imagery.synth.generate_stereogram", generate_stereogram, spec, part="synth")
            self._save("synth", save_image, left, out / scene["left"])
            self._save("synth", save_image, right, out / scene["right"])
            self._save("synth", save_pfm, gt, out / scene["gt"])

    def stereo(self, cfg, flags, out):
        t = self.tracer
        src = Path(flags["--in"])
        params = cfg.sgm_params
        for scene in _manifest(src)["scenes"]:
            raw_left = self._load("stereo", load_image, src / scene["left"])
            raw_right = self._load("stereo", load_image, src / scene["right"])
            left, right = raw_left, raw_right
            if cfg.bilsub is not None:
                b = cfg.bilsub
                left, right = (
                    t.call("stereo.bilsub", stereo.bilsub, img, b.spatial_sigma,
                           b.range_sigma, b.radius, part="stereo")
                    for img in (raw_left, raw_right)
                )
            cv = t.call("stereo.ad_cost", stereo.ad_cost, left, right, params.d_max,
                        params.border_cost, part="stereo")
            h, w, d = cv.costs.shape
            with t.span("stereo.sgm_aggregate", part="stereo") as attrs:
                aggregated = stereo.sgm_aggregate(cv, params)
            attrs["cells"] = h * w * d * len(params.directions)
            attrs["cost_volume_bytes"] = cv.costs.nbytes
            disp = t.call("stereo.winner_takes_all", stereo.winner_takes_all,
                          aggregated, part="stereo")
            if cfg.median_radius >= 1:
                disp = t.call("stereo.median_filter", stereo.median_filter, disp,
                              cfg.median_radius, part="stereo")
            self._save("stereo", save_pfm, disp, out / f"disp_{scene['index']:03d}.pfm",
                       valid=int(disp.mask.sum()), pixels=disp.mask.size)
            for direction in params.directions:
                single = stereo.SgmParams(params.p1, params.p2, params.d_max,
                                          directions=(direction,),
                                          border_cost=params.border_cost)
                t.call(f"stereo.sweep.{DIRECTION_NAMES[direction]}",
                       stereo.sgm_aggregate, cv, single)
            t.call("stereo.match_pair", stereo.match_pair, raw_left, raw_right, params,
                   cfg.bilsub, cfg.median_radius)

    def pairs(self, cfg, flags, out):
        t = self.tracer
        src = Path(flags["--in"])
        for scene in _manifest(src)["scenes"]:
            name = scene.get("disparity", scene.get("gt"))
            disp = self._load("pairs", load_pfm, src / name, DISPARITY)
            pair_cfg = PairSampleConfig(count=cfg.pair_cfg.count,
                                        eq_threshold=cfg.pair_cfg.eq_threshold,
                                        seed=derive_seed(cfg.seed, 7, scene["index"]))
            with t.span("ordinal.sample_pairs", part="pairs") as attrs:
                pairs = sample_pairs(disp, pair_cfg)
            attrs["pairs"] = len(pairs)
            attrs["equal"] = sum(p.r == EQUAL for p in pairs)
            t.call("ordinal.save_pairs_csv", save_pairs_csv, pairs,
                   out / f"pairs_{scene['index']:03d}.csv", part="pairs")

    def pretrain(self, cfg, flags, out):
        t = self.tracer
        data, pair_dir = Path(flags["--data"]), Path(flags["--pairs"])
        pair_files = {e["index"]: e["pairs"] for e in _manifest(pair_dir)["scenes"]}
        dataset = []
        for scene in _manifest(data)["scenes"]:
            image = self._load("pretrain", load_image, data / scene["left"])
            pairs = t.call("ordinal.load_pairs_csv", load_pairs_csv,
                           pair_dir / pair_files[scene["index"]], part="pretrain")
            dataset.append((image, pairs))
        net = DepthNet(cfg.net)
        iterations = cfg.pretrain.total_iterations
        self._train("pretrain", pretrain_ranking, net, iterations, dataset, cfg.pretrain,
                    seed=derive_seed(cfg.seed, 11), pair_mean=cfg.pretrain_pair_mean,
                    clip_norm=cfg.pretrain_clip_norm)
        ckpt = out / "model.ckpt"
        self._save_ckpt("pretrain", net, ckpt, iterations, Path(flags["--out"]) / "model.ckpt")
        t.call("network.checkpoint.load", load_checkpoint, ckpt)

    def finetune(self, cfg, flags, out):
        data = Path(flags["--data"])
        dataset = []
        for scene in _manifest(data)["scenes"]:
            image = self._load("finetune", load_image, data / scene["left"])
            gt = self._load("finetune", load_pfm, data / scene["gt"], DISPARITY)
            dataset.append((image, disparity_to_depth(gt, cfg.focal_baseline)))
        net, _ = self.tracer.call("network.checkpoint.load", load_checkpoint,
                                  flags["--resume"], part="finetune")
        if net.config.head_mode != CLASSIFICATION or net.config.head_channels != cfg.scheme.bins:
            # the head swap the trainer would make, done first so the new
            # head is timed too
            net.re_head(CLASSIFICATION, cfg.scheme.bins)
        iterations = cfg.finetune.total_iterations
        self._train("finetune", finetune_classification, net, iterations, dataset, cfg.scheme,
                    cfg.gain, cfg.finetune, seed=derive_seed(cfg.seed, 13),
                    augment_cfg=cfg.augment_cfg, clip_norm=cfg.finetune_clip_norm)
        self._save_ckpt("finetune", net, out / "model.ckpt", iterations,
                        Path(flags["--out"]) / "model.ckpt")

    def eval(self, cfg, flags, out):
        t = self.tracer
        data = Path(flags["--data"])
        net, _ = t.call("network.checkpoint.load", load_checkpoint, flags["--ckpt"],
                        part="eval")
        for scene in _manifest(data)["scenes"]:
            gt = self._load("eval", load_pfm, data / scene["gt"], DISPARITY)
            gt = disparity_to_depth(gt, cfg.focal_baseline)
            image = self._load("eval", load_image, data / scene["left"])
            pred = t.call("network.model.predict", predict_depth, net, image, cfg.scheme,
                          part="eval")
            t.call("metrics.evaluate", evaluate, pred, gt, part="eval")

    def whdr(self, cfg, flags, out):
        t = self.tracer
        data, pair_dir = Path(flags["--data"]), Path(flags["--pairs"])
        pair_files = {e["index"]: e["pairs"] for e in _manifest(pair_dir)["scenes"]}
        net, _ = t.call("network.checkpoint.load", load_checkpoint, flags["--ckpt"],
                        part="whdr")
        for scene in _manifest(data)["scenes"]:
            pairs = t.call("ordinal.load_pairs_csv", load_pairs_csv,
                           pair_dir / pair_files[scene["index"]], part="whdr")
            if cfg.strict_pairs_only:
                pairs = [p for p in pairs if p.r != EQUAL]
            image = self._load("whdr", load_image, data / scene["left"])
            pred = t.call("network.model.predict", predict_relative, net, image,
                          part="whdr")
            t.call("ordinal.whdr", whdr, pred, pairs, cfg.pred_threshold, part="whdr")
