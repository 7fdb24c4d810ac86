"""Per-layer metrics of the traced run, computed from its spans.

Names follow the reldepth modules. ``.s`` metrics are a layer's total time
in one pass (the median over the run's passes) plus its time in set-up,
``.ms`` metrics the median time of one call (one training step for
``network.layers.*``). A layer that a workload never calls reports 0.
"""

import statistics

from spans import SETUP_TRACE, duration

COMMANDS = ("synth", "stereo", "pairs", "pretrain", "finetune", "eval", "whdr")
DIRECTIONS = ("E", "W", "S", "N", "SE", "NW", "SW", "NE")
LAYER_CLASSES = ("Conv2d", "ChannelNorm", "ReLU", "MaxPool2")
# the parts of a training step that overhead_ms leaves out; map_pairs_to_grid
# runs once before the first iteration, inside the first step's interval
STEP_PARTS = ("network.model.stack_images", "network.model.forward",
              "losses.ranking_loss", "losses.infogain_loss", "network.model.backward",
              "network.training.map_pairs_to_grid")


def conv_prefixes():
    """Parameter prefixes of every Conv2d in the desk net (3 stages of 2
    blocks, strides 1/2/2, two hidden head convs)."""
    names = ["stem"]
    for stage in range(3):
        for block in range(2):
            names += [f"stage{stage}.block{block}.conv1", f"stage{stage}.block{block}.conv2"]
            if stage > 0 and block == 0:
                names.append(f"stage{stage}.block{block}.projection")
    return names + ["head0.conv", "head1.conv", "head"]


def spec():
    """[(name, unit, better)] for every per-layer metric, in report order."""
    out = []
    for cmd in COMMANDS:
        out += [(f"cli.{cmd}.s", "s", "lower"), (f"cli.{cmd}.unattributed_frac", "1", "lower")]
    out.append(("cli.load_config.s", "s", "lower"))
    out += [(f"stereo.{n}.s", "s", "lower") for n in ("bilsub", "ad_cost", "sgm_aggregate")]
    out += [(f"stereo.sweep.{d}.s", "s", "lower") for d in DIRECTIONS]
    out += [(f"stereo.{n}.s", "s", "lower")
            for n in ("winner_takes_all", "median_filter", "match_pair")]
    out += [("stereo.sgm.cell_updates", "count", "lower"),
            ("stereo.sgm.gcups", "Gcell/s", "higher"),
            ("stereo.cost_volume_mb", "MB", "lower"),
            ("stereo.valid_frac", "1", "higher")]
    out += [(f"ordinal.{n}.s", "s", "lower")
            for n in ("sample_pairs", "save_pairs_csv", "load_pairs_csv", "whdr")]
    out += [("ordinal.pairs", "count", "higher"), ("ordinal.equal_frac", "1", "lower")]
    out += [("losses.ranking_loss.ms", "ms", "lower"), ("losses.infogain_loss.ms", "ms", "lower"),
            ("losses.ranking_loss.pairs_per_call", "count", "higher")]
    out += [("network.training.map_pairs_to_grid.s", "s", "lower"),
            ("network.training.grid_kept_frac", "1", "higher"),
            ("network.training.pretrain_iter_ms", "ms", "lower"),
            ("network.training.finetune_iter_ms", "ms", "lower"),
            ("network.training.overhead_ms", "ms", "lower")]
    out += [(f"network.model.{n}.ms", "ms", "lower")
            for n in ("stack_images", "forward", "backward", "predict")]
    for prefix in conv_prefixes() + list(LAYER_CLASSES):
        out += [(f"network.layers.{prefix}.fwd_ms", "ms", "lower"),
                (f"network.layers.{prefix}.bwd_ms", "ms", "lower")]
    out += [("network.layers.Conv2d.gflop", "GFLOP", "lower"),
            ("network.layers.Conv2d.mb_moved", "MB", "lower"),
            ("network.layers.Conv2d.gflop_per_s", "GFLOP/s", "higher"),
            ("network.layers.coverage", "1", "higher")]
    out += [("imagery.synth.generate_stereogram.s", "s", "lower"),
            ("imagery.io.load.s", "s", "lower"), ("imagery.io.save.s", "s", "lower"),
            ("imagery.io.bytes_written", "B", "lower"), ("imagery.augment.s", "s", "lower")]
    out += [("binning.depth_to_bin.ms", "ms", "lower"), ("metrics.evaluate.ms", "ms", "lower")]
    out += [("network.checkpoint.save_ms", "ms", "lower"),
            ("network.checkpoint.load_ms", "ms", "lower"),
            ("network.checkpoint.bytes", "B", "lower")]
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class _Spans:
    def __init__(self, spans):
        self.passes = sorted({s["trace"] for s in spans} - {SETUP_TRACE}) or [0]
        self.by_name = {}
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)
        self.by_id = {s["id"]: s for s in spans}

    def named(self, name):
        return self.by_name.get(name, [])

    def per_pass(self, spans, value):
        """Median over passes of a per-pass sum, plus the set-up's sum."""
        sums = {p: 0.0 for p in self.passes + [SETUP_TRACE]}
        for s in spans:
            sums[s["trace"]] += value(s)
        return sums.pop(SETUP_TRACE) + _median(list(sums.values()))

    def total_s(self, name):
        return self.per_pass(self.named(name), duration)

    def call_ms(self, name):
        return 1e3 * _median([duration(s) for s in self.named(name)])

    def attr_sum(self, spans, key):
        return sum(s["attrs"].get(key, 0) for s in spans)

    def step_of(self, span):
        while span is not None and span["name"] != "network.training.step":
            span = self.by_id.get(span["parent"])
        return None if span is None else span["id"]


def compute(spans):
    """Every per-layer metric of spec(), as {name: value}."""
    sp = _Spans(spans)
    m = {}
    for cmd in COMMANDS:
        m[f"cli.{cmd}.s"] = sp.total_s(f"cli.{cmd}")
        shares = []
        for p in sp.passes + [SETUP_TRACE]:
            took = sum(duration(s) for s in sp.named(f"cli.{cmd}") if s["trace"] == p)
            covered = sum(duration(s) for s in spans
                          if s["trace"] == p and s["attrs"].get("part") == cmd)
            if took:
                shares.append(1.0 - covered / took)
        m[f"cli.{cmd}.unattributed_frac"] = _median(shares)
    m["cli.load_config.s"] = sp.total_s("cli.load_config")

    for name in ("bilsub", "ad_cost", "sgm_aggregate", "winner_takes_all",
                 "median_filter", "match_pair"):
        m[f"stereo.{name}.s"] = sp.total_s(f"stereo.{name}")
    for d in DIRECTIONS:
        m[f"stereo.sweep.{d}.s"] = sp.total_s(f"stereo.sweep.{d}")
    sgm = sp.named("stereo.sgm_aggregate")
    m["stereo.sgm.cell_updates"] = sp.per_pass(sgm, lambda s: s["attrs"]["cells"])
    m["stereo.sgm.gcups"] = _ratio(sp.attr_sum(sgm, "cells"),
                                   sum(duration(s) for s in sgm)) / 1e9
    m["stereo.cost_volume_mb"] = max((s["attrs"]["cost_volume_bytes"] for s in sgm),
                                     default=0) / 1e6
    saved = [s for s in sp.named("imagery.io.save") if "valid" in s["attrs"]]
    m["stereo.valid_frac"] = _ratio(sp.attr_sum(saved, "valid"), sp.attr_sum(saved, "pixels"))

    for name in ("sample_pairs", "save_pairs_csv", "load_pairs_csv", "whdr"):
        m[f"ordinal.{name}.s"] = sp.total_s(f"ordinal.{name}")
    sampled = sp.named("ordinal.sample_pairs")
    m["ordinal.pairs"] = sp.per_pass(sampled, lambda s: s["attrs"]["pairs"])
    m["ordinal.equal_frac"] = _ratio(sp.attr_sum(sampled, "equal"),
                                     sp.attr_sum(sampled, "pairs"))

    m["losses.ranking_loss.ms"] = sp.call_ms("losses.ranking_loss")
    m["losses.infogain_loss.ms"] = sp.call_ms("losses.infogain_loss")
    m["losses.ranking_loss.pairs_per_call"] = _median(
        [s["attrs"]["pairs"] for s in sp.named("losses.ranking_loss")])

    grid = sp.named("network.training.map_pairs_to_grid")
    m["network.training.map_pairs_to_grid.s"] = sp.total_s("network.training.map_pairs_to_grid")
    m["network.training.grid_kept_frac"] = _ratio(sp.attr_sum(grid, "kept"),
                                                  sp.attr_sum(grid, "mapped"))
    steps = {s["id"]: s for s in sp.named("network.training.step")}
    for trainer in ("pretrain", "finetune"):
        m[f"network.training.{trainer}_iter_ms"] = 1e3 * _median(
            [duration(s) for s in steps.values() if s["attrs"]["trainer"] == trainer])
    # each step's time outside its parts: SGD update, batch draw, augment and
    # target building; its parts lie inside it one after another, so >= 0
    overhead = {sid: duration(s) for sid, s in steps.items()}
    for part in STEP_PARTS:
        for s in sp.named(part):
            if s["parent"] in overhead:
                overhead[s["parent"]] -= duration(s)
    m["network.training.overhead_ms"] = 1e3 * _median(list(overhead.values()))

    for name in ("stack_images", "forward", "backward", "predict"):
        m[f"network.model.{name}.ms"] = sp.call_ms(f"network.model.{name}")

    layer_spans = [s for s in spans if "layer" in s["attrs"]]
    for prefix in conv_prefixes():
        for way in ("fwd", "bwd"):
            m[f"network.layers.{prefix}.{way}_ms"] = sp.call_ms(f"network.layers.{prefix}.{way}")
    for cls in LAYER_CLASSES:
        for way in ("fwd", "bwd"):
            per_step = {}
            for s in layer_spans:
                if s["attrs"]["layer"] == cls and s["name"].endswith(way):
                    step = sp.step_of(s)
                    per_step[step] = per_step.get(step, 0.0) + duration(s)
            m[f"network.layers.{cls}.{way}_ms"] = 1e3 * _median(list(per_step.values()))
    convs = [s for s in layer_spans if s["attrs"]["layer"] == "Conv2d"]
    flops, moved = {}, {}
    for s in convs:
        step = sp.step_of(s)
        flops[step] = flops.get(step, 0) + s["attrs"]["flops"]
        moved[step] = moved.get(step, 0) + s["attrs"]["bytes"]
    m["network.layers.Conv2d.gflop"] = _median(list(flops.values())) / 1e9
    m["network.layers.Conv2d.mb_moved"] = _median(list(moved.values())) / 1e6
    m["network.layers.Conv2d.gflop_per_s"] = _ratio(
        sp.attr_sum(convs, "flops"), sum(duration(s) for s in convs)) / 1e9
    model_time = sum(duration(s) for name in ("network.model.forward", "network.model.backward")
                     for s in sp.named(name))
    m["network.layers.coverage"] = _ratio(sum(duration(s) for s in layer_spans), model_time)

    m["imagery.synth.generate_stereogram.s"] = sp.total_s("imagery.synth.generate_stereogram")
    m["imagery.io.load.s"] = sp.total_s("imagery.io.load")
    m["imagery.io.save.s"] = sp.total_s("imagery.io.save")
    m["imagery.io.bytes_written"] = sp.per_pass(sp.named("imagery.io.save"),
                                                lambda s: s["attrs"]["bytes"])
    m["imagery.augment.s"] = sp.total_s("imagery.augment")
    m["binning.depth_to_bin.ms"] = sp.call_ms("binning.depth_to_bin")
    m["metrics.evaluate.ms"] = sp.call_ms("metrics.evaluate")
    m["network.checkpoint.save_ms"] = sp.call_ms("network.checkpoint.save")
    m["network.checkpoint.load_ms"] = sp.call_ms("network.checkpoint.load")
    m["network.checkpoint.bytes"] = max(
        (s["attrs"]["bytes"] for s in sp.named("network.checkpoint.save")), default=0)
    return m
