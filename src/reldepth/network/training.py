"""Two-stage training: ranking pretraining on ordinal pairs, then finetuning
as a log-binned depth classifier with the info-gain loss. A log-space L2
regression trainer is kept as the baseline the classifier is compared
against. Plain SGD with a step learning-rate schedule; everything is
deterministic given the seeds.

The three trainers share one SGD loop and differ only in their set-up and
their per-sample loss. Each iteration the loop draws a batch of samples,
augments them if asked, runs the net once over the stacked images and hands
each sample's (C, h, w) output with its target to the loss. The loss returns
a LossResult whose gradient has that same shape, or None for a sample with
nothing to score, which adds zero loss and zero gradient. Loss and gradient
are averaged over the whole batch before one SGD step.
"""

from dataclasses import dataclass

import numpy as np

from ..binning import BinningScheme, InfoGainMatrix, depth_to_bin
from ..imagery.augment import augment, resize_depth
from ..imagery.types import DepthMap, Image
from ..losses import LossResult, infogain_loss, ranking_loss
from ..ordinal import PairSet, check_inside, pair_rows
from .model import CLASSIFICATION, REGRESSION, DepthNet, stack_images


@dataclass
class TrainSchedule:
    batch_size: int = 4
    learning_rate: float = 2e-4
    total_iterations: int = 300
    decay_iterations: tuple = ()
    decay_factor: float = 0.1

    def __post_init__(self):
        self.decay_iterations = tuple(int(i) for i in self.decay_iterations)
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.total_iterations < 0:
            raise ValueError("iteration count must be >= 0")
        if list(self.decay_iterations) != sorted(set(self.decay_iterations)):
            raise ValueError("decay iterations must be strictly increasing")
        if self.decay_iterations and self.decay_iterations[-1] >= self.total_iterations:
            raise ValueError("decay iterations must precede the end of training")

    def lr_at(self, iteration):
        lr = self.learning_rate
        for di in self.decay_iterations:
            if iteration >= di:
                lr *= self.decay_factor
        return lr


@dataclass
class AugmentConfig:
    scale_range: tuple = (1.0, 1.25)
    flip_prob: float = 0.5

    def __post_init__(self):
        self.scale_range = tuple(self.scale_range)
        lo, hi = self.scale_range
        # scaled samples are cropped back to the original grid for batching
        if not 1.0 <= lo <= hi:
            raise ValueError("trainer scale range must satisfy 1 <= lo <= hi")


def l2_regression_loss(pred, target, mask) -> LossResult:
    """Mean squared error over valid pixels, with gradient w.r.t. pred.

    Operates on whatever space the caller supplies; the finetuning baseline
    passes log-depths so its errors are comparable to the log-binned
    classifier's.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ValueError("pred, target and mask must share one shape")
    n = int(mask.sum())
    if n == 0:
        raise ValueError("at least one valid pixel is required")
    diff = np.where(mask, pred - target, 0.0)
    value = float((diff ** 2).sum() / n)
    grad = 2.0 * diff / n
    return LossResult(value, grad)


def _sgd_step(net, lr, clip_norm=None):
    if lr == 0.0:
        return
    scale = 1.0
    if clip_norm is not None:
        total = np.sqrt(sum(float((t.grad ** 2).sum())
                            for _, t in net.named_params()))
        if total > clip_norm:
            scale = clip_norm / total
    for _, tensor in net.named_params():
        tensor.values -= lr * scale * tensor.grad


def map_pairs_to_grid(pairs, stride):
    """Project full-resolution pair coordinates onto the score grid.

    Pairs whose endpoints land in the same output cell carry no ranking
    signal at the network's resolution and are dropped.
    """
    grid = pair_rows(pairs).copy()
    grid[:, :4] //= stride
    return PairSet(grid[(grid[:, 0] != grid[:, 2]) | (grid[:, 1] != grid[:, 3])])


def _augmented(image, depth, aug: AugmentConfig, rng):
    h, w = image.height, image.width
    img, dm = augment(image, depth, aug.scale_range, aug.flip_prob, rng=rng)
    if img.height != h or img.width != w:
        top = int(rng.integers(0, img.height - h + 1))
        left = int(rng.integers(0, img.width - w + 1))
        img = Image(img.data[top:top + h, left:left + w])
        dm = DepthMap(dm.values[top:top + h, left:left + w],
                      dm.mask[top:top + h, left:left + w], kind=dm.kind)
    return img, dm


def _sgd_loop(net: DepthNet, dataset, schedule: TrainSchedule, seed, sample_loss,
              augment_cfg=None, log_fn=None, start_iteration=0, clip_norm=None):
    """SGD on sample_loss(output, target) over a list of (Image, target);
    see the module docstring. Returns the history of {iter, loss, lr}."""
    if not dataset:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(seed)
    history = []
    for iteration in range(start_iteration, schedule.total_iterations):
        lr = schedule.lr_at(iteration)
        idx = rng.integers(0, len(dataset), size=schedule.batch_size)
        batch = [dataset[i] for i in idx]
        if augment_cfg is not None:
            batch = [_augmented(image, depth, augment_cfg, rng) for image, depth in batch]
        out = net.forward(stack_images([image for image, _ in batch]))
        dout = np.zeros_like(out)
        loss = 0.0
        for k, (_, target) in enumerate(batch):
            try:
                res = sample_loss(out[k], target)
            except ValueError as exc:
                raise ValueError(
                    f"training diverged at iteration {iteration}: {exc}"
                ) from None
            if res is None:
                continue
            loss += res.value
            dout[k] = res.gradient
        loss /= schedule.batch_size
        dout /= schedule.batch_size
        net.zero_grad()
        net.backward(dout)
        _sgd_step(net, lr, clip_norm)
        record = {"iter": iteration, "loss": loss, "lr": lr}
        history.append(record)
        if log_fn is not None:
            log_fn(record)
    return history


def pretrain_ranking(net: DepthNet, dataset, schedule: TrainSchedule, seed=0,
                     pair_mean=False, log_fn=None, start_iteration=0,
                     clip_norm=None):
    """SGD on the pairwise ranking loss.

    dataset is a list of (Image, pairs) with pair coordinates at image
    resolution. Before any step each sample's pairs are checked against its
    image and projected onto the network's output grid. Returns the
    per-iteration history of {iter, loss, lr}.
    """
    stride = net.config.total_stride
    grid_dataset = []
    for n, (image, pairs) in enumerate(dataset):
        check_inside(pair_rows(pairs), image.height, image.width, prefix=f"sample {n}: ")
        mapped = map_pairs_to_grid(pairs, stride)
        if not len(mapped):
            raise ValueError(f"sample {n} has no pairs left at grid resolution")
        grid_dataset.append((image, mapped))

    def pair_loss(scores, grid_pairs):
        res = ranking_loss(scores[0], grid_pairs, mean=pair_mean)
        return LossResult(res.value, res.gradient[None])

    return _sgd_loop(net, grid_dataset, schedule, seed, pair_loss, log_fn=log_fn,
                     start_iteration=start_iteration, clip_norm=clip_norm)


def finetune_classification(net: DepthNet, dataset, scheme: BinningScheme,
                            gain: InfoGainMatrix, schedule: TrainSchedule,
                            seed=0, augment_cfg: AugmentConfig = None,
                            log_fn=None, start_iteration=0, clip_norm=None):
    """SGD on the info-gain classification loss over binned metric depths.

    dataset is a list of (Image, DepthMap) with metric ground truth. The head
    is swapped for a fresh classification head of scheme.bins channels unless
    it already matches; trunk weights and normalization statistics persist.
    """
    if gain.bins != scheme.bins:
        raise ValueError("gain matrix and binning scheme disagree on bin count")
    if net.config.head_mode != CLASSIFICATION or net.config.head_channels != scheme.bins:
        net.re_head(CLASSIFICATION, scheme.bins)

    def bin_loss(logits, depth):
        grid = resize_depth(depth, logits.shape[1], logits.shape[2])
        if not grid.mask.any():
            return None
        labels = np.ones(grid.values.shape, dtype=np.int64)
        labels[grid.mask] = depth_to_bin(grid.values[grid.mask].astype(np.float64), scheme)
        res = infogain_loss(logits.transpose(1, 2, 0), labels, grid.mask, gain)
        return LossResult(res.value, res.gradient.transpose(2, 0, 1))

    return _sgd_loop(net, dataset, schedule, seed, bin_loss, augment_cfg, log_fn,
                     start_iteration, clip_norm)


def finetune_regression(net: DepthNet, dataset, schedule: TrainSchedule,
                        seed=0, augment_cfg: AugmentConfig = None,
                        log_fn=None, start_iteration=0, clip_norm=None):
    """Baseline: SGD on log-depth L2 regression, with the classifier's data,
    augmentation and grid subsampling."""
    if net.config.head_mode != REGRESSION:
        net.re_head(REGRESSION, 1)

    def log_l2_loss(pred, depth):
        grid = resize_depth(depth, pred.shape[1], pred.shape[2])
        if not grid.mask.any():
            return None
        log_target = np.where(grid.mask, np.log(np.maximum(grid.values, 1e-12)), 0.0)
        res = l2_regression_loss(pred[0], log_target, grid.mask)
        return LossResult(res.value, res.gradient[None])

    return _sgd_loop(net, dataset, schedule, seed, log_l2_loss, augment_cfg, log_fn,
                     start_iteration, clip_norm)
