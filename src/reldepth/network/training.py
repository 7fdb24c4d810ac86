"""Two-stage training: ranking pretraining on ordinal pairs, then finetuning
as a log-binned depth classifier with the info-gain loss. A log-space L2
regression trainer is kept as the baseline the classifier is compared
against. Plain SGD with a step learning-rate schedule; everything is
deterministic given the seeds.

The three trainers share one SGD loop and differ only in their set-up and
their per-sample loss. Each iteration the loop draws a batch of samples and
augments them if asked, all from one generator seeded by the stage seed and
the iteration. Every sample runs through the net on its own: its (C, h, w)
output goes with its target to the loss, which returns a LossResult whose
gradient has that same shape, or None for a sample with nothing to score,
which adds zero loss and zero gradient; backward then gives that sample's
parameter gradients. Losses and gradients are summed in sample order and
averaged over the batch before one SGD step.

The samples are spread over workers.forked's n shares, sample k in share k mod
n. The loop works share 0 itself and forks one worker per other share, alive as
long as the loop: each iteration a worker gets the iteration number and the
parameters, draws the batch itself and sends back its samples' losses and
gradients one by one; the loop adds each to the sum when it is next in sample
order. Every share makes the whole batch's augmentation draws but resamples
only its own samples. Every process runs OpenBLAS on one thread, so a sample's
gradient has the same bytes wherever it is computed, and checkpoints and logs
do not depend on the core count. A sample whose draw, forward pass or loss
raises ValueError comes back as the error's text, and the loop raises the first
in sample order, so errors do not depend on it either.

Norms not yet calibrated (a fresh net, a new head) take their statistics
from the whole first batch after the fork: each share forwards its own
samples, and the loop gathers each such norm's inputs in sample order into
the channel-major buffer a whole-batch forward would give it. Convs run one
GEMM per image and other layers work element by element, so the statistics
have the bytes of a whole-batch pass, which no process runs.
"""

import functools
from dataclasses import dataclass

import numpy as np

from ..binning import BinningScheme, InfoGainMatrix, depth_to_bin
from ..imagery.augment import augment, draw_augment, resize_depth, scaled_size
from ..imagery.types import DepthMap, Image
from ..losses import LossResult, infogain_loss, ranking_loss
from ..ordinal import PairSet, check_inside, pair_rows
from ..workers import forked
from .model import CLASSIFICATION, REGRESSION, DepthNet, check_batch, stack_images


@dataclass
class TrainSchedule:
    batch_size: int = 4
    learning_rate: float = 2e-4
    total_iterations: int = 300
    decay_iterations: tuple[int, ...] = ()
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
        if self.decay_factor < 0:
            raise ValueError("decay factor must be >= 0")

    def lr_at(self, iteration):
        lr = self.learning_rate
        for di in self.decay_iterations:
            if iteration >= di:
                lr *= self.decay_factor
        return lr


@dataclass
class AugmentConfig:
    scale_range: tuple[float, float] = (1.0, 1.25)
    flip_prob: float = 0.5

    def __post_init__(self):
        self.scale_range = tuple(self.scale_range)
        lo, hi = self.scale_range
        # scaled samples are cropped back to the original grid for batching
        if not 1.0 <= lo <= hi:
            raise ValueError("trainer scale range must satisfy 1 <= lo <= hi")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip probability must lie in [0, 1], got {self.flip_prob}")


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


def _augmented(image, depth, aug: AugmentConfig, rng, apply):
    """Draw one sample's augmentation from rng, augment's scale and flip and
    then the offsets of the crop back to the input grid, and return the
    cropped pair; with apply False, make the same draws but return the pair
    as given, resampling nothing."""
    h, w = image.height, image.width
    if apply:
        image, depth = augment(image, depth, aug.scale_range, aug.flip_prob, rng=rng)
        size = image.height, image.width
    else:
        s, _ = draw_augment(image, depth, aug.scale_range, aug.flip_prob, rng=rng)
        size = scaled_size(h, w, s)
    if size != (h, w):
        top = int(rng.integers(0, size[0] - h + 1))
        left = int(rng.integers(0, size[1] - w + 1))
        if apply:
            image = Image(image.data[top:top + h, left:left + w])
            depth = DepthMap(depth.values[top:top + h, left:left + w],
                             depth.mask[top:top + h, left:left + w], kind=depth.kind)
    return image, depth


def _sgd_loop(net: DepthNet, dataset, schedule: TrainSchedule, seed, sample_loss,
              augment_cfg=None, log_fn=None, start_iteration=0, clip_norm=None):
    """SGD on sample_loss(output, target) over a list of (Image, target);
    see the module docstring. Returns the history of {iter, loss, lr}.
    Each iteration draws from its own generator, seeded by (seed, iteration),
    so a run resumed at start_iteration repeats an uninterrupted run. A
    worker that dies raises WorkerExited, "training worker exited <code>"."""
    if not dataset:
        raise ValueError("dataset is empty")
    iterations = range(start_iteration, schedule.total_iterations)
    if not iterations:
        return []
    params = [t for _, t in net.named_params()]

    def draw(iteration, k, shares):
        """Samples k, k + shares, ... of the iteration's batch. Every
        sample's augmentation is drawn, in sample order, so the draws do not
        depend on the share; only the share's own samples are resampled. The
        crop keeps each sample's shape, so the whole batch's is checked."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, iteration]))
        idx = rng.integers(0, len(dataset), size=schedule.batch_size)
        batch = [dataset[i] for i in idx]
        if augment_cfg is not None:
            batch = [_augmented(image, depth, augment_cfg, rng, n % shares == k)
                     for n, (image, depth) in enumerate(batch)]
        check_batch([image for image, _ in batch])
        return batch[k::shares]

    def sample_outcome(iteration, image, target):
        out = net.forward(stack_images([image]))
        try:
            res = sample_loss(out[0], target)
        except ValueError as exc:
            raise ValueError(f"training diverged at iteration {iteration}: {exc}") from None
        if res is None:
            return None
        net.zero_grad()
        net.backward(res.gradient[None] / schedule.batch_size)
        return res.value, [t.grad.copy() for t in params]

    def share_outcomes(iteration, k, shares):
        """Yield for sample k, k + shares, ...: (loss, parameter gradients),
        None if it has nothing to score, or the text of the ValueError its
        draw, forward pass or loss raised. Every process sends text, so the
        parent raises the same error whatever the core count."""
        try:
            batch = draw(iteration, k, shares)
        except ValueError as exc:
            yield from [str(exc)] * len(range(k, schedule.batch_size, shares))
            return
        for image, target in batch:
            try:
                yield sample_outcome(iteration, image, target)
            except ValueError as exc:
                yield str(exc)

    uncalibrated = [norm for _, norm in net.named_norms() if not norm.calibrated]

    def calibration_pass(k, shares, gather):
        """If a norm is not yet calibrated (a fresh net, a new head), forward
        samples k, k + shares, ... of the first batch, each such norm
        calling gather(norm, x) on its input x from those samples. No
        backward follows, so the pass saves no activations."""
        if not uncalibrated:
            return
        for norm in uncalibrated:
            norm.gather = functools.partial(gather, norm)
        try:
            net.forward(stack_images([image for image, _ in draw(iterations[0], k, shares)]),
                        keep=False)
        finally:
            for norm in uncalibrated:
                del norm.gather

    def gather_batch(norm, x):
        """Calibrate norm on every share's x, sample n at index n of the N
        axis of a (C, N, H, W) buffer, and send the workers its statistics.
        A worker's error text raises here."""
        whole = np.empty((x.shape[1], schedule.batch_size, *x.shape[2:]))
        whole[:, 0::shares] = x.transpose(1, 0, 2, 3)
        for k, worker in enumerate(workers, 1):
            part = worker.recv()
            if isinstance(part, str):
                raise ValueError(part)
            whole[:, k::shares] = part
        norm.calibrate(whole.transpose(1, 0, 2, 3))
        for worker in workers:
            worker.send((norm.mu, norm.sigma))

    def serve(k, shares, conn):
        def send_share(norm, x):
            conn.send(x.transpose(1, 0, 2, 3))
            norm.mu, norm.sigma = conn.recv()
            norm.calibrated = True

        try:
            calibration_pass(k, shares, send_share)
        except ValueError as exc:
            conn.send(str(exc))  # read by the parent at its next gather
            return
        while True:
            try:
                iteration, values = conn.recv()
            except EOFError:
                return
            for tensor, value in zip(params, values):
                tensor.values[...] = value
            for outcome in share_outcomes(iteration, k, shares):
                conn.send(outcome)

    history = []
    with forked(schedule.batch_size, serve, "training worker") as workers:
        shares = len(workers) + 1
        calibration_pass(0, shares, gather_batch)
        for iteration in iterations:
            for worker in workers:
                worker.send((iteration, [t.values for t in params]))
            own = share_outcomes(iteration, 0, shares)
            loss, grads = 0.0, [np.zeros_like(t.values) for t in params]
            for n in range(schedule.batch_size):
                outcome = workers[n % shares - 1].recv() if n % shares else next(own)
                if isinstance(outcome, str):
                    raise ValueError(outcome)
                if outcome is not None:
                    loss += outcome[0]
                    for total, grad in zip(grads, outcome[1]):
                        total += grad
            for t, total in zip(params, grads):
                t.grad = total
            loss /= schedule.batch_size
            lr = schedule.lr_at(iteration)
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
