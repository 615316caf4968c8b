"""Small-loss selection: keep the lowest-loss fraction of each mini-batch.

The keep fraction follows a ramp schedule: starting at 1, it falls
linearly over the first ramp_epochs epochs to 1 - noise_rate and stays
there. Training updates use only the kept examples, on the premise that
the network fits clean data before noisy data, so low loss early in
training marks probably-clean examples.

Each batch runs forward once: the per-example losses that pick the kept
rows come from the same layer outputs that the update then backpropagates
through, restricted to the kept rows. Batches are gathered from the
float32 training rows, the dtype a run's model reads, so they enter the
forward pass without a cast.
"""

from dataclasses import dataclass

import numpy as np

from .data import permutation_batches
from .errors import ContractError, NumericError
from .nn import cross_entropy


@dataclass(frozen=True)
class SelectionSchedule:
    noise_rate: float
    ramp_epochs: int = 10

    def __post_init__(self):
        if not 0.0 <= self.noise_rate < 1.0:
            raise ContractError(
                f"noise_rate must lie in [0, 1), got {self.noise_rate}"
            )
        if self.ramp_epochs < 1:
            raise ContractError(
                f"ramp_epochs must be at least 1, got {self.ramp_epochs}"
            )

    def keep_fraction(self, epoch):
        """1 - min(epoch/ramp * rate, rate); non-increasing, floor 1 - rate."""
        if epoch < 0:
            raise ContractError(f"epoch must be non-negative, got {epoch}")
        return 1.0 - min(epoch / self.ramp_epochs * self.noise_rate, self.noise_rate)


def k_smallest(losses, k):
    """(indices of the k smallest losses, indices of the rest): ties break
    toward the lower index, and both arrays are in ascending order."""
    order = np.argsort(losses, kind="stable")
    return np.sort(order[:k]), np.sort(order[k:])


def select_small_loss(losses, keep_fraction):
    """Indices of the ceil(keep_fraction * b) smallest losses, and the rest,
    per k_smallest."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size == 0:
        raise ContractError(f"losses must be a non-empty vector, got shape {losses.shape}")
    if not 0.0 < keep_fraction <= 1.0:
        raise ContractError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    nan = np.isnan(losses)
    if nan.any():
        raise NumericError(f"loss at index {int(np.argmax(nan))} is NaN")
    return k_smallest(losses, int(np.ceil(keep_fraction * losses.size)))


@dataclass
class SelfTeachStats:
    batches: int = 0
    kept_total: int = 0
    kept_clean: int = 0
    loss_sum: float = 0.0

    @property
    def precision(self):
        """Fraction of kept examples whose provenance is clean."""
        return self.kept_clean / self.kept_total if self.kept_total else float("nan")

    @property
    def mean_loss(self):
        return self.loss_sum / self.batches if self.batches else float("nan")


def self_teach_epoch(model, optimizer, train, schedule, epoch, batch_size, rng):
    """One epoch of select-then-update over a seeded batch permutation.

    Per batch: one forward pass and the per-example losses, small-loss
    selection at this epoch's keep fraction, then one optimizer step on
    the mean loss over the kept examples only, backpropagated through
    the kept rows of the same forward pass.
    """
    keep = schedule.keep_fraction(epoch)
    stats = SelfTeachStats()
    clean = train.provenance == 0
    for batch_idx in permutation_batches(rng, len(train), batch_size):
        labels = train.given_labels[batch_idx]
        outputs = model.forward(train.X[batch_idx])
        losses, probs = cross_entropy(outputs[-1], labels)
        kept, _ = select_small_loss(losses, keep)
        k = kept.size
        model.zero_grads()
        model.backward([h[kept] for h in outputs[:-1]], probs[kept], labels[kept],
                       np.full(k, 1.0 / k))
        optimizer.step(model)
        sel = batch_idx[kept]
        stats.batches += 1
        stats.kept_total += k
        stats.kept_clean += int(np.sum(clean[sel]))
        stats.loss_sum += float(losses[kept].sum() / k)
    return stats
