"""End-to-end training methods over noisy data, and their evaluation.

Three methods share one engine:

  * selection_only: every epoch keeps the scheduled small-loss fraction
    of each batch and updates on it.
  * inscorr: selection warmup for the first warmup_epochs epochs; then a
    one-time split of the training set into clean and mislabeled parts,
    targeted correction of the mislabeled instances toward their given
    labels, and further training of the same model on a weighted mix of
    both parts.
  * mix: identical, except the mislabeled instances enter the mix
    unmodified.

During the mixed phase every step draws a clean sub-batch and a
corrected sub-batch whose sizes split the configured batch size
proportionally to the partition sizes; each epoch runs
ceil(n / batch_size) steps with modular wraparound over per-epoch
permutations. The clean permutation is always drawn before the
corrected one from the epoch's generator, so runs whose corrected term
cannot influence training (weight 1 on the clean term, or an empty
corrected set) visit bit-identical clean batches.

Runs train in float32: init_model builds every run's model in that
dtype, and the model's forward and backward passes, losses and Adam
moments follow it. The data are float32 from generation on
(data.Dataset), so batches are gathered in the dtype the model reads
and enter it without a cast, and evaluation forwards whole sets without
a copy. The correction attack (attack.correct_set) runs in the model's
dtype too, so the corrected rows it returns are float32 as well.

RNG streams: epoch shuffles use [seed_epochs, T]; attacks draw their
optional random starts from [seed_noise, 4, T]. Since nothing else
carries over from one epoch to the next but the model and its optimizer,
each phase's output is a function of the config fields its key holds:
runs with one data_key train on equal sets, runs with one warmup_key
pass one state at the end of the warmup, runs with one split_key split
alike, and runs with one correction_key attack alike. A cache handed to
run_experiment keeps those outputs, so the runs of a sweep task generate
their data, train a warmup, split and attack once each.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackConfig, correct_set
from .data import (NO_LABEL, generate_ood_source, generate_synthetic, round_half_up,
                   split_validation)
from .errors import CapacityError, ConfigError, ContractError, NumericError
from .nn import Model, ModelSpec, make_optimizer
from .noise import OPEN_SET, NoiseSpec, apply_noise
from .select import SelectionSchedule, k_smallest, self_teach_epoch

SELECTION_ONLY = "SelectionOnly"
MIX = "Mix"
INSCORR = "InsCorr"
METHODS = (SELECTION_ONLY, MIX, INSCORR)

AGREEMENT = "agreement"
SMALL_LOSS_GLOBAL = "small_loss_global"
PARTITION_RULES = (AGREEMENT, SMALL_LOSS_GLOBAL)


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = INSCORR
    hidden: tuple = (64,)
    optimizer: str = "adam"
    lr: float = 0.001
    n_train: int = 2000
    n_test: int = 1000
    num_classes: int = 4
    height: int = 16
    width: int = 16
    val_fraction: float = 0.1
    noise_route: str = OPEN_SET
    noise_rate: float = 0.4
    noise_spec: NoiseSpec = field(default_factory=NoiseSpec)
    tau: float = None
    ramp_epochs: int = 10
    attack: AttackConfig = field(default_factory=AttackConfig)
    lam: float = 0.5
    warmup_epochs: int = None
    total_epochs: int = 200
    batch_size: int = 128
    refresh_correction: bool = False
    partition_rule: str = AGREEMENT
    seed_data: int = 0
    seed_noise: int = 0
    seed_init: int = 0
    seed_epochs: int = 0

    def __post_init__(self):
        if self.warmup_epochs is None:
            object.__setattr__(self, "warmup_epochs", self.total_epochs // 2)
        if self.tau is None:
            object.__setattr__(self, "tau", self.noise_rate)
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def schedule(self):
        return SelectionSchedule(self.tau, self.ramp_epochs)

    def model_spec(self):
        return ModelSpec(self.height * self.width, self.hidden, self.num_classes)


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    val_accuracy: float  # None without validation rows
    test_accuracy: float
    selection_precision: float = None
    attack_success: float = None


@dataclass
class RunResult:
    model: Model
    optimizer: object
    metrics: list


def init_model(cfg):
    """The run's freshly initialised model, in the run dtype, float32."""
    return Model.init(cfg.model_spec(), seed=[cfg.seed_init], dtype=np.float32)


def data_key(cfg):
    """Everything prepare_data reads: configs with equal keys get equal data."""
    return (cfg.n_train, cfg.n_test, cfg.num_classes, cfg.height, cfg.width,
            cfg.val_fraction, cfg.noise_route, cfg.noise_rate, cfg.noise_spec,
            cfg.seed_data, cfg.seed_noise)


def selection_epochs(cfg):
    """How many epochs, from the first, the run trains by small-loss
    selection: all of them for SelectionOnly or when the warmup covers the
    whole run, else the warmup."""
    if cfg.method == SELECTION_ONLY or cfg.warmup_epochs >= cfg.total_epochs:
        return cfg.total_epochs
    return cfg.warmup_epochs


def prefix_key(cfg):
    """Everything a run's selection epochs read: configs with equal keys
    train bit-identical models through their common selection epochs.

    Method, lambda, the attack, warmup and total epochs, the partition
    rule and refresh only act once selection ends, so they are left out.
    """
    return (data_key(cfg), cfg.hidden, cfg.optimizer, cfg.lr, cfg.tau,
            cfg.ramp_epochs, cfg.batch_size, cfg.seed_init, cfg.seed_epochs)


def warmup_key(cfg):
    """The state after the first min(warmup_epochs, selection_epochs)
    selection epochs of one prefix_key, from a fresh model."""
    return ("warmup", prefix_key(cfg), min(cfg.warmup_epochs, selection_epochs(cfg)))


def split_key(cfg):
    """Everything the split reads: the state at the end of the warmup,
    where every split happens, then the rule it applies (tau, which
    small_loss_global reads, is in the warmup's key already)."""
    return ("split", warmup_key(cfg), cfg.partition_rule)


def correction_key(cfg):
    """Everything the first correction reads: the split, the method and the
    attack, whose random starts draw from seed_noise and the split epoch."""
    return ("correction", split_key(cfg), cfg.method, cfg.attack)


def prepare_data(cfg):
    """(train, validation, test) per the config's data key.

    Noise is injected into the training set first; the validation split
    is carved from the noisy data, so validation labels are noisy too.
    Each set draws from a seed stream of its own, so the order they are
    made in does not matter. On the open_set route the round(rate *
    n_train) out-of-distribution rows the noise writes are drawn on the
    [seed_noise, 3] stream, so seed_noise decides both which rows are
    replaced and what replaces them. Each intermediate set is dropped as
    soon as the next step has what it needs, so at most the clean set,
    the drawn rows (or one block of corrupted rows) and one noisy copy
    are alive together. A noise rate that asks for more replacements
    than a class holds raises ConfigError naming noise.rate.
    """
    (n_train, n_test, classes, height, width, val_fraction,
     route, rate, spec, seed_data, seed_noise) = data_key(cfg)
    full = generate_synthetic(n_train, classes, height, width, seed=[seed_data, 0])
    pool = None
    try:
        if route == OPEN_SET:
            pool = generate_ood_source(round_half_up(rate * n_train), height, width,
                                       seed=[seed_noise, 3], num_classes=classes)
        noisy = apply_noise(full, route, rate, spec, seed=seed_noise, pool=pool)
    except CapacityError as error:
        raise ConfigError(f"noise.rate={rate} asks for more open_set replacements "
                          f"than the data allow: {error}") from error
    del full, pool
    train, val = split_validation(noisy, val_fraction, seed=[seed_data, 3])
    del noisy
    test = generate_synthetic(n_test, classes, height, width, seed=[seed_data, 1])
    return train, val, test


def _accuracy(model, x, labels):
    logits = model.forward(x)[-1]
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits during evaluation")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def evaluate(model, ds):
    """Fraction of instances whose predicted class equals the true label;
    NumericError when a logit is not finite."""
    if np.any(ds.true_labels == NO_LABEL):
        raise ContractError("evaluation set has instances without a true label")
    return _accuracy(model, ds.X, ds.true_labels)


def accuracy_on_given(model, ds):
    """Accuracy against the (possibly noisy) given labels, which are always
    classes; None when empty, NumericError when a logit is not finite."""
    if len(ds) == 0:
        return None
    return _accuracy(model, ds.X, ds.given_labels)


def partition_clean_mislabeled(model, train, rule=AGREEMENT, tau=None):
    """Split training indices into (probably clean, probably mislabeled).

    agreement: clean iff the model's argmax equals the given label.
    small_loss_global: clean = the round((1 - tau) * n) smallest losses
    over the whole set (select.k_smallest).
    """
    if rule == AGREEMENT:
        pred = model.predict(train.X)
        clean_mask = pred == train.given_labels
        clean = np.flatnonzero(clean_mask)
        noisy = np.flatnonzero(~clean_mask)
        return clean, noisy
    if rule == SMALL_LOSS_GLOBAL:
        if tau is None:
            raise ContractError("small_loss_global partition needs tau")
        losses = model.per_example_losses(train.X, train.given_labels)
        return k_smallest(losses, round_half_up((1.0 - tau) * len(train)))
    raise ContractError(f"unknown partition rule {rule!r}")


def mixed_loss(model, clean_x, clean_y, corr_x, corr_y, lam):
    """lam * mean loss over the clean batch + (1 - lam) * mean loss over
    the corrected batch: adds its gradient into model.grad and returns its
    value as a float.

    Each batch runs its own forward and backward pass, clean first. An
    empty batch contributes nothing; a term whose weight is exactly 0 is
    skipped rather than multiplied in, so the other term's gradients are
    untouched bit for bit. When no term is left the loss is 0.0 and
    model.grad is left alone. Both batches empty is a caller bug.
    """
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"lambda must lie in [0, 1], got {lam}")
    n_clean, n_corr = len(clean_x), len(corr_x)
    if n_clean == 0 and n_corr == 0:
        raise ContractError("mixed loss needs at least one non-empty batch")
    total = None
    if n_clean and lam != 0.0:
        total = model.loss_and_grads(clean_x, clean_y, lam)
    if n_corr and lam != 1.0:
        term = model.loss_and_grads(corr_x, corr_y, 1.0 - lam)
        total = term if total is None else total + term
    return 0.0 if total is None else total


def last_ten_summary(metrics):
    """(mean, population std) of test accuracy over the final ten epochs."""
    if len(metrics) < 10:
        raise ContractError(f"need at least 10 epochs, got {len(metrics)}")
    tail = np.array([m.test_accuracy for m in metrics[-10:]])
    return float(tail.mean()), float(tail.std())


def _wrap_positions(perm, step, size, chunk):
    if chunk <= 0 or size == 0:
        return np.empty(0, dtype=np.int64)
    return perm[(step * chunk + np.arange(chunk)) % size]


def _mixed_epoch(model, optimizer, train, clean_idx, corr_x, corr_y, lam, batch_size, rng):
    """One epoch of proportional two-part batches over the rows of train,
    either part possibly an empty array; returns mean step loss."""
    n_total, n_clean, n_corr = len(train), len(clean_idx), len(corr_x)
    clean_bs = round_half_up(batch_size * n_clean / n_total)
    corr_bs = batch_size - clean_bs
    steps = math.ceil(n_total / batch_size)
    perm_clean = rng.permutation(n_clean)
    perm_corr = rng.permutation(n_corr)
    loss_sum = 0.0
    for s in range(steps):
        sel = clean_idx[_wrap_positions(perm_clean, s, n_clean, clean_bs)]
        rpos = _wrap_positions(perm_corr, s, n_corr, corr_bs)
        model.zero_grads()
        loss_sum += mixed_loss(model, train.X[sel], train.given_labels[sel],
                               corr_x[rpos], corr_y[rpos], lam)
        # no gradient means every term had weight zero: nothing to step on
        if model.grad is not None:
            optimizer.step(model)
    return loss_sum / steps


def _build_corrected(cfg, model, train, noisy_idx, epoch):
    """The mislabeled side of the mix in the model's dtype: attacked for
    inscorr, raw for mix."""
    xs = train.X[noisy_idx]  # a gather, so already a copy of the rows
    ys = train.given_labels[noisy_idx]
    if cfg.method == MIX:
        return xs, ys, None
    results = correct_set(
        model, xs, ys, cfg.attack,
        seed=[cfg.seed_noise, 4, epoch] if cfg.attack.random_start else None,
    )
    corrected = np.stack([r.corrected for r in results]) if results else xs
    success = float(np.mean([r.success for r in results])) if results else None
    return corrected, ys, success


def _cached(cache, key, compute):
    """compute()'s tuple, or the one a run before stored under key. The
    arrays in a stored tuple are read-only, so that no run changes
    another's; the stored datasets are shared as they are, as runs only
    read their sets."""
    if cache is None:
        return compute()
    if key not in cache:
        cache[key] = compute()
        for value in cache[key]:
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return cache[key]


def run_experiment(cfg, on_epoch=None, cache=None):
    """Train per the configured method on the config's data in four
    phases: selection epochs, the split, the correction and mixed epochs
    (SelectionOnly runs only the first). Returns a RunResult;
    on_epoch(epoch, model), when given, runs after each epoch's updates.

    cache, a dict shared by runs, keeps the sets prepare_data made under
    ("data", data_key), the state after the first min(warmup_epochs,
    selection_epochs) selection epochs under warmup_key, the split under
    split_key and, for InsCorr unless refresh_correction is set, the first
    correction under correction_key. A run takes each phase a run before
    stored, skipping on_epoch for the epochs of a stored warmup, and
    continues on copies of the warmup state, so SelectionOnly trains its
    remaining epochs as a run alone does; a phase that raises stores
    nothing. The result is bit for bit that of a run without a cache.
    """
    train, val, test = _cached(cache, ("data", data_key(cfg)), lambda: prepare_data(cfg))
    schedule = cfg.schedule()

    def end_epoch(model, metrics, epoch, train_loss, precision=None, attack_success=None):
        metrics.append(EpochMetrics(
            epoch, train_loss, val_accuracy=accuracy_on_given(model, val),
            test_accuracy=evaluate(model, test), selection_precision=precision,
            attack_success=attack_success))
        if on_epoch is not None:
            on_epoch(epoch, model)

    def select(model, optimizer, metrics, epochs):
        for epoch in epochs:
            rng = np.random.default_rng([cfg.seed_epochs, epoch])
            stats = self_teach_epoch(model, optimizer, train, schedule, epoch, cfg.batch_size, rng)
            end_epoch(model, metrics, epoch, stats.mean_loss, precision=stats.precision)
        return model, optimizer, metrics

    n_select = selection_epochs(cfg)
    n_warm = min(cfg.warmup_epochs, n_select)
    model, optimizer, metrics = _cached(cache, warmup_key(cfg), lambda: select(
        init_model(cfg), make_optimizer(cfg.optimizer, cfg.lr), [], range(n_warm)))
    # an epoch's records are never changed once appended, so they are shared
    model, optimizer, metrics = select(model.clone(), optimizer.clone(), list(metrics),
                                       range(n_warm, n_select))
    if n_select == cfg.total_epochs:
        return RunResult(model, optimizer, metrics)

    clean_idx, noisy_idx = _cached(cache, split_key(cfg), lambda: partition_clean_mislabeled(
        model, train, cfg.partition_rule, cfg.tau))
    refresh = cfg.refresh_correction and cfg.method == INSCORR
    corr_x, corr_y, success = _cached(
        cache if cfg.method == INSCORR and not refresh else None, correction_key(cfg),
        lambda: _build_corrected(cfg, model, train, noisy_idx, n_select))
    for epoch in range(n_select, cfg.total_epochs):
        if refresh and epoch > n_select:
            corr_x, corr_y, success = _build_corrected(cfg, model, train, noisy_idx, epoch)
        rng = np.random.default_rng([cfg.seed_epochs, epoch])
        train_loss = _mixed_epoch(model, optimizer, train, clean_idx, corr_x, corr_y,
                                  cfg.lam, cfg.batch_size, rng)
        end_epoch(model, metrics, epoch, train_loss,
                  attack_success=success if refresh or epoch == n_select else None)
    return RunResult(model, optimizer, metrics)
