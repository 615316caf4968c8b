"""Verification checks behind `inscorr verify`.

Each check is a named function returning (passed, detail). run_all
executes a selection of them, prints one PASS/FAIL line per check, and
returns overall success. The same functions back the acceptance test
module, which pins the thresholds and runtime budgets used here.
"""

import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from . import ONE_BLAS_THREAD
from .attack import AttackConfig, correct_set
from .config import (
    apply_overrides,
    config_hash,
    load_config,
    resolve_config,
    to_experiment_config,
)
from .data import generate_ood_source, generate_synthetic, round_half_up
from .errors import ContractError
from .nn import Adam, Model, ModelSpec, cross_entropy, make_optimizer
from .noise import (
    KIND_NAMES,
    OPEN_SET,
    NoiseKind,
    NoiseSpec,
    apply_noise,
    corruption_transform,
)
from .pipeline import (
    INSCORR,
    MIX,
    SELECTION_ONLY,
    ExperimentConfig,
    _mixed_epoch,
    evaluate,
    init_model,
    last_ten_summary,
    mixed_loss,
    partition_clean_mislabeled,
    prepare_data,
    run_experiment,
)
from .select import SelectionSchedule, select_small_loss, self_teach_epoch
from .sweep import sweep

ORDERING_SEEDS = (0, 1, 2, 3, 4)
MEMORIZATION_SEEDS = (0, 1, 2)


# --- gradients ---------------------------------------------------------


def _loss_value(model, x, y):
    return float(np.mean(model.per_example_losses(x, y)))


def _fd_gradient_inplace(array, eval_loss, h=1e-5):
    flat = array.reshape(-1)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = eval_loss()
        flat[i] = keep - h
        down = eval_loss()
        flat[i] = keep
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(array.shape)


def _max_rel_error(a, b, floor=1e-6):
    scale = np.maximum(floor, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / scale))


def check_gradients():
    """Backprop versus central finite differences on random networks."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 33))
        depth = int(rng.integers(0, 3))
        hidden = tuple(int(rng.integers(3, 9)) for _ in range(depth))
        c = int(rng.integers(2, 6))
        b = int(rng.integers(3, 7))
        model = Model.init(ModelSpec(d, hidden, c), seed=trial)
        # zero-init biases put dead rows exactly on the relu kink, where
        # central differences disagree with any valid subgradient
        for bias in model.biases:
            bias[:] = rng.normal(0.0, 0.05, bias.shape)
        x = rng.uniform(0.0, 1.0, (b, d))
        y = rng.integers(0, c, b).astype(np.int64)

        outputs = model.forward(x)
        _, probs = cross_entropy(outputs[-1], y)
        row_weights = np.full(b, 1.0 / b)
        model.zero_grads()
        model.backward(outputs, probs, y, row_weights)
        grad_x = model.backward(outputs, probs, y, row_weights, input_grad=True)

        fd = _fd_gradient_inplace(model.flat, lambda: _loss_value(model, x, y))
        worst = max(worst, _max_rel_error(model.grad, fd))
        fd_x = _fd_gradient_inplace(x, lambda: _loss_value(model, x, y))
        worst = max(worst, _max_rel_error(grad_x, fd_x))
    return worst < 1e-3, f"max relative error {worst:.2e} over 20 networks"


# --- schedule ----------------------------------------------------------


def check_schedule():
    """Keep fraction matches its closed form; kept counts match ceil."""
    rng = np.random.default_rng(5)
    for tau in (0.2, 0.4, 0.6, 0.8):
        schedule = SelectionSchedule(tau, 10)
        for epoch in range(31):
            got = schedule.keep_fraction(epoch)
            if got != 1.0 - min(epoch / 10 * tau, tau):
                return False, f"fraction mismatch at tau={tau}, epoch={epoch}"
            if epoch >= 10 and got != 1.0 - tau:
                return False, f"plateau mismatch at tau={tau}, epoch={epoch}"
            for batch in (1, 7, 32, 128):
                losses = rng.uniform(0.0, 5.0, batch)
                kept, _ = select_small_loss(losses, got)
                if len(kept) != math.ceil(got * batch):
                    return False, (
                        f"kept {len(kept)} of {batch} at tau={tau}, epoch={epoch}"
                    )
    return True, "4 rates x 31 epochs x 4 batch sizes exact"


# --- selection ---------------------------------------------------------


def check_selection():
    """select_small_loss agrees with a full-sort oracle, ties included."""
    rng = np.random.default_rng(77)
    for trial in range(1000):
        b = int(rng.integers(1, 9))
        # one-decimal values force plenty of ties
        losses = np.round(rng.uniform(0.0, 1.0, b), 1)
        fraction = float(rng.uniform(0.05, 1.0))
        kept, discarded = select_small_loss(losses, fraction)
        order = sorted(range(b), key=lambda i: (losses[i], i))
        k = math.ceil(fraction * b)
        want_kept = np.sort(np.array(order[:k], dtype=np.int64))
        want_disc = np.sort(np.array(order[k:], dtype=np.int64))
        if not (np.array_equal(kept, want_kept)
                and np.array_equal(discarded, want_disc)):
            return False, f"mismatch on trial {trial}: losses={losses.tolist()}"
    return True, "1000 random batches match the sort oracle"


# --- ordering ----------------------------------------------------------


# lr doubles the config default: at 60 epochs the shorter runs need the
# larger step for the method gaps to separate from seed noise
_ORDERING_BASE = (
    "model.hidden=[64]", "model.lr=0.002", "data.n_train=2000", "data.n_test=1000",
    "data.num_classes=4", "data.height=16", "data.width=16", "noise.rate=0.4",
    "training.warmup_epochs=30", "training.total_epochs=60", "training.batch_size=128",
)


def _ordering_config(route, method, lam=0.5):
    return {"method": method, "noise": {"route": route}, "training": {"lambda": lam}}


def _ordering_run(resolved, cache):
    metrics = run_experiment(to_experiment_config(resolved), cache=cache).metrics
    return last_ten_summary(metrics)[0]


def check_ordering():
    """Corrected instances help under corruption; raw replaced ones hurt."""
    corruptions = ("fog", "occlusion", "resolution")
    cells = [_ordering_config(route, method)
             for route in corruptions for method in (INSCORR, SELECTION_ONLY)]
    cells += [_ordering_config(OPEN_SET, SELECTION_ONLY),
              _ordering_config(OPEN_SET, MIX, lam=0.7)]
    base = apply_overrides(load_config(), _ORDERING_BASE)
    # forked workers keep the process's BLAS threads, so two of them only
    # pay off when each runs one (see the package docstring)
    workers = min(2, os.cpu_count() or 1) if ONE_BLAS_THREAD else 1
    results, failures = sweep(base, cells, ORDERING_SEEDS, _ordering_run, workers=workers)
    if failures:
        return False, f"{len(failures)} runs failed, first: {failures[0][2]}"
    means = [result.mean for result in results]
    details, wins, ok = [], 0, True
    for route, ins, sel in zip(corruptions, means[0:6:2], means[1:6:2]):
        details.append(f"{route}: corrected {ins:.4f} vs selection {sel:.4f}")
        if ins < sel - 0.005:
            ok = False
        if ins > sel:
            wins += 1
    if wins < 2:
        ok = False
    sel, mix = means[6:]
    details.append(f"open_set: selection {sel:.4f} vs raw mix {mix:.4f}")
    if sel - mix < 0.02:
        ok = False
    return ok, "; ".join(details) + f"; corrected wins {wins}/3"


# --- attack ------------------------------------------------------------


def check_attack():
    """Budget and clamp hold on every result, in float64 terms, for a
    float64 model and for its float32 copy on float32 rows, the dtype
    runs attack in; targeted efficacy is high."""
    rng = np.random.default_rng(99)
    spec = ModelSpec(40, (12,), 4)
    rough = Model.init(spec, seed=1)
    xs = rng.uniform(0.0, 1.0, (30, 40))
    targets = rng.integers(0, 4, 30).astype(np.int64)
    for dtype in (np.float64, np.float32):
        model = Model(spec, rough.flat.astype(dtype))
        rows = xs.astype(dtype)
        for norm in ("linf", "l2"):
            cfg = AttackConfig(norm=norm, budget=0.2, steps=10)
            for x, result in zip(rows, correct_set(model, rows, targets, cfg)):
                delta = result.corrected.astype(np.float64) - x  # exact
                size = (np.max(np.abs(delta)) if norm == "linf"
                        else np.linalg.norm(delta))
                if size > cfg.budget + 1e-9:
                    return False, f"{dtype.__name__} {norm} budget exceeded: {size}"
                if not np.all((result.corrected >= 0.0) & (result.corrected <= 1.0)):
                    return False, f"{dtype.__name__} {norm} clamp violated"

    # 30 epochs of plain training: selection that keeps every row
    train = generate_synthetic(2000, 4, 16, 16, seed=7)
    model, optimizer = Model.init(ModelSpec(256, (64,), 4), seed=7), Adam(0.001)
    shuffle = np.random.default_rng(0)
    for epoch in range(30):
        self_teach_epoch(model, optimizer, train, SelectionSchedule(0.0, 1), epoch, 128, shuffle)
    ood = generate_ood_source(200, 16, 16, seed=8)
    targets = np.random.default_rng(9).integers(0, 4, 200).astype(np.int64)
    cfg = AttackConfig(norm="linf", budget=0.3, steps=40)
    results = correct_set(model, ood, targets, cfg)
    rate = float(np.mean([r.success for r in results]))
    return rate >= 0.95, f"targeted success {rate:.3f} on 200 held-out instances"


# --- reductions --------------------------------------------------------


def _clean_partition_only(cfg, on_epoch=None):
    """The reductions oracle: selection warmup, then training on the clean
    partition alone through the mixed-phase engine with an empty corrected set,
    which a run whose corrected term has weight zero must match bit for
    bit, so it starts from the run's own model and data. Returns the model
    and each epoch's test accuracy."""
    train, _, test = prepare_data(cfg)
    model = init_model(cfg)
    optimizer = make_optimizer(cfg.optimizer, cfg.lr)
    clean_idx = None
    accuracies = []
    for epoch in range(cfg.total_epochs):
        rng = np.random.default_rng([cfg.seed_epochs, epoch])
        if epoch < cfg.warmup_epochs:
            self_teach_epoch(model, optimizer, train, cfg.schedule(), epoch, cfg.batch_size, rng)
        else:
            if clean_idx is None:
                clean_idx, _ = partition_clean_mislabeled(
                    model, train, cfg.partition_rule, cfg.tau)
            _mixed_epoch(model, optimizer, train, clean_idx, train.X[:0],
                         train.given_labels[:0], 1.0, cfg.batch_size, rng)
        accuracies.append(evaluate(model, test))
        if on_epoch is not None:
            on_epoch(epoch, model)
    return model, accuracies


def _trajectory(run, cfg):
    hashes = []

    def snap(epoch, model):
        hashes.append(model.flat.tobytes())

    run(cfg, on_epoch=snap)
    return hashes


def check_reductions():
    """Degenerate settings collapse the methods onto each other exactly."""
    base = dict(
        hidden=(8,), n_train=120, n_test=60, num_classes=4, height=8, width=8,
        noise_route="gaussian", noise_rate=0.3,
        attack=AttackConfig(budget=0.1, steps=3),
        total_epochs=6, warmup_epochs=3, batch_size=32,
        seed_data=11, seed_noise=12, seed_init=13, seed_epochs=14,
    )
    degen = dict(base, warmup_epochs=6)
    a = _trajectory(run_experiment, ExperimentConfig(method=INSCORR, **degen))
    b = _trajectory(run_experiment, ExperimentConfig(method=SELECTION_ONLY, **degen))
    if a != b:
        return False, "full-warmup run diverged from pure selection"

    lam1 = dict(base, lam=1.0)
    a = _trajectory(run_experiment, ExperimentConfig(method=INSCORR, **lam1))
    b = _trajectory(run_experiment, ExperimentConfig(method=MIX, **lam1))
    c = _trajectory(_clean_partition_only, ExperimentConfig(method=INSCORR, **lam1))
    if not (a == b == c):
        return False, "weight-1 runs diverged from clean-partition training"

    # the affinity oracle is float64, whatever dtype runs train in
    cfg = ExperimentConfig(method=INSCORR, **base)
    model = Model.init(cfg.model_spec(), seed=3)
    train = prepare_data(cfg)[0]
    cx, cy = train.X[:40], train.given_labels[:40]
    rx, ry = train.X[40:60], train.given_labels[40:60]
    lc = _loss_value(model, cx, cy)
    lr = _loss_value(model, rx, ry)
    worst = 0.0
    for lam in (0.25, 0.5, 0.75):
        got = mixed_loss(model, cx, cy, rx, ry, lam)
        worst = max(worst, abs(got - (lam * (lc - lr) + lr)))
    if worst > 1e-12:
        return False, f"mixing not affine in the weight: residual {worst:.2e}"
    return True, f"trajectories identical; affinity residual {worst:.2e}"


# --- noise -------------------------------------------------------------


def check_noise():
    """Injection counts, label multisets, ranges, and exact identities."""
    n = 150
    ds = generate_synthetic(n, 4, 8, 8, seed=42)
    spec = NoiseSpec()
    for route in (OPEN_SET,) + tuple(KIND_NAMES):
        for rate in (0.0, 0.2, 0.8):
            pool = generate_ood_source(round_half_up(rate * n), 8, 8, seed=43)
            out = apply_noise(ds, route, rate, spec, seed=5, pool=pool)
            if sorted(out.given_labels) != sorted(ds.given_labels):
                return False, f"label multiset changed for {route} at {rate}"
            touched = int((out.provenance != 0).sum())
            if touched != round_half_up(rate * n):
                return False, f"{route} at {rate}: touched {touched}"
            if not (out.X.min() >= 0.0 and out.X.max() <= 1.0):
                return False, f"{route} at {rate}: values left [0, 1]"
            if rate == 0.0 and not np.array_equal(out.X, ds.X):
                return False, f"{route} at 0: instances changed"

    rng = np.random.default_rng(6)
    grid = ds.grid(0)
    identities = (
        ("gaussian", NoiseSpec(gaussian_sigma=0.0), NoiseKind.GAUSSIAN),
        ("blur", NoiseSpec(blur_length=1), NoiseKind.MOTION_BLUR),
        ("fog", NoiseSpec(fog_intensity=0.0), NoiseKind.FOG),
        ("resolution", NoiseSpec(resolution_factor=1), NoiseKind.RESOLUTION),
        ("occlusion", NoiseSpec(occlusion_fraction=0.0), NoiseKind.OCCLUSION),
    )
    for name, degenerate, kind in identities:
        out = corruption_transform(grid, kind, degenerate, rng)
        if not np.array_equal(out, grid):
            return False, f"degenerate {name} is not an identity"
    return True, "6 routes x 3 rates invariant; 5 degenerate identities exact"


# --- memorization ------------------------------------------------------


def _memorization_run(resolved, cache):
    metrics = run_experiment(to_experiment_config(resolved), cache=cache).metrics
    return metrics[10].selection_precision


def check_memorization():
    """Early selection is much cleaner than the noise base rate."""
    base = apply_overrides(load_config(), _ORDERING_BASE + (
        f"method={SELECTION_ONLY}", f"noise.route={OPEN_SET}",
        "training.warmup_epochs=11", "training.total_epochs=11",
    ))
    results, failures = sweep(base, [{}], MEMORIZATION_SEEDS, _memorization_run)
    if failures:
        return False, f"{len(failures)} runs failed, first: {failures[0][2]}"
    mean = results[0].mean
    passed = mean >= 0.9 and mean > 0.6
    return passed, f"selection precision {mean:.4f} at the ramp end (base 0.6)"


# --- reproducibility ---------------------------------------------------


def check_reproducibility():
    """The same config hash yields byte-identical metrics files."""
    from .artifacts import write_run

    # InsCorr, the default method, on a small gaussian-noise problem
    resolved = resolve_config(apply_overrides(load_config(), (
        "model.hidden=[16]", "data.n_train=300", "data.n_test=100", "data.height=8",
        "data.width=8", "noise.route=gaussian", "noise.rate=0.3", "attack.steps=5",
        "training.warmup_epochs=6", "training.total_epochs=12", "training.batch_size=64",
        "seeds.data=1", "seeds.noise=2", "seeds.init=3", "seeds.epochs=4",
    )))
    digest = config_hash(resolved)
    with tempfile.TemporaryDirectory() as tmp:
        dir_a, _ = write_run(resolved, Path(tmp) / "a")
        dir_b, _ = write_run(resolved, Path(tmp) / "b")
        for name in ("metrics.jsonl", "metrics.csv", "summary.json"):
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                return False, f"{name} differs between repeated runs"
    return True, f"hash {digest}: repeated runs byte-identical"


CHECKS = (
    ("gradients", check_gradients),
    ("schedule", check_schedule),
    ("selection", check_selection),
    ("ordering", check_ordering),
    ("attack", check_attack),
    ("reductions", check_reductions),
    ("noise", check_noise),
    ("memorization", check_memorization),
    ("reproducibility", check_reproducibility),
)


def run_all(only=None):
    """Run the named checks (all by default), print one line each, and
    return whether every one passed."""
    names = [name for name, _ in CHECKS]
    if only is not None:
        unknown = [n for n in only if n not in names]
        if unknown:
            raise ContractError(f"unknown checks: {', '.join(unknown)}")
    verdicts = []
    for name, fn in CHECKS:
        if only is not None and name not in only:
            continue
        started = time.perf_counter()
        passed, detail = fn()
        seconds = time.perf_counter() - started
        verdicts.append(passed)
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail} ({seconds:.1f}s)")
    all_passed = all(verdicts)
    print(f"{'all checks passed' if all_passed else 'CHECKS FAILED'} ({len(verdicts)} run)")
    return all_passed
