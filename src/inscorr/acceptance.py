"""Verification checks behind `inscorr verify`.

Each check is a named function returning (passed, detail). run_all
executes a selection of them, prints one PASS/FAIL line per check, and
reports overall success. The same functions back the acceptance test
module, which pins the thresholds and runtime budgets used here.
"""

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import AttackConfig, correct_set
from .config import config_hash, resolve_config
from .data import generate_ood_source, generate_synthetic
from .errors import ContractError
from .nn import Adam, Model, ModelSpec, cross_entropy
from .noise import (
    KIND_NAMES,
    OPEN_SET,
    NoiseKind,
    NoiseSpec,
    _round_half_up,
    apply_noise,
    corruption_transform,
)
from .pipeline import (
    INSCORR,
    MIX,
    SELECTION_ONLY,
    ExperimentConfig,
    mixed_loss,
    prepare_data,
    run_clean_partition_only,
    run_experiment,
)
from .select import SelectionSchedule, select_small_loss

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
            bias.data[:] = rng.normal(0.0, 0.05, bias.data.shape)
        x = rng.uniform(0.0, 1.0, (b, d))
        y = rng.integers(0, c, b).astype(np.int64)

        outputs = model.forward(x)
        _, probs = cross_entropy(outputs[-1], y)
        row_weights = np.full(b, 1.0 / b)
        model.zero_grads()
        model.backward(outputs, probs, y, row_weights)
        grad_x = model.backward(outputs, probs, y, row_weights, input_grad=True)

        for p in model.parameters():
            fd = _fd_gradient_inplace(p.data, lambda: _loss_value(model, x, y))
            worst = max(worst, _max_rel_error(p.grad, fd))
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


def _ordering_config(route, method, seed, lam=0.5):
    # lr doubles the config default: at 60 epochs the shorter runs need
    # the larger step for the method gaps to separate from seed noise
    return ExperimentConfig(
        method=method,
        hidden=(64,),
        lr=0.002,
        n_train=2000,
        n_test=1000,
        num_classes=4,
        height=16,
        width=16,
        noise_route=route,
        noise_rate=0.4,
        lam=lam,
        warmup_epochs=30,
        total_epochs=60,
        batch_size=128,
        seed_data=seed,
        seed_noise=seed,
        seed_init=seed,
        seed_epochs=seed,
    )


def _last_ten_mean(metrics):
    return float(np.mean([m.test_accuracy for m in metrics[-10:]]))


def _mean_over_seeds(route, method, lam=0.5):
    accs = []
    for seed in ORDERING_SEEDS:
        cfg = _ordering_config(route, method, seed, lam)
        accs.append(_last_ten_mean(run_experiment(cfg).metrics))
    return float(np.mean(accs))


def check_ordering():
    """Corrected instances help under corruption; raw replaced ones hurt."""
    details = []
    wins = 0
    ok = True
    for route in ("fog", "occlusion", "resolution"):
        ins = _mean_over_seeds(route, INSCORR)
        sel = _mean_over_seeds(route, SELECTION_ONLY)
        details.append(f"{route}: corrected {ins:.4f} vs selection {sel:.4f}")
        if ins < sel - 0.005:
            ok = False
        if ins > sel:
            wins += 1
    if wins < 2:
        ok = False
    sel = _mean_over_seeds(OPEN_SET, SELECTION_ONLY)
    mix = _mean_over_seeds(OPEN_SET, MIX, lam=0.7)
    details.append(f"open_set: selection {sel:.4f} vs raw mix {mix:.4f}")
    if sel - mix < 0.02:
        ok = False
    return ok, "; ".join(details) + f"; corrected wins {wins}/3"


# --- attack ------------------------------------------------------------


def _train_plain(model, ds, epochs, batch_size=128, seed=0):
    optimizer = Adam(0.001).attach(model)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        perm = rng.permutation(len(ds))
        for lo in range(0, len(ds), batch_size):
            sel = perm[lo:lo + batch_size]
            model.zero_grads()
            model.loss_and_grads(ds.X[sel], ds.true_labels[sel])
            optimizer.step(model)
    return model


def check_attack():
    """Budget and clamp hold on every result; targeted efficacy is high."""
    rng = np.random.default_rng(99)
    spec = ModelSpec(40, (12,), 4)
    rough = Model.init(spec, seed=1)
    xs = rng.uniform(0.0, 1.0, (30, 40))
    targets = rng.integers(0, 4, 30).astype(np.int64)
    for norm in ("linf", "l2"):
        cfg = AttackConfig(norm=norm, budget=0.2, steps=10)
        for x, result in zip(xs, correct_set(rough, xs, targets, cfg)):
            delta = result.corrected - x
            size = (np.max(np.abs(delta)) if norm == "linf"
                    else np.linalg.norm(delta))
            if size > cfg.budget + 1e-9:
                return False, f"{norm} budget exceeded: {size}"
            if not np.all((result.corrected >= 0.0) & (result.corrected <= 1.0)):
                return False, f"{norm} clamp violated"

    train = generate_synthetic(2000, 4, 16, 16, seed=7)
    model = _train_plain(Model.init(ModelSpec(256, (64,), 4), seed=7), train, 30)
    ood = generate_ood_source(200, 16, 16, seed=8)
    targets = np.random.default_rng(9).integers(0, 4, 200).astype(np.int64)
    cfg = AttackConfig(norm="linf", budget=0.3, steps=40)
    results = correct_set(model, ood.X, targets, cfg)
    rate = float(np.mean([r.success for r in results]))
    return rate >= 0.95, f"targeted success {rate:.3f} on 200 held-out instances"


# --- reductions --------------------------------------------------------


def _trajectory(run, cfg, data):
    hashes = []

    def snap(epoch, model):
        hashes.append(tuple(p.data.tobytes() for p in model.parameters()))

    run(cfg, data=data, on_epoch=snap)
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
    data = prepare_data(ExperimentConfig(method=INSCORR, **base))

    degen = dict(base, warmup_epochs=6)
    a = _trajectory(run_experiment, ExperimentConfig(method=INSCORR, **degen), data)
    b = _trajectory(run_experiment, ExperimentConfig(method=SELECTION_ONLY, **degen), data)
    if a != b:
        return False, "full-warmup run diverged from pure selection"

    lam1 = dict(base, lam=1.0)
    a = _trajectory(run_experiment, ExperimentConfig(method=INSCORR, **lam1), data)
    b = _trajectory(run_experiment, ExperimentConfig(method=MIX, **lam1), data)
    c = _trajectory(run_clean_partition_only, ExperimentConfig(method=INSCORR, **lam1), data)
    if not (a == b == c):
        return False, "weight-1 runs diverged from clean-partition training"

    model = Model.init(ExperimentConfig(method=INSCORR, **base).model_spec(), seed=3)
    train = data[0]
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
    pool = generate_ood_source(n, 8, 8, seed=43)
    spec = NoiseSpec()
    for route in (OPEN_SET,) + tuple(KIND_NAMES):
        for rate in (0.0, 0.2, 0.8):
            out = apply_noise(ds, route, rate, spec, seed=5, pool=pool)
            if sorted(out.given_labels) != sorted(ds.given_labels):
                return False, f"label multiset changed for {route} at {rate}"
            touched = int((out.provenance != 0).sum())
            if touched != _round_half_up(rate * n):
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


def check_memorization():
    """Early selection is much cleaner than the noise base rate."""
    precisions = []
    for seed in MEMORIZATION_SEEDS:
        cfg = ExperimentConfig(
            method=SELECTION_ONLY, hidden=(64,), lr=0.002, n_train=2000,
            n_test=1000, num_classes=4, height=16, width=16,
            noise_route=OPEN_SET, noise_rate=0.4, warmup_epochs=11,
            total_epochs=11, batch_size=128,
            seed_data=seed, seed_noise=seed, seed_init=seed, seed_epochs=seed,
        )
        metrics = run_experiment(cfg).metrics
        precisions.append(metrics[10].selection_precision)
    mean = float(np.mean(precisions))
    passed = mean >= 0.9 and mean > 0.6
    return passed, f"selection precision {mean:.4f} at the ramp end (base 0.6)"


# --- reproducibility ---------------------------------------------------


def check_reproducibility():
    """The same config hash yields byte-identical metrics files."""
    from .artifacts import write_run

    resolved = resolve_config({
        "method": "InsCorr",
        "model": {"hidden": [16], "optimizer": "adam", "lr": 0.001},
        "data": {"n_train": 300, "n_test": 100, "num_classes": 4,
                 "height": 8, "width": 8, "val_fraction": 0.1, "pool_size": None},
        "noise": {"route": "gaussian", "rate": 0.3, "gaussian_sigma": 0.25,
                  "occlusion_fraction": 0.25, "resolution_factor": 4,
                  "fog_intensity": 0.8, "fog_decay": 1.0, "blur_length": 5,
                  "blur_angle_deg": 0.0},
        "selection": {"tau": None, "ramp_epochs": 10},
        "attack": {"norm": "linf", "budget": 8.0 / 255.0, "steps": 5,
                   "step_size": None, "random_start": False},
        "training": {"lambda": 0.5, "warmup_epochs": 6, "total_epochs": 12,
                     "batch_size": 64, "refresh_correction": False,
                     "partition_rule": "agreement"},
        "seeds": {"data": 1, "noise": 2, "init": 3, "epochs": 4},
    })
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


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass
class Report:
    outcomes: list

    @property
    def all_passed(self):
        return all(o.passed for o in self.outcomes)


def run_all(only=None, out=print):
    """Run the named checks (all by default) and print one line each."""
    names = [name for name, _ in CHECKS]
    if only is not None:
        unknown = [n for n in only if n not in names]
        if unknown:
            raise ContractError(f"unknown checks: {', '.join(unknown)}")
    outcomes = []
    for name, fn in CHECKS:
        if only is not None and name not in only:
            continue
        started = time.perf_counter()
        passed, detail = fn()
        seconds = time.perf_counter() - started
        outcomes.append(CheckOutcome(name, passed, detail, seconds))
        status = "PASS" if passed else "FAIL"
        out(f"{status} {name}: {detail} ({seconds:.1f}s)")
    report = Report(outcomes)
    out(f"{'all checks passed' if report.all_passed else 'CHECKS FAILED'}"
        f" ({len(outcomes)} run)")
    return report
