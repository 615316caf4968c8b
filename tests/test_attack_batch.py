"""Batched correction: every row of a call behaves as if attacked alone."""

import tracemalloc
import warnings

import numpy as np
import pytest

from inscorr.attack import L2, LINF, AttackConfig, CorrectionResult, _row_norms, correct_set
from inscorr.nn import Model, ModelSpec, cross_entropy

from test_attack import small_trained_model


def loss_and_grad(model, x, target):
    """One row's targeted loss and input gradient from the model's own backward."""
    outputs = model.forward(x[None, :])
    loss, probs = cross_entropy(outputs[-1], [target])
    grad = model.backward(outputs, probs, [target], [1.0], input_grad=True)
    return float(loss[0]), grad[0]


def reference_row(model, x, target, cfg):
    """The per-row PGD loop from delta = 0, one single-row gradient per step."""
    delta = np.zeros_like(x)
    best_loss, best_delta, best_iter = np.inf, delta, 0
    for k in range(cfg.steps + 1):
        loss, grad = loss_and_grad(model, x + delta, target)
        if loss < best_loss:
            best_loss, best_delta, best_iter = loss, delta.copy(), k
        if k == cfg.steps:
            break
        if cfg.norm == LINF:
            delta = np.clip(delta - cfg.step_size * np.sign(grad), -cfg.budget, cfg.budget)
        else:
            delta = delta - cfg.step_size * grad / max(float(np.linalg.norm(grad)), 1e-12)
            norm = float(np.linalg.norm(delta))
            if norm > cfg.budget:
                delta = delta * (cfg.budget / norm)
        delta = np.clip(x + delta, 0.0, 1.0) - x
    corrected = x + best_delta
    success = int(model.predict(corrected[None, :])[0]) == target
    return CorrectionResult(corrected, best_loss, success, best_iter)


def reference_rows(model, xs, targets, cfg, rows):
    """reference_row over the given rows."""
    return [reference_row(model, xs[j], int(targets[j]), cfg) for j in rows]


def assert_same(batched, alone):
    assert batched.error is None
    assert np.max(np.abs(batched.corrected - alone.corrected)) <= 1e-12
    assert abs(batched.loss - alone.loss) <= 1e-12
    assert batched.best_iteration == alone.best_iteration
    assert batched.success == alone.success


@pytest.mark.parametrize("norm,budget", [(LINF, 0.1), (L2, 0.3)])
def test_batched_rows_match_solo_rows(norm, budget):
    model = small_trained_model(seed=30)
    rng = np.random.default_rng(32)
    xs = np.clip(rng.normal(0.5, 0.2, size=(9, 12)), 0.0, 1.0)
    targets = rng.integers(0, 2, size=9)
    cfg = AttackConfig(norm=norm, budget=budget, steps=12)
    batched = correct_set(model, xs, targets, cfg)
    for b, a in zip(batched, reference_rows(model, xs, targets, cfg, range(9))):
        assert_same(b, a)
    # the fixture exercises both outcomes and a best iterate past the start
    assert any(r.success for r in batched) and not all(r.success for r in batched)
    assert any(r.best_iteration > 0 for r in batched)


def gated_overflow_model():
    """Trained model plus a hidden unit that fires only when sum(x) > 10.

    Its outgoing weights are near 1e308, so on an all-ones row the logits
    overflow and the gradient is NaN; on other rows the unit is off and
    its weights never meet a finite nonzero value.
    """
    model = small_trained_model(seed=33)
    model.weights[0][:, 0] = 10.0
    model.biases[0][0] = -100.0
    model.weights[1][0] = [1e307, -1e307]
    return model


def test_non_finite_row_leaves_batch_alone():
    model = gated_overflow_model()
    rng = np.random.default_rng(34)
    xs = np.clip(rng.normal(0.5, 0.2, size=(6, 12)), 0.0, 1.0)
    xs[2] = 1.0
    targets = np.array([1, 0, 1, 1, 0, 1])
    cfg = AttackConfig(norm=LINF, budget=0.1, steps=8)
    with np.errstate(all="ignore"):
        batched = correct_set(model, xs, targets, cfg)
        alone = reference_rows(model, xs, targets, cfg, (0, 1, 3, 4, 5))
        (solo,) = correct_set(model, xs[2:3], targets[2:3], cfg)
    assert "non-finite" in solo.error
    bad = batched[2]
    assert "non-finite" in bad.error
    assert np.array_equal(bad.corrected, xs[2])
    assert np.isnan(bad.loss) and not bad.success and bad.best_iteration == 0
    for b, a in zip(batched[:2] + batched[3:], alone):
        assert_same(b, a)


@pytest.mark.parametrize("kind", ["nan", "above_one", "target"])
def test_nan_pixel_rejected(kind):
    # the rejected row stays in the batch; its neighbours still get their
    # results alone
    model = small_trained_model(seed=35)
    cfg = AttackConfig(budget=0.1, steps=3, step_size=0.01)
    x = np.full(12, 0.5)
    x[3] = {"nan": np.nan, "above_one": 1.5, "target": 0.5}[kind]
    xs = np.stack([np.full(12, 0.3), x, np.full(12, 0.6)])
    targets = np.array([1, 2 if kind == "target" else 1, 0])
    results = correct_set(model, xs, targets, cfg)
    bad = results[1]
    if kind == "target":
        assert bad.error == "target 2 outside [0, 2)"
        assert np.array_equal(bad.corrected, x)
    else:
        assert bad.error == "instance values must lie in [0, 1]"
        assert np.array_equal(bad.corrected, np.clip(x, 0.0, 1.0), equal_nan=True)
    assert not bad.success and np.isnan(bad.loss) and bad.best_iteration == 0
    for b, a in zip(results[::2], reference_rows(model, xs, targets, cfg, (0, 2))):
        assert_same(b, a)


@pytest.mark.parametrize("norm", [LINF, L2])
@pytest.mark.parametrize("value", [np.inf, -np.inf, 1e300, np.nan])
def test_rejected_pixels_stay_out_of_the_arithmetic(value, norm):
    # a run's float32 model; 1e300 also overflows the conversion to float32
    model = Model.init(ModelSpec(16, (8,), 3), seed=[39], dtype=np.float32)
    xs = np.random.default_rng(40).uniform(0.0, 1.0, (4, 16))
    given = xs.copy()
    given[1, 5] = value
    targets = np.array([0, 1, 2, 0])
    cfg = AttackConfig(norm=norm, budget=0.1, steps=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = correct_set(model, given, targets, cfg)
    bad = results[1]
    assert bad.error == "instance values must lie in [0, 1]"
    with np.errstate(over="ignore"):
        clamped = np.clip(given[1].astype(np.float32), 0.0, 1.0)
    assert np.array_equal(bad.corrected, clamped, equal_nan=True)
    assert not bad.success and np.isnan(bad.loss) and bad.best_iteration == 0
    # the other rows get what they get beside a valid row
    clean = correct_set(model, xs, targets, cfg)
    for j in (0, 2, 3):
        a, b = results[j], clean[j]
        assert np.array_equal(a.corrected, b.corrected)
        assert (a.loss, a.success, a.best_iteration, a.error) == (
            b.loss, b.success, b.best_iteration, None)


def test_a_diverging_gradient_still_warns():
    model = gated_overflow_model()
    xs = np.stack([np.full(12, 0.5), np.ones(12)])
    with pytest.warns(RuntimeWarning):
        results = correct_set(model, xs, np.array([1, 1]), AttackConfig(steps=2))
    assert results[0].error is None and "non-finite" in results[1].error


@pytest.mark.parametrize("shape", [(0, 5), (1, 7), (63, 256), (64, 256), (65, 256),
                                   (200, 3), (500, 256)])
def test_row_norms_match_linalg_norm_bitwise(shape):
    # the row blocks keep numpy's own per-row reduction, in either dtype
    a = np.random.default_rng(38).normal(size=shape)
    for rows in (a, a.astype(np.float32)):
        norms = _row_norms(rows)
        assert norms.dtype == rows.dtype
        assert np.array_equal(norms, np.linalg.norm(rows, axis=1))


def test_working_set_stays_within_five_inputs():
    # delta, best iterate, perturbed-input buffer and gradient are four
    # (m, d) arrays in the model's dtype; the hidden activations and masks
    # add well under one, and the L2 norms square one block of rows at a
    # time. A run's float32 model and rows keep the bound in float32 bytes.
    m, d = 500, 256
    rows = np.random.default_rng(37).uniform(0.0, 1.0, (m, d))
    targets = np.arange(m) % 4
    for dtype in (np.float64, np.float32):
        model = Model.init(ModelSpec(d, (64,), 4), seed=[36], dtype=dtype)
        xs = rows.astype(dtype)
        for norm in (LINF, L2):
            tracemalloc.start()
            try:
                results = correct_set(model, xs, targets, AttackConfig(norm=norm, steps=40))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(results) == m and all(r.error is None for r in results)
            assert peak <= 5 * xs.nbytes, (dtype, norm)
