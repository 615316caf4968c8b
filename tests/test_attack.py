"""Targeted correction: budgets, best-iterate contract, gradient fidelity."""

import numpy as np
import pytest

from inscorr.attack import L2, LINF, AttackConfig, _losses_and_grads, correct_set
from inscorr.errors import ContractError
from inscorr.nn import Adam, Model, ModelSpec

from helpers import fd_gradient, max_rel_error


def small_trained_model(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = np.concatenate([
        rng.normal(0.3, 0.05, size=(40, 12)),
        rng.normal(0.7, 0.05, size=(40, 12)),
    ])
    x = np.clip(x, 0.0, 1.0)
    y = np.array([0] * 40 + [1] * 40)
    model = Model.init(ModelSpec(12, (16,), 2), seed=seed + 1, dtype=dtype)
    opt = Adam(lr=0.01)
    for _ in range(120):
        model.zero_grads()
        model.loss_and_grads(x, y)
        opt.step(model)
    return model


def correct_row(model, x, target, cfg):
    """x attacked as a one-row batch."""
    (result,) = correct_set(model, x[None, :], [target], cfg)
    return result


def test_step_size_derives_from_budget_and_steps():
    cfg = AttackConfig(budget=0.4, steps=10)
    assert cfg.step_size == pytest.approx(2.5 * 0.4 / 10)


def test_zero_steps_is_identity():
    model = small_trained_model()
    x = np.full(12, 0.3)
    res = correct_row(model, x, 1, AttackConfig(steps=0))
    assert np.array_equal(res.corrected, x)
    assert res.best_iteration == 0
    assert res.loss == pytest.approx(float(model.per_example_losses(x[None, :], [1])[0]))


def test_single_linear_step_matches_hand_gradient():
    # one linear layer, logits = (0, w.x): targeted loss toward class 1 is
    # log(1 + exp(-w.x)) with input gradient -w * sigmoid(-w.x), so one
    # Linf step moves every coordinate by +step_size
    spec = ModelSpec(3, (), 2)
    model = Model.init(spec, seed=0)
    w = np.array([0.5, 1.0, 2.0])
    model.weights[0][:] = np.stack([np.zeros(3), w], axis=1)
    model.biases[0][:] = 0.0
    x = np.full(3, 0.5)
    cfg = AttackConfig(norm=LINF, budget=0.2, steps=1, step_size=0.05)
    res = correct_row(model, x, 1, cfg)
    assert np.allclose(res.corrected, x + 0.05)
    assert res.best_iteration == 1


def test_attack_gradient_matches_finite_differences():
    model = small_trained_model(seed=3)
    x = np.clip(np.random.default_rng(4).normal(0.5, 0.1, size=12), 0.0, 1.0)

    _, grad = _losses_and_grads(model, x[None, :], np.array([1]))

    def f(v):
        return float(model.per_example_losses(v[None, :], [1])[0])

    assert max_rel_error(grad[0], fd_gradient(f, x)) < 1e-3


def test_linf_budget_and_clamp_exact():
    model = small_trained_model(seed=5)
    rng = np.random.default_rng(6)
    cfg = AttackConfig(norm=LINF, budget=0.1, steps=15)
    for _ in range(20):
        x = np.clip(rng.normal(0.5, 0.3, size=12), 0.0, 1.0)
        target = int(rng.integers(0, 2))
        res = correct_row(model, x, target, cfg)
        delta = res.corrected - x
        assert np.max(np.abs(delta)) <= cfg.budget + 1e-9
        assert res.corrected.min() >= 0.0 and res.corrected.max() <= 1.0


def test_l2_budget_and_clamp_exact():
    model = small_trained_model(seed=7)
    rng = np.random.default_rng(8)
    cfg = AttackConfig(norm=L2, budget=0.25, steps=15)
    for _ in range(20):
        x = np.clip(rng.normal(0.5, 0.3, size=12), 0.0, 1.0)
        target = int(rng.integers(0, 2))
        res = correct_row(model, x, target, cfg)
        assert np.linalg.norm(res.corrected - x) <= cfg.budget + 1e-9
        assert res.corrected.min() >= 0.0 and res.corrected.max() <= 1.0


@pytest.mark.parametrize("steps", [0, 15])
@pytest.mark.parametrize("random_start", [False, True])
@pytest.mark.parametrize("norm,budget", [(LINF, 8.0 / 255.0), (L2, 0.25)])
def test_float32_rows_are_attacked_in_float32_within_budget(norm, budget, random_start, steps):
    """A run's float32 model attacks its float32 rows in float32. x + delta
    rounds by up to half an ulp, yet every result is a float32 row inside
    the budget, measured in float64 against the row at the usual 1e-9
    slack, and inside [0, 1]; a rejected row comes back float32 and
    unperturbed, and the model is left alone."""
    model = small_trained_model(seed=5, dtype=np.float32)
    before = model.flat.copy()
    rng = np.random.default_rng(6)
    xs = np.concatenate([
        np.clip(rng.normal(0.5, 0.3, size=(40, 12)), 0.0, 1.0),
        rng.uniform(0.0, 0.02, size=(20, 12)),  # rows of mostly small pixels
    ]).astype(np.float32)
    xs[4, 3] = 1.5
    targets = rng.integers(0, 2, size=len(xs))
    cfg = AttackConfig(norm=norm, budget=budget, steps=steps, random_start=random_start)
    results = correct_set(model, xs, targets, cfg, seed=9)
    assert results[4].error == "instance values must lie in [0, 1]"
    assert np.array_equal(results[4].corrected, np.clip(xs[4], 0.0, 1.0))
    sizes = []
    for x, res in zip(xs.astype(np.float64), results):
        assert res.corrected.dtype == np.float32
        if res.error is None:
            delta = res.corrected.astype(np.float64) - x
            sizes.append(np.max(np.abs(delta)) if norm == LINF else np.linalg.norm(delta))
            assert res.corrected.min() >= 0.0 and res.corrected.max() <= 1.0
    assert max(sizes) <= budget + 1e-9
    if steps:  # the steps reach the edge of the ball, where rounding could cross it
        assert max(sizes) > budget - 1e-6
    assert model.flat.dtype == np.float32 and np.array_equal(model.flat, before)


def test_l2_first_step_has_step_size_norm():
    model = small_trained_model(seed=9)
    x = np.full(12, 0.5)
    cfg = AttackConfig(norm=L2, budget=0.5, steps=1, step_size=0.03)
    res = correct_row(model, x, 1, cfg)
    if res.best_iteration == 1:
        assert np.linalg.norm(res.corrected - x) == pytest.approx(0.03, rel=1e-9)


def test_best_iterate_never_worse_than_start():
    model = small_trained_model(seed=10)
    rng = np.random.default_rng(11)
    cfg = AttackConfig(norm=LINF, budget=0.05, steps=12)
    for _ in range(10):
        x = np.clip(rng.normal(0.5, 0.2, size=12), 0.0, 1.0)
        target = int(rng.integers(0, 2))
        initial = float(model.per_example_losses(x[None, :], [target])[0])
        res = correct_row(model, x, target, cfg)
        assert res.loss <= initial + 1e-12


def test_larger_budget_never_hurts_on_fixture():
    model = small_trained_model(seed=12)
    x = np.full(12, 0.31)
    small = correct_row(model, x, 1, AttackConfig(norm=LINF, budget=0.05, steps=20))
    large = correct_row(model, x, 1, AttackConfig(norm=LINF, budget=0.10, steps=20))
    assert large.loss <= small.loss + 1e-12


def test_attack_flips_prediction_with_room():
    model = small_trained_model(seed=13)
    # class-0-looking instances pushed toward class 1 with a wide budget
    rng = np.random.default_rng(14)
    xs = np.clip(rng.normal(0.3, 0.05, size=(20, 12)), 0.0, 1.0)
    cfg = AttackConfig(norm=LINF, budget=0.5, steps=40)
    results = correct_set(model, xs, np.ones(20, dtype=int), cfg)
    assert np.mean([r.success for r in results]) >= 0.9


def test_correct_set_validation():
    model = small_trained_model(seed=15)
    res = correct_row(model, np.full(12, 0.5), 5, AttackConfig())
    assert res.error == "target 5 outside [0, 2)"
    assert np.array_equal(res.corrected, np.full(12, 0.5))
    assert not res.success and np.isnan(res.loss) and res.best_iteration == 0
    res = correct_row(model, np.full(12, 1.5), 1, AttackConfig())
    assert res.error == "instance values must lie in [0, 1]"
    assert np.array_equal(res.corrected, np.full(12, 1.0)) and not res.success
    # the whole call is refused when the batch itself is malformed
    for instances, targets, match in (
        (np.full(12, 0.5), [1], "2-D"),
        (np.full((2, 3, 12), 0.5), [1, 1], "2-D"),
        (np.full((2, 12), 0.5), [1], "2 instances vs 1 targets"),
    ):
        with pytest.raises(ContractError, match=match):
            correct_set(model, instances, targets, AttackConfig())


def test_non_finite_gradient_reports_error():
    model = small_trained_model(seed=16)
    model.weights[0][0, 0] = np.nan
    res = correct_row(model, np.full(12, 0.5), 1, AttackConfig(steps=2))
    assert "non-finite" in res.error
    assert np.array_equal(res.corrected, np.full(12, 0.5))
    assert not res.success and np.isnan(res.loss) and res.best_iteration == 0


def test_correct_set_isolates_failures_and_keeps_order():
    model = small_trained_model(seed=17)
    xs = np.stack([np.full(12, 0.3), np.full(12, 0.4), np.full(12, 0.6)])
    targets = np.array([1, 99, 0])  # middle target invalid
    results = correct_set(model, xs, targets, AttackConfig(steps=3))
    assert len(results) == 3
    assert results[1].error is not None and not results[1].success
    assert np.array_equal(results[1].corrected, xs[1])
    assert results[0].error is None and results[2].error is None


def test_correct_set_empty_input():
    model = small_trained_model(seed=18)
    assert correct_set(model, np.zeros((0, 12)), np.zeros(0, dtype=int), AttackConfig()) == []


def test_random_start_deterministic_per_seed():
    model = small_trained_model(seed=19)
    xs = np.clip(np.random.default_rng(20).normal(0.5, 0.1, size=(3, 12)), 0, 1)
    cfg = AttackConfig(random_start=True, steps=5)
    with pytest.raises(ContractError, match="seed"):
        correct_set(model, xs, np.ones(3, dtype=int), cfg)
    a = correct_set(model, xs, np.ones(3, dtype=int), cfg, seed=21)
    b = correct_set(model, xs, np.ones(3, dtype=int), cfg, seed=21)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.corrected, rb.corrected)
    for j, r in enumerate(a):
        assert np.max(np.abs(r.corrected - xs[j])) <= cfg.budget + 1e-9


def test_parameters_read_only_through_attack():
    model = small_trained_model(seed=22)
    model.zero_grads()
    before = model.flat.copy()
    correct_set(model, np.full((3, 12), 0.5), [1, 0, 1], AttackConfig(steps=10))
    assert np.array_equal(model.flat, before)
    assert model.grad is None
