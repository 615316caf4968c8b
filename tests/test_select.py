"""Schedule closed form, selection oracle equivalence, self-teach epoch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inscorr.data import generate_synthetic, permutation_batches
from inscorr.errors import ContractError, NumericError
from inscorr.nn import Adam, Model, ModelSpec
from inscorr.select import SelectionSchedule, SelfTeachStats, select_small_loss, self_teach_epoch


def sort_oracle(losses, keep_fraction):
    """Brute force: full sort with (loss, index) keys."""
    b = len(losses)
    k = int(np.ceil(keep_fraction * b))
    order = sorted(range(b), key=lambda i: (losses[i], i))
    return sorted(order[:k]), sorted(order[k:])


def test_keep_fraction_closed_form_examples():
    s = SelectionSchedule(0.4, ramp_epochs=10)
    assert s.keep_fraction(0) == 1.0
    assert s.keep_fraction(5) == pytest.approx(0.8)
    assert s.keep_fraction(10) == pytest.approx(0.6)
    assert s.keep_fraction(25) == pytest.approx(0.6)
    assert SelectionSchedule(0.0).keep_fraction(100) == 1.0
    assert SelectionSchedule(0.8).keep_fraction(10) == pytest.approx(0.2)


def test_schedule_validation():
    with pytest.raises(ContractError, match="noise_rate"):
        SelectionSchedule(1.0)
    with pytest.raises(ContractError, match="noise_rate"):
        SelectionSchedule(-0.1)
    with pytest.raises(ContractError, match="ramp_epochs"):
        SelectionSchedule(0.5, ramp_epochs=0)
    with pytest.raises(ContractError, match="epoch"):
        SelectionSchedule(0.5).keep_fraction(-1)


@settings(max_examples=50, deadline=None)
@given(
    rate=st.floats(0.0, 0.99),
    ramp=st.integers(1, 40),
    t=st.integers(0, 100),
)
def test_property_schedule_monotone_and_bounded(rate, ramp, t):
    s = SelectionSchedule(rate, ramp)
    r_t = s.keep_fraction(t)
    assert 1.0 - rate <= r_t <= 1.0
    assert s.keep_fraction(t + 1) <= r_t
    if t >= ramp:
        assert r_t == pytest.approx(1.0 - rate)


def test_select_small_loss_worked_example():
    kept, discarded = select_small_loss(np.array([0.9, 0.1, 0.5, 0.3]), 0.5)
    assert kept.tolist() == [1, 3]
    assert discarded.tolist() == [0, 2]


def test_select_small_loss_keep_all():
    kept, discarded = select_small_loss(np.array([3.0, 1.0, 2.0]), 1.0)
    assert kept.tolist() == [0, 1, 2]
    assert discarded.size == 0


def test_select_small_loss_tie_break_by_index():
    kept, discarded = select_small_loss(np.array([0.2, 0.2, 0.2]), 2.0 / 3.0)
    assert kept.tolist() == [0, 1]
    assert discarded.tolist() == [2]


def test_select_small_loss_nan_names_index():
    with pytest.raises(NumericError, match="loss at index 2 is NaN"):
        select_small_loss(np.array([0.1, 0.2, np.nan, 0.4]), 0.5)


def test_select_small_loss_bad_fraction():
    with pytest.raises(ContractError, match="keep_fraction"):
        select_small_loss(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ContractError, match="keep_fraction"):
        select_small_loss(np.array([1.0, 2.0]), 1.5)


def test_select_matches_sort_oracle_on_random_vectors():
    rng = np.random.default_rng(0)
    for _ in range(300):
        b = int(rng.integers(1, 9))
        losses = np.round(rng.random(b), 1)  # coarse values force ties
        frac = float(rng.uniform(0.01, 1.0))
        kept, discarded = select_small_loss(losses, frac)
        ok, od = sort_oracle(losses, frac)
        assert kept.tolist() == ok
        assert discarded.tolist() == od


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_selection_is_partition_with_threshold(data):
    b = data.draw(st.integers(1, 12))
    losses = np.array(data.draw(
        st.lists(st.floats(0, 10, allow_nan=False), min_size=b, max_size=b)
    ))
    frac = data.draw(st.floats(0.01, 1.0))
    kept, discarded = select_small_loss(losses, frac)
    assert len(kept) == int(np.ceil(frac * b))
    merged = np.sort(np.concatenate([kept, discarded]))
    assert np.array_equal(merged, np.arange(b))
    if kept.size and discarded.size:
        assert losses[kept].max() <= losses[discarded].min()


def test_self_teach_kept_counts_match_schedule():
    train = generate_synthetic(100, 4, seed=1)
    model = Model.init(ModelSpec(256, (16,), 4), seed=2)
    schedule = SelectionSchedule(0.4, ramp_epochs=10)
    stats = self_teach_epoch(
        model, Adam(), train, schedule, epoch=10,
        batch_size=32, rng=np.random.default_rng(3),
    )
    # R(10) = 0.6: batches of 32, 32, 32, 4 keep ceil(0.6*b) each
    assert stats.batches == 4
    assert stats.kept_total == 20 + 20 + 20 + 3
    assert 0.0 <= stats.precision <= 1.0
    assert np.isfinite(stats.mean_loss)


def test_self_teach_zero_rate_equals_plain_training_bitwise():
    train = generate_synthetic(90, 3, seed=4)
    spec = ModelSpec(256, (8,), 3)

    a = Model.init(spec, seed=5)
    opt_a = Adam()
    self_teach_epoch(
        a, opt_a, train, SelectionSchedule(0.0), epoch=0,
        batch_size=32, rng=np.random.default_rng(6),
    )

    b = Model.init(spec, seed=5)
    opt_b = Adam()
    for idx in permutation_batches(np.random.default_rng(6), 90, 32):
        b.zero_grads()
        b.loss_and_grads(train.X[idx], train.given_labels[idx])
        opt_b.step(b)

    assert np.array_equal(a.flat, b.flat)


def test_self_teach_precision_counts_clean_only():
    stats = SelfTeachStats(batches=2, kept_total=10, kept_clean=9)
    assert stats.precision == pytest.approx(0.9)
    assert np.isnan(SelfTeachStats().precision)
