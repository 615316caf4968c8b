import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inscorr.acceptance import _clean_partition_only
from inscorr.attack import AttackConfig
from inscorr.data import (
    NO_LABEL,
    Dataset,
    Provenance,
    generate_ood_source,
    generate_synthetic,
    split_validation,
)
from inscorr.errors import ConfigError, ContractError, NumericError
from inscorr.nn import Adam, Model, ModelSpec
from inscorr.noise import ALL_ROUTES, inject_open_set, pool_sources
from inscorr.pipeline import (
    AGREEMENT,
    INSCORR,
    MIX,
    SELECTION_ONLY,
    SMALL_LOSS_GLOBAL,
    EpochMetrics,
    ExperimentConfig,
    _mixed_epoch,
    accuracy_on_given,
    evaluate,
    last_ten_summary,
    mixed_loss,
    partition_clean_mislabeled,
    prepare_data,
    run_experiment,
)


def tiny_config(**kw):
    base = dict(
        method=INSCORR,
        hidden=(8,),
        n_train=120,
        n_test=60,
        num_classes=4,
        height=8,
        width=8,
        noise_route="gaussian",
        noise_rate=0.3,
        attack=AttackConfig(budget=0.1, steps=3),
        total_epochs=6,
        warmup_epochs=3,
        batch_size=32,
        seed_data=11,
        seed_noise=12,
        seed_init=13,
        seed_epochs=14,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_tau_defaults_to_noise_rate(self):
        cfg = tiny_config(noise_rate=0.25)
        assert cfg.tau == 0.25

    def test_explicit_tau_kept(self):
        cfg = tiny_config(noise_rate=0.25, tau=0.5)
        assert cfg.tau == 0.5

    def test_pool_size_defaults_to_n_train(self):
        assert tiny_config().pool_size == 120

    def test_warmup_defaults_to_half(self):
        cfg = tiny_config(total_epochs=8, warmup_epochs=None)
        assert cfg.warmup_epochs == 4


class TestPrepareData:
    def test_shapes_and_split(self):
        cfg = tiny_config()
        train, val, test = prepare_data(cfg)
        assert len(train) + len(val) == cfg.n_train
        assert len(val) == 12
        assert len(test) == cfg.n_test
        assert train.dim == 64

    def test_noise_lands_on_both_sides_of_split(self):
        # injection happens before the split, so corrupted instances can
        # end up in validation
        cfg = tiny_config(n_train=400, noise_rate=0.5)
        train, val, _ = prepare_data(cfg)
        touched = int((train.provenance != 0).sum() + (val.provenance != 0).sum())
        assert touched == 200
        assert (val.provenance != 0).any()

    def test_open_set_route_replaces_instances(self):
        cfg = tiny_config(noise_route="open_set", noise_rate=0.4)
        train, val, _ = prepare_data(cfg)
        replaced = int((train.true_labels == NO_LABEL).sum()
                       + (val.true_labels == NO_LABEL).sum())
        assert replaced == 48

    def test_deterministic(self):
        a = prepare_data(tiny_config())
        b = prepare_data(tiny_config())
        for da, db in zip(a, b):
            assert np.array_equal(da.X, db.X)
            assert np.array_equal(da.given_labels, db.given_labels)

    def test_test_set_is_clean(self):
        _, _, test = prepare_data(tiny_config(noise_rate=0.8))
        assert np.array_equal(test.given_labels, test.true_labels)

    def test_open_set_pool_follows_the_class_count(self):
        # the pool must avoid the angles of the data's own classes
        cfg = tiny_config(noise_route="open_set", num_classes=3, n_train=150,
                          val_fraction=0.0, noise_rate=0.4)
        train, _, _ = prepare_data(cfg)
        replaced = {row.tobytes() for row in train.X[train.provenance == Provenance.OPEN_SET]}
        assert len(replaced) == 60

        def pool_rows(num_classes):
            pool = generate_ood_source(150, 8, 8, seed=[cfg.seed_data, 2],
                                       num_classes=num_classes)
            return {row.tobytes() for row in pool.X}

        assert replaced <= pool_rows(3)
        # the two pools share their class-0 rows, which draw the same bits
        assert not replaced <= pool_rows(4)

    @pytest.mark.parametrize("pool_size", [None, 48, 300])
    def test_open_set_matches_rendering_the_whole_pool(self, pool_size):
        # 48 is exactly the round(0.4 * 120) rows replaced
        cfg = tiny_config(noise_route="open_set", noise_rate=0.4, pool_size=pool_size)
        full = generate_synthetic(cfg.n_train, 4, 8, 8, seed=[cfg.seed_data, 0])
        pool = generate_ood_source(cfg.pool_size, 8, 8, seed=[cfg.seed_data, 2])
        sources = pool_sources(cfg.pool_size, cfg.n_train, cfg.noise_rate, cfg.seed_noise)
        noisy = inject_open_set(full, pool.subset(sources), cfg.noise_rate, cfg.seed_noise)
        train, val = split_validation(noisy, cfg.val_fraction, seed=[cfg.seed_data, 3])
        test = generate_synthetic(cfg.n_test, 4, 8, 8, seed=[cfg.seed_data, 1])
        for got, want in zip(prepare_data(cfg), (train, val, test)):
            for name in ("X", "given_labels", "true_labels", "provenance"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_open_set_names_the_rate_when_a_class_runs_short(self):
        cfg = tiny_config(noise_route="open_set", noise_rate=1.0)
        with pytest.raises(ConfigError, match=r"noise\.rate=1\.0 .*class \d+ has"):
            prepare_data(cfg)

    @pytest.mark.parametrize("route", ALL_ROUTES)
    def test_peak_memory_stays_near_the_returned_sets(self, route):
        # the clean set and the drawn pool rows, or one block of corrupted
        # rows, fit in 4 MiB; the whole pool or a stack of every hit row
        # beside them does not
        cfg = ExperimentConfig(n_train=2000, n_test=1000, height=16, width=16,
                               noise_rate=0.4, noise_route=route)
        tracemalloc.start()
        try:
            data = prepare_data(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for ds in data
                       for a in (ds.X, ds.given_labels, ds.true_labels, ds.provenance))
        assert sum(len(ds) for ds in data) == 3000
        over = (peak - returned) / 2**20
        assert over <= 4.0, f"peak {over:.2f} MiB above the returned sets"


class TestEvaluate:
    def test_accuracy_oracle(self):
        ds = generate_synthetic(50, 4, 8, 8, seed=3)
        model = Model.init(tiny_config().model_spec(), seed=0)
        pred = model.predict(ds.X)
        expected = float(np.mean(pred == ds.true_labels))
        assert evaluate(model, ds) == expected

    def test_rejects_unlabeled_instances(self):
        ds = generate_synthetic(20, 4, 8, 8, seed=3)
        ds.true_labels[4] = NO_LABEL
        model = Model.init(tiny_config().model_spec(), seed=0)
        with pytest.raises(ContractError, match="true label"):
            evaluate(model, ds)

    def test_given_label_accuracy_uses_given(self):
        ds = generate_synthetic(50, 4, 8, 8, seed=3)
        ds.given_labels[:] = 2
        model = Model.init(tiny_config().model_spec(), seed=0)
        pred = model.predict(ds.X)
        assert accuracy_on_given(model, ds) == float(np.mean(pred == 2))


def duplicated_dataset(n, seed=0):
    # identical rows force identical losses, exposing tie handling
    base = generate_synthetic(1, 4, 8, 8, seed=seed)
    X = np.repeat(base.X, n, axis=0)
    labels = np.repeat(base.given_labels, n)
    return Dataset(X, labels.copy(), labels.copy(),
                   np.zeros(n, dtype=np.uint8), 4, (8, 8))


class TestPartition:
    def test_agreement_matches_prediction_oracle(self):
        cfg = tiny_config()
        train, _, _ = prepare_data(cfg)
        model = Model.init(cfg.model_spec(), seed=5)
        clean, noisy = partition_clean_mislabeled(model, train, AGREEMENT)
        pred = model.predict(train.X)
        assert np.array_equal(clean, np.flatnonzero(pred == train.given_labels))
        assert np.array_equal(noisy, np.flatnonzero(pred != train.given_labels))

    def test_partition_covers_everything_once(self):
        cfg = tiny_config()
        train, _, _ = prepare_data(cfg)
        model = Model.init(cfg.model_spec(), seed=5)
        for rule in (AGREEMENT, SMALL_LOSS_GLOBAL):
            clean, noisy = partition_clean_mislabeled(model, train, rule, tau=0.3)
            both = np.sort(np.concatenate([clean, noisy]))
            assert np.array_equal(both, np.arange(len(train)))

    def test_small_loss_count_rounds_half_up(self):
        model = Model.init(tiny_config().model_spec(), seed=5)
        ds = duplicated_dataset(10)
        clean, _ = partition_clean_mislabeled(model, ds, SMALL_LOSS_GLOBAL, tau=0.4)
        assert len(clean) == 6
        clean, _ = partition_clean_mislabeled(model, ds, SMALL_LOSS_GLOBAL, tau=0.45)
        assert len(clean) == 6

    def test_small_loss_ties_keep_lower_indices(self):
        model = Model.init(tiny_config().model_spec(), seed=5)
        ds = duplicated_dataset(10)
        clean, noisy = partition_clean_mislabeled(model, ds, SMALL_LOSS_GLOBAL, tau=0.4)
        assert np.array_equal(clean, np.arange(6))
        assert np.array_equal(noisy, np.arange(6, 10))

    def test_small_loss_needs_tau(self):
        model = Model.init(tiny_config().model_spec(), seed=5)
        ds = duplicated_dataset(10)
        with pytest.raises(ContractError, match="tau"):
            partition_clean_mislabeled(model, ds, SMALL_LOSS_GLOBAL)


class TestMixedLoss:
    def setup_method(self):
        cfg = tiny_config()
        self.model = Model.init(cfg.model_spec(), seed=7)
        rng = np.random.default_rng(21)
        self.cx = rng.uniform(0, 1, (12, 64))
        self.cy = rng.integers(0, 4, 12).astype(np.int32)
        self.rx = rng.uniform(0, 1, (5, 64))
        self.ry = rng.integers(0, 4, 5).astype(np.int32)

    def term(self, x, y):
        return float(self.model.per_example_losses(x, y).mean())

    def test_affine_in_lambda(self):
        lc = self.term(self.cx, self.cy)
        lr = self.term(self.rx, self.ry)
        for lam in (0.25, 0.5, 0.75):
            got = mixed_loss(self.model, self.cx, self.cy, self.rx, self.ry, lam)
            assert abs(got - (lam * (lc - lr) + lr)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_affine_property(self, lam):
        lc = self.term(self.cx, self.cy)
        lr = self.term(self.rx, self.ry)
        got = mixed_loss(self.model, self.cx, self.cy, self.rx, self.ry, lam)
        assert abs(got - (lam * (lc - lr) + lr)) <= 1e-12

    def test_empty_clean_keeps_coefficient(self):
        lr = self.term(self.rx, self.ry)
        got = mixed_loss(self.model, None, None, self.rx, self.ry, 0.3)
        assert got == 0.7 * lr

    def test_empty_corrected_keeps_coefficient(self):
        lc = self.term(self.cx, self.cy)
        got = mixed_loss(self.model, self.cx, self.cy, None, None, 0.3)
        assert got == 0.3 * lc

    def test_both_empty_rejected(self):
        with pytest.raises(ContractError, match="non-empty"):
            mixed_loss(self.model, None, None, None, None, 0.5)

    def test_weight_zero_term_leaves_no_gradient_trace(self):
        # lam=1 must produce the exact gradients of clean-only training
        self.model.zero_grads()
        mixed_loss(self.model, self.cx, self.cy, self.rx, self.ry, 1.0)
        mixed = self.model.grad

        self.model.zero_grads()
        self.model.loss_and_grads(self.cx, self.cy, 1.0)
        assert np.array_equal(mixed, self.model.grad)

    def test_zero_weight_on_only_batch_gives_constant(self):
        self.model.zero_grads()
        loss = mixed_loss(self.model, None, None, self.rx, self.ry, 1.0)
        assert loss == 0.0
        assert self.model.grad is None


@pytest.mark.parametrize("lam,n_clean,n_corrected", [(1.0, 0, 8), (0.0, 20, None)])
def test_mixed_epoch_without_an_active_term_takes_no_step(lam, n_clean, n_corrected):
    # lambda 1 with no clean rows, or lambda 0 with no corrected set: no
    # step has a term to train on, so the model and Adam stay bit for bit
    train = generate_synthetic(20, 4, 8, 8, seed=3)
    model, opt = Model.init(tiny_config().model_spec(), seed=7), Adam(0.01)
    model.loss_and_grads(train.X, train.given_labels)
    opt.step(model)
    before = [a.tobytes() for a in (model.flat, opt._m, opt._v)]
    corr_x = corr_y = None
    if n_corrected is not None:
        corr_x, corr_y = train.X[:n_corrected], train.given_labels[:n_corrected]
    loss = _mixed_epoch(model, opt, train, np.arange(n_clean), corr_x, corr_y, lam,
                        8, len(train), np.random.default_rng(0))
    assert loss == 0.0 and model.grad is None and opt.step_count == 1
    assert [a.tobytes() for a in (model.flat, opt._m, opt._v)] == before


class TestLastTen:
    def fake_metrics(self, accs):
        return [EpochMetrics(i, 0.0, 0.0, a) for i, a in enumerate(accs)]

    def test_mean_and_population_std(self):
        accs = [0.1] * 5 + [0.5, 0.6, 0.5, 0.6, 0.5, 0.6, 0.5, 0.6, 0.5, 0.6]
        mean, std = last_ten_summary(self.fake_metrics(accs))
        assert abs(mean - 0.55) <= 1e-15
        assert abs(std - 0.05) <= 1e-15

    def test_exactly_ten_is_enough(self):
        mean, std = last_ten_summary(self.fake_metrics([0.25] * 10))
        assert mean == 0.25
        assert std == 0.0

    def test_short_history_rejected(self):
        with pytest.raises(ContractError, match="10"):
            last_ten_summary(self.fake_metrics([0.5] * 9))


class TestRunShapes:
    def test_zero_epochs_leaves_init_untouched(self):
        cfg = tiny_config(total_epochs=0, warmup_epochs=0)
        res = run_experiment(cfg)
        assert res.metrics == []
        fresh = Model.init(cfg.model_spec(), seed=[cfg.seed_init])
        assert np.array_equal(res.model.flat, fresh.flat)

    def test_metrics_length_and_phases(self):
        cfg = tiny_config()
        metrics = run_experiment(cfg).metrics
        assert [m.epoch for m in metrics] == list(range(6))
        for m in metrics[:3]:
            assert m.selection_precision is not None
            assert m.attack_success is None
        for m in metrics[3:]:
            assert m.selection_precision is None
        assert metrics[3].attack_success is not None
        assert metrics[4].attack_success is None

    def test_mix_reports_no_attack(self):
        metrics = run_experiment(tiny_config(method=MIX)).metrics
        assert all(m.attack_success is None for m in metrics)

    def test_refresh_reattacks_every_epoch(self):
        cfg = tiny_config(refresh_correction=True)
        metrics = run_experiment(cfg).metrics
        for m in metrics[3:]:
            assert m.attack_success is not None

    def test_selection_only_never_partitions(self):
        cfg = tiny_config(method=SELECTION_ONLY)
        metrics = run_experiment(cfg).metrics
        assert all(m.selection_precision is not None for m in metrics)
        assert all(m.attack_success is None for m in metrics)

    def test_on_epoch_callback_sees_every_epoch(self):
        seen = []
        run_experiment(tiny_config(total_epochs=4, warmup_epochs=2),
                       on_epoch=lambda t, m: seen.append(t))
        assert seen == [0, 1, 2, 3]

    def test_run_is_deterministic(self):
        cfg = tiny_config()
        res_a = run_experiment(cfg)
        res_b = run_experiment(cfg)
        assert np.array_equal(res_a.model.flat, res_b.model.flat)
        assert res_a.metrics == res_b.metrics


class TestReductions:
    def test_warmup_equals_total_reduces_to_selection_only(self):
        data = prepare_data(tiny_config())
        full = tiny_config(method=INSCORR, warmup_epochs=6, total_epochs=6)
        base = tiny_config(method=SELECTION_ONLY, warmup_epochs=6, total_epochs=6)
        res_a = run_experiment(full, data=data)
        res_b = run_experiment(base, data=data)
        assert np.array_equal(res_a.model.flat, res_b.model.flat)
        assert res_a.metrics == res_b.metrics

    def test_lambda_one_collapses_all_methods(self):
        data = prepare_data(tiny_config())
        ins = run_experiment(tiny_config(method=INSCORR, lam=1.0), data=data)
        mix = run_experiment(tiny_config(method=MIX, lam=1.0), data=data)
        model, accuracies = _clean_partition_only(tiny_config(lam=1.0), data=data)
        assert np.array_equal(ins.model.flat, mix.model.flat)
        assert np.array_equal(ins.model.flat, model.flat)
        assert [m.test_accuracy for m in ins.metrics] == accuracies

    def test_mix_and_inscorr_diverge_when_lambda_below_one(self):
        data = prepare_data(tiny_config())
        model_a = run_experiment(tiny_config(method=INSCORR, lam=0.5), data=data).model
        model_b = run_experiment(tiny_config(method=MIX, lam=0.5), data=data).model
        assert not np.array_equal(model_a.flat, model_b.flat)

    @pytest.mark.parametrize("route", ["gaussian", "fog", "open_set"])
    def test_zero_step_correction_trains_as_mix(self, route):
        # a zero-step attack without a random start hands the discarded
        # rows back unchanged, so InsCorr mixes exactly what Mix does
        attack = AttackConfig(budget=0.1, steps=0, random_start=False)
        data = prepare_data(tiny_config(noise_route=route))
        trajectories = []
        for method in (INSCORR, MIX):
            digests = []
            run_experiment(
                tiny_config(method=method, noise_route=route, attack=attack), data=data,
                on_epoch=lambda t, m: digests.append(hashlib.sha256(m.flat.tobytes()).digest()))
            trajectories.append(digests)
        assert len(trajectories[0]) == 6
        assert trajectories[0] == trajectories[1]



def test_evaluation_rejects_non_finite_logits():
    model = Model.init(ModelSpec(4, (3,), 2), seed=0)
    model.weights[0][0, 0] = np.nan
    ds = generate_synthetic(6, 2, 2, 2, seed=1)
    with pytest.raises(NumericError, match="non-finite"):
        evaluate(model, ds)
    with pytest.raises(NumericError, match="non-finite"):
        accuracy_on_given(model, ds)
