"""The sweep engine: shared data per key, failures, order and workers."""

import dataclasses
import os
import time

import pytest

from inscorr import sweep as sweep_module
from inscorr.config import (
    apply_overrides,
    deep_merge,
    load_config,
    resolve_config,
    to_experiment_config,
)
from inscorr.noise import NoiseSpec
from inscorr.pipeline import MIX, SELECTION_ONLY, ExperimentConfig, data_key, run_experiment
from inscorr.sweep import sweep

BASE = apply_overrides(load_config(), [
    "model.hidden=[8]", "data.n_train=120", "data.n_test=60", "data.height=8",
    "data.width=8", "training.total_epochs=4", "training.warmup_epochs=2",
    "training.batch_size=32", "attack.steps=3",
])


def train_size(resolved, data):
    return float(len(data[0]))


@pytest.fixture
def prepare_calls(monkeypatch):
    calls = []
    real = sweep_module.prepare_data

    def counting(cfg):
        calls.append(data_key(cfg))
        return real(cfg)

    monkeypatch.setattr(sweep_module, "prepare_data", counting)
    return calls


def test_data_key_ignores_what_prepare_data_does_not_read():
    cfg = ExperimentConfig(noise_route="fog")
    for change in (dict(method=MIX), dict(lam=0.3), dict(seed_init=9),
                   dict(seed_epochs=9), dict(hidden=(8,)), dict(lr=0.5),
                   dict(total_epochs=300), dict(pool_size=5)):
        assert data_key(dataclasses.replace(cfg, **change)) == data_key(cfg), change


def test_data_key_changes_with_every_field_prepare_data_reads():
    cfg = ExperimentConfig()
    for change in (dict(n_train=100), dict(n_test=100), dict(num_classes=3),
                   dict(height=8), dict(width=8), dict(val_fraction=0.2),
                   dict(pool_size=5), dict(noise_route="fog"), dict(noise_rate=0.2),
                   dict(noise_spec=NoiseSpec(gaussian_sigma=0.1)),
                   dict(seed_data=1), dict(seed_noise=1)):
        assert data_key(dataclasses.replace(cfg, **change)) != data_key(cfg), change


def test_jobs_differing_only_in_method_or_lambda_share_data(prepare_calls):
    cells = [{"method": method, "training": {"lambda": lam}}
             for method in (SELECTION_ONLY, MIX, "InsCorr") for lam in (0.3, 0.7)]
    results, failures = sweep(BASE, cells, (0, 1), train_size)
    assert failures == []
    assert len(prepare_calls) == 2
    assert [r.mean for r in results] == [108.0] * 6


def test_jobs_differing_in_a_data_field_do_not_share(prepare_calls):
    cells = [{}, {"noise": {"route": "fog"}}, {"noise": {"rate": 0.2}},
             {"data": {"n_train": 100}}, {"data": {"val_fraction": 0.2}}]
    results, failures = sweep(BASE, cells, (0, 1), train_size)
    assert failures == []
    assert len(prepare_calls) == len(set(prepare_calls)) == 10
    assert [r.mean for r in results] == [108.0, 108.0, 108.0, 90.0, 96.0]


def test_failing_prepare_fails_each_job_of_its_group(monkeypatch):
    real = sweep_module.prepare_data

    def broken_on_fog(cfg):
        if cfg.noise_route == "fog":
            raise RuntimeError("no fog today")
        return real(cfg)

    monkeypatch.setattr(sweep_module, "prepare_data", broken_on_fog)
    cells = [{"noise": {"route": route}, "method": method}
             for route in ("gaussian", "fog") for method in (SELECTION_ONLY, MIX)]
    results, failures = sweep(BASE, cells, (0, 1), train_size)
    assert [r.n_failed for r in results] == [0, 0, 2, 2]
    assert [r.mean for r in results] == [108.0, 108.0, None, None]
    assert failures == [(c, seed, "no fog today") for c in (2, 3) for seed in (0, 1)]


def test_failing_job_leaves_the_rest_of_its_group_running():
    def fails_on_mix(resolved, data):
        if resolved["method"] == MIX:
            raise RuntimeError("mix broke")
        return 0.25

    cells = [{"method": m} for m in (MIX, SELECTION_ONLY, "InsCorr")]
    results, failures = sweep(BASE, cells, (3,), fails_on_mix)
    assert [(r.n_failed, r.mean, r.std) for r in results] == [
        (1, None, None), (0, 0.25, 0.0), (0, 0.25, 0.0)]
    assert failures == [(0, 3, "mix broke")]


def record_pid(resolved, data, out_dir):
    # module level so the process pool can pickle it
    time.sleep(0.3)
    (out_dir / f"{os.getpid()}-{resolved['method']}").touch()
    return 0.5


def test_one_group_grid_is_split_over_the_workers(tmp_path):
    cells = [{"method": m} for m in (SELECTION_ONLY, MIX, "InsCorr")]
    results, failures = sweep(BASE, cells, (0,), record_pid, (tmp_path,), workers=3)
    assert failures == []
    assert [r.mean for r in results] == [0.5] * 3
    pids = {p.name.split("-")[0] for p in tmp_path.iterdir()}
    assert len(pids) == 3


def loss_trace(resolved, data):
    metrics = run_experiment(to_experiment_config(resolved), data=data).metrics
    return sum(m.train_loss for m in metrics)


def test_shared_data_gives_the_results_of_fresh_data():
    # the jobs of a group run one after another on the same arrays, so a
    # run that wrote into its data would change the runs after it
    cells = [{"method": m, "training": {"total_epochs": 6, "warmup_epochs": 3}}
             for m in (MIX, "InsCorr", SELECTION_ONLY)]
    results, failures = sweep(BASE, cells, (5,), loss_trace)
    assert failures == []
    for cell, result in zip(cells, results):
        seeded = deep_merge(BASE, {**cell, "seeds": dict.fromkeys(BASE["seeds"], 5)})
        assert result.mean == loss_trace(resolve_config(seeded), None)
