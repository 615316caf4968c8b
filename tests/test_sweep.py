"""The sweep engine: shared data and selection prefixes, failures, order
and workers."""

import dataclasses
import os
import time
from functools import partial

import pytest

from inscorr import pipeline
from inscorr import sweep as sweep_module
from inscorr.artifacts import write_run
from inscorr.cli import _sweep_job
from inscorr.config import (
    apply_overrides,
    config_hash,
    deep_merge,
    load_config,
    resolve_config,
    to_experiment_config,
)
from inscorr.errors import ContractError
from inscorr.noise import NoiseSpec
from inscorr.pipeline import (
    INSCORR,
    MIX,
    SELECTION_ONLY,
    ExperimentConfig,
    SharedPrefix,
    data_key,
    prefix_key,
    run_experiment,
    selection_epochs,
)
from inscorr.sweep import sweep

BASE = apply_overrides(load_config(), [
    "model.hidden=[8]", "data.n_train=120", "data.n_test=60", "data.height=8",
    "data.width=8", "training.total_epochs=4", "training.warmup_epochs=2",
    "training.batch_size=32", "attack.steps=3",
])


def train_size(resolved, data, prefix=None):
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
    def fails_on_mix(resolved, data, prefix=None):
        if resolved["method"] == MIX:
            raise RuntimeError("mix broke")
        return 0.25

    cells = [{"method": m} for m in (MIX, SELECTION_ONLY, "InsCorr")]
    results, failures = sweep(BASE, cells, (3,), fails_on_mix)
    assert [(r.n_failed, r.mean, r.std) for r in results] == [
        (1, None, None), (0, 0.25, 0.0), (0, 0.25, 0.0)]
    assert failures == [(0, 3, "mix broke")]


def record_pid(resolved, data, out_dir, prefix=None):
    # module level so the process pool can pickle it
    time.sleep(0.3)
    (out_dir / f"{os.getpid()}-{resolved['method']}").touch()
    return 0.5


def test_one_group_grid_is_split_over_the_workers(tmp_path):
    cells = [{"method": m} for m in (SELECTION_ONLY, MIX, "InsCorr")]
    results, failures = sweep(BASE, cells, (0,), partial(record_pid, out_dir=tmp_path),
                              workers=3)
    assert failures == []
    assert [r.mean for r in results] == [0.5] * 3
    pids = {p.name.split("-")[0] for p in tmp_path.iterdir()}
    assert len(pids) == 3


def loss_trace(resolved, data, prefix=None):
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


# --- the shared selection prefix ----------------------------------------

RUN_FILES = ("metrics.jsonl", "metrics.csv", "summary.json", "model.ckpt")


def seeded_job(cell, seed):
    return resolve_config(deep_merge(BASE, {**cell, "seeds": dict.fromkeys(BASE["seeds"], seed)}))


def run_bytes(run_dir):
    return {name: (run_dir / name).read_bytes() for name in RUN_FILES}


def alone_bytes(resolved, root):
    """The files of the job run by itself: own data, no shared prefix."""
    return run_bytes(write_run(resolved, root)[0])


@pytest.fixture
def selection_epochs_run(monkeypatch):
    """Counts the selection epochs trained, as run_experiment looks them up."""
    calls = []
    real = pipeline.self_teach_epoch

    def counting(model, optimizer, train, schedule, epoch, *rest):
        calls.append(epoch)
        return real(model, optimizer, train, schedule, epoch, *rest)

    monkeypatch.setattr(pipeline, "self_teach_epoch", counting)
    return calls


def test_selection_epochs_and_prefix_key():
    cfg = ExperimentConfig(total_epochs=8, warmup_epochs=3)
    assert selection_epochs(cfg) == 3
    assert selection_epochs(dataclasses.replace(cfg, method=SELECTION_ONLY)) == 8
    assert selection_epochs(dataclasses.replace(cfg, warmup_epochs=8)) == 8
    for change in (dict(method=MIX), dict(lam=0.3), dict(warmup_epochs=5),
                   dict(total_epochs=9), dict(partition_rule="small_loss_global")):
        assert prefix_key(dataclasses.replace(cfg, **change)) == prefix_key(cfg), change
    for change in (dict(hidden=(8,)), dict(optimizer="sgd"), dict(lr=0.5), dict(tau=0.2),
                   dict(ramp_epochs=3), dict(batch_size=64), dict(seed_init=1),
                   dict(seed_epochs=1), dict(seed_data=1)):
        assert prefix_key(dataclasses.replace(cfg, **change)) != prefix_key(cfg), change


def test_shared_prefix_gives_the_bytes_of_runs_alone(tmp_path, selection_epochs_run):
    cells = [{"method": m} for m in (SELECTION_ONLY, MIX, INSCORR)]
    results, failures = sweep(BASE, cells, (0, 1), partial(_sweep_job, root=tmp_path / "swept"))
    assert failures == []
    # per seed: the 2 shared warmup epochs once, then SelectionOnly's other 2
    assert selection_epochs_run == [0, 1, 2, 3] * 2
    for cell in cells:
        for seed in (0, 1):
            resolved = seeded_job(cell, seed)
            swept = tmp_path / "swept" / config_hash(resolved)
            assert run_bytes(swept) == alone_bytes(resolved, tmp_path / "alone"), (cell, seed)


@pytest.mark.parametrize("fail_at", [1, 3])
def test_a_job_that_fails_leaves_the_next_one_correct(tmp_path, monkeypatch, fail_at):
    # epoch 1 fails before the prefix is copied, epoch 3 after it
    real = pipeline.self_teach_epoch
    calls = []

    def fails_once(*args):
        calls.append(args[4])
        if len(calls) == fail_at + 1:
            raise RuntimeError("selection broke")
        return real(*args)

    monkeypatch.setattr(pipeline, "self_teach_epoch", fails_once)
    cells = [{"method": SELECTION_ONLY}, {"method": MIX}]
    results, failures = sweep(BASE, cells, (2,), partial(_sweep_job, root=tmp_path / "swept"))
    assert failures == [(0, 2, "selection broke")]
    assert calls == ([0, 1, 0, 1] if fail_at == 1 else [0, 1, 2, 3])
    monkeypatch.setattr(pipeline, "self_teach_epoch", real)
    resolved = seeded_job(cells[1], 2)
    swept = tmp_path / "swept" / config_hash(resolved)
    assert run_bytes(swept) == alone_bytes(resolved, tmp_path / "alone")


def test_prefix_as_long_as_the_first_run_is_still_shared(tmp_path, selection_epochs_run):
    cells = [{"method": SELECTION_ONLY, "training": {"total_epochs": 2, "warmup_epochs": 1}},
             {"method": MIX, "training": {"total_epochs": 6, "warmup_epochs": 3}}]
    results, failures = sweep(BASE, cells, (4,), partial(_sweep_job, root=tmp_path / "swept"))
    assert failures == []
    # SelectionOnly's last epoch ends the prefix; Mix trains only its third
    assert selection_epochs_run == [0, 1, 2]
    for cell in cells:
        resolved = seeded_job(cell, 4)
        swept = tmp_path / "swept" / config_hash(resolved)
        assert run_bytes(swept) == alone_bytes(resolved, tmp_path / "alone"), cell


def test_prefix_refuses_a_run_it_does_not_fit():
    cfg = to_experiment_config(seeded_job({"method": MIX}, 0))
    data = pipeline.prepare_data(cfg)
    with pytest.raises(ContractError, match="needs 1 to 2 selection epochs"):
        run_experiment(cfg, data=data, prefix=SharedPrefix(3))
    prefix = SharedPrefix(2)
    run_experiment(cfg, data=data, prefix=prefix)
    other = dataclasses.replace(cfg, seed_init=1)
    with pytest.raises(ContractError, match="another prefix_key"):
        run_experiment(other, data=data, prefix=prefix)
