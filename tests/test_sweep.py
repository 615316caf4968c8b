"""The sweep engine: shared data and phase cache, failures, order and
workers."""

import dataclasses
import multiprocessing
import os
import time
from functools import partial

import numpy as np
import pytest

import inscorr.sweep as sweep_module
from inscorr import pipeline
from inscorr.artifacts import write_run
from inscorr.attack import L2
from inscorr.cli import _sweep_job
from inscorr.config import (
    apply_overrides,
    config_hash,
    deep_merge,
    load_config,
    resolve_config,
    to_experiment_config,
)
from inscorr.noise import NoiseSpec
from inscorr.pipeline import (
    INSCORR,
    MIX,
    SELECTION_ONLY,
    SMALL_LOSS_GLOBAL,
    ExperimentConfig,
    correction_key,
    data_key,
    prefix_key,
    run_experiment,
    selection_epochs,
    split_key,
    warmup_key,
)
from inscorr.sweep import sweep

BASE = apply_overrides(load_config(), [
    "model.hidden=[8]", "data.n_train=120", "data.n_test=60", "data.height=8",
    "data.width=8", "training.total_epochs=4", "training.warmup_epochs=2",
    "training.batch_size=32", "attack.steps=3",
])


def train_size(resolved, cache):
    # the job's run generates its task's data, or takes it from the cache
    cfg = to_experiment_config(resolved)
    run_experiment(cfg, cache=cache)
    return float(len(cache[("data", data_key(cfg))][0]))


@pytest.fixture
def prepare_calls(monkeypatch):
    calls = []
    real = pipeline.prepare_data

    def counting(cfg):
        calls.append(data_key(cfg))
        return real(cfg)

    monkeypatch.setattr(pipeline, "prepare_data", counting)
    return calls


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
    real = pipeline.prepare_data

    def broken_on_fog(cfg):
        if cfg.noise_route == "fog":
            raise RuntimeError("no fog today")
        return real(cfg)

    monkeypatch.setattr(pipeline, "prepare_data", broken_on_fog)
    cells = [{"noise": {"route": route}, "method": method}
             for route in ("gaussian", "fog") for method in (SELECTION_ONLY, MIX)]
    results, failures = sweep(BASE, cells, (0, 1), train_size)
    assert [r.n_failed for r in results] == [0, 0, 2, 2]
    assert [r.mean for r in results] == [108.0, 108.0, None, None]
    assert failures == [(c, seed, "no fog today") for c in (2, 3) for seed in (0, 1)]


def test_failing_job_leaves_the_rest_of_its_group_running():
    def fails_on_mix(resolved, cache):
        if resolved["method"] == MIX:
            raise RuntimeError("mix broke")
        return 0.25

    cells = [{"method": m} for m in (MIX, SELECTION_ONLY, "InsCorr")]
    results, failures = sweep(BASE, cells, (3,), fails_on_mix)
    assert [(r.n_failed, r.mean, r.std) for r in results] == [
        (1, None, None), (0, 0.25, 0.0), (0, 0.25, 0.0)]
    assert failures == [(0, 3, "mix broke")]


def record_pid(resolved, cache, out_dir):
    # module level, so that a worker started by spawn could unpickle it
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


def naps(resolved, cache, seconds=0.2):
    # module level, so that a worker started by spawn could unpickle it
    time.sleep(seconds)
    return 0.5


@pytest.fixture
def started(monkeypatch):
    """One entry per worker process sweep starts: how many of the
    processes started so far were alive right after it started."""
    processes, alive = [], []

    class Counted(multiprocessing.Process):
        def start(self):
            super().start()
            processes.append(self)
            alive.append(sum(p.is_alive() for p in processes))

    monkeypatch.setattr(sweep_module, "Process", Counted)
    return alive


@pytest.mark.parametrize("workers", [64, 2])
def test_a_sweep_starts_one_worker_per_batch_and_at_most_workers_at_once(started, workers):
    # one batch per route and seed: four batches, whatever the workers
    cells = [{"noise": {"route": route}} for route in ("fog", "open_set")]
    results, failures = sweep(BASE, cells, (0, 1), naps, workers=workers)
    assert failures == [] and [r.mean for r in results] == [0.5, 0.5]
    assert len(started) == 4
    assert max(started) <= min(workers, 4)


METHODS = (SELECTION_ONLY, MIX, INSCORR)


def dies_on(resolved, cache, deaths):
    # module level, so that a worker started by spawn could unpickle it
    if (resolved["method"], resolved["seeds"]["epochs"]) in deaths:
        os._exit(3)
    return 0.5


@pytest.mark.parametrize("deaths", [{(SELECTION_ONLY, 1)}, {(MIX, 1)}, {(INSCORR, 1)},
                                    {(MIX, 0), (INSCORR, 1)}],
                         ids=["first", "middle", "last", "two_batches"])
def test_a_dead_worker_fails_only_its_own_job(deaths):
    # one batch of three jobs per seed, the two running at once on two
    # workers: the job whose process dies fails with the exit code, and
    # the jobs before and after it in its batch keep their outcomes
    results, failures = sweep(BASE, [{"method": m} for m in METHODS], (0, 1),
                              partial(dies_on, deaths=deaths), workers=2)
    assert failures == [(c, seed, "worker process died with exit code 3")
                        for c, method in enumerate(METHODS) for seed in (0, 1)
                        if (method, seed) in deaths]
    assert [(r.n_failed, r.mean) for r in results] == [
        (sum((method, seed) in deaths for seed in (0, 1)), 0.5) for method in METHODS]


def marks_then_dies_on_fog_seed_1(resolved, cache, out_dir):
    # module level, so that a worker started by spawn could unpickle it
    route, seed = resolved["noise"]["route"], resolved["seeds"]["epochs"]
    with open(out_dir / f"{route}-{seed}", "a") as mark:
        mark.write("x")
    time.sleep(0.1)
    if route == "fog" and seed == 1:
        os._exit(3)
    return 0.5


def test_a_dead_worker_reruns_nothing(tmp_path):
    # the seeds are part of the data key: twelve one-job batches on two
    # workers, and no job runs twice, the dying one included
    routes = ("fog", "open_set", "gaussian", "occlusion")
    results, failures = sweep(BASE, [{"noise": {"route": route}} for route in routes],
                              (0, 1, 2), partial(marks_then_dies_on_fog_seed_1,
                                                 out_dir=tmp_path), workers=2)
    assert failures == [(0, 1, "worker process died with exit code 3")]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        f"{route}-{seed}": "x" for route in routes for seed in (0, 1, 2)}


def test_a_sweep_that_raises_leaves_no_worker_running(started, monkeypatch):
    def broken_wait(connections, timeout=None):
        raise RuntimeError("the parent broke")

    monkeypatch.setattr(sweep_module, "wait", broken_wait)
    cells = [{"noise": {"route": route}} for route in ("fog", "open_set")]
    with pytest.raises(RuntimeError, match="the parent broke"):
        sweep(BASE, cells, (0,), partial(naps, seconds=60.0), workers=2)
    assert len(started) == 2
    assert multiprocessing.active_children() == []


def loss_trace(resolved, cache):
    metrics = run_experiment(to_experiment_config(resolved), cache=cache).metrics
    return sum(m.train_loss for m in metrics)


def test_shared_data_gives_the_results_of_fresh_data():
    # the jobs of a task run one after another on the same cached arrays,
    # so a run that wrote into its data would change the runs after it
    cells = [{"method": m, "training": {"total_epochs": 6, "warmup_epochs": 3}}
             for m in (MIX, "InsCorr", SELECTION_ONLY)]
    results, failures = sweep(BASE, cells, (5,), loss_trace)
    assert failures == []
    for cell, result in zip(cells, results):
        seeded = deep_merge(BASE, {**cell, "seeds": dict.fromkeys(BASE["seeds"], 5)})
        assert result.mean == loss_trace(resolve_config(seeded), None)


# --- the phase keys ------------------------------------------------------

# the cached phases in run order, each with its key
PHASE_KEYS = (("data", data_key), ("warmup", warmup_key), ("split", split_key),
              ("correction", correction_key))

# per field of the runnable configs, the first phase that reads it and a
# value other than the one KEYED_CFG holds; "mixed" marks a field read only
# after the cached phases
FIELD_PHASES = {
    "method": ("correction", MIX),
    "hidden": ("warmup", (8,)),
    "optimizer": ("warmup", "sgd"),
    "lr": ("warmup", 0.5),
    "n_train": ("data", 100),
    "n_test": ("data", 100),
    "num_classes": ("data", 3),
    "height": ("data", 8),
    "width": ("data", 8),
    "val_fraction": ("data", 0.2),
    "pool_size": ("data", 5),
    "noise_route": ("data", "fog"),
    "noise_rate": ("data", 0.2),
    "noise_spec.gaussian_sigma": ("data", 0.1),
    "noise_spec.occlusion_fraction": ("data", 0.5),
    "noise_spec.resolution_factor": ("data", 2),
    "noise_spec.fog_intensity": ("data", 0.5),
    "noise_spec.fog_decay": ("data", 2.0),
    "noise_spec.blur_length": ("data", 3),
    "noise_spec.blur_angle_deg": ("data", 45.0),
    "tau": ("warmup", 0.2),
    "ramp_epochs": ("warmup", 3),
    "attack.norm": ("correction", L2),
    "attack.budget": ("correction", 0.1),
    "attack.steps": ("correction", 7),
    "attack.step_size": ("correction", 0.5),
    "attack.random_start": ("correction", True),
    "lam": ("mixed", 0.3),
    "warmup_epochs": ("warmup", 5),
    "total_epochs": ("mixed", 9),
    "batch_size": ("warmup", 64),
    # a run that refreshes its correction shares nothing after the split
    "refresh_correction": ("mixed", True),
    "partition_rule": ("split", SMALL_LOSS_GLOBAL),
    "seed_data": ("data", 1),
    "seed_noise": ("data", 1),
    "seed_init": ("warmup", 1),
    "seed_epochs": ("warmup", 1),
}

KEYED_CFG = ExperimentConfig(total_epochs=8, warmup_epochs=3)


def field_paths(cfg):
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from (f"{f.name}.{g.name}" for g in dataclasses.fields(value))
        else:
            yield f.name


def with_field(cfg, path, value):
    name, _, sub = path.partition(".")
    if sub:
        value = dataclasses.replace(getattr(cfg, name), **{sub: value})
    return dataclasses.replace(cfg, **{name: value})


def test_phase_keys_cover_every_config_field():
    # a field that no key covers would hand a run another config's phase
    assert sorted(field_paths(KEYED_CFG)) == sorted(FIELD_PHASES)
    order = [phase for phase, _ in PHASE_KEYS]
    for path, (phase, value) in FIELD_PHASES.items():
        changed = with_field(KEYED_CFG, path, value)
        assert changed != KEYED_CFG, path
        first = order.index(phase) if phase in order else len(order)
        for name, key in PHASE_KEYS[:first]:
            assert key(changed) == key(KEYED_CFG), (path, name)
        if phase in order:
            assert PHASE_KEYS[first][1](changed) != PHASE_KEYS[first][1](KEYED_CFG), path


def test_data_key_ignores_what_prepare_data_does_not_read():
    # a pool is drawn only on the open_set route
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


def test_selection_epochs_and_prefix_key():
    # the selection phase runs every epoch of SelectionOnly, else the warmup
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


# --- the phase cache ----------------------------------------------------------

RUN_FILES = ("metrics.jsonl", "metrics.csv", "summary.json", "model.ckpt")


def seeded_job(cell, seed):
    return resolve_config(deep_merge(BASE, {**cell, "seeds": dict.fromkeys(BASE["seeds"], seed)}))


def run_bytes(run_dir):
    return {name: (run_dir / name).read_bytes() for name in RUN_FILES}


def alone_bytes(resolved, root):
    """The files of the job run by itself: own data, no cache."""
    return run_bytes(write_run(resolved, root)[0])


def counting(monkeypatch, name):
    """The arguments of each call to pipeline.<name>, as run_experiment
    looks it up."""
    calls = []
    real = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapper)
    return calls


@pytest.mark.parametrize("selection_only", ["first", "last"])
def test_shared_prefix_gives_the_bytes_of_runs_alone(tmp_path, monkeypatch, selection_only):
    selection = counting(monkeypatch, "self_teach_epoch")
    splits = counting(monkeypatch, "partition_clean_mislabeled")
    attacks = counting(monkeypatch, "correct_set")
    cells = [{"method": MIX},
             *({"method": INSCORR, "training": {"lambda": lam}} for lam in (0.5, 0.7))]
    cells.insert(0 if selection_only == "first" else len(cells), {"method": SELECTION_ONLY})
    results, failures = sweep(BASE, cells, (0, 1), partial(_sweep_job, root=tmp_path / "swept"))
    assert failures == []
    # per seed, in either order: the 2 warmup epochs once, then SelectionOnly's other 2
    assert [args[4] for args in selection] == [0, 1, 2, 3] * 2
    assert len(splits) == len(attacks) == 2
    monkeypatch.undo()
    for cell in cells:
        for seed in (0, 1):
            resolved = seeded_job(cell, seed)
            swept = tmp_path / "swept" / config_hash(resolved)
            assert run_bytes(swept) == alone_bytes(resolved, tmp_path / "alone"), (cell, seed)


@pytest.mark.parametrize("fail_at", [1, 3])
def test_a_job_that_fails_leaves_the_next_one_correct(tmp_path, monkeypatch, fail_at):
    # SelectionOnly trains first; epoch 1 fails it before its warmup is
    # stored, so Mix trains its own, and epoch 3 fails it after, so Mix
    # resumes from that warmup
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


def test_a_failed_attack_leaves_the_next_job_to_attack(tmp_path, monkeypatch):
    real = pipeline.correct_set
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("attack broke")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "correct_set", fails_once)
    cells = [{"training": {"lambda": lam}} for lam in (0.3, 0.6, 0.9)]
    results, failures = sweep(BASE, cells, (1,), partial(_sweep_job, root=tmp_path / "swept"))
    assert failures == [(0, 1, "attack broke")]
    # the second job attacks by itself, the third takes its rows
    assert len(calls) == 2
    monkeypatch.setattr(pipeline, "correct_set", real)
    for cell in cells[1:]:
        resolved = seeded_job(cell, 1)
        swept = tmp_path / "swept" / config_hash(resolved)
        assert run_bytes(swept) == alone_bytes(resolved, tmp_path / "alone"), cell


def test_cache_keeps_runs_of_other_keys_apart():
    cfg = to_experiment_config(seeded_job({"training": {"total_epochs": 5}}, 0))
    cache = {}
    for other in (cfg, dataclasses.replace(cfg, seed_init=1),
                  dataclasses.replace(cfg, partition_rule=SMALL_LOSS_GLOBAL),
                  dataclasses.replace(cfg, warmup_epochs=3),
                  dataclasses.replace(cfg, lam=0.2), dataclasses.replace(cfg, method=MIX),
                  # a run that ends before the warmup another stored
                  dataclasses.replace(cfg, warmup_epochs=5, total_epochs=8),
                  dataclasses.replace(cfg, warmup_epochs=5, total_epochs=3)):
        shared = run_experiment(other, cache=cache)
        alone = run_experiment(other)
        assert shared.metrics == alone.metrics, other
        assert np.array_equal(shared.model.flat, alone.model.flat), other


def test_a_run_cut_short_by_its_length_shares_an_equal_warmup(monkeypatch):
    # warmup 5 of total 3 trains 3 selection epochs, the warmup a warmup-3 run stored
    cfg = to_experiment_config(seeded_job({"training": {"total_epochs": 5,
                                                        "warmup_epochs": 3}}, 0))
    short = dataclasses.replace(cfg, warmup_epochs=5, total_epochs=3)
    cache = {}
    run_experiment(cfg, cache=cache)
    selection = counting(monkeypatch, "self_teach_epoch")
    shared = run_experiment(short, cache=cache)
    assert selection == []
    monkeypatch.undo()
    alone = run_experiment(short)
    assert shared.metrics == alone.metrics
    assert np.array_equal(shared.model.flat, alone.model.flat)


def test_cached_phases_cannot_be_changed_by_a_run():
    cfg = to_experiment_config(seeded_job({}, 0))
    cache = {}
    result = run_experiment(cfg, cache=cache)
    model, optimizer, metrics = cache[warmup_key(cfg)]
    # a run continues on copies of the warmup state
    assert not np.shares_memory(model.flat, result.model.flat)
    assert metrics is not result.metrics
    arrays = [*cache[split_key(cfg)], *cache[correction_key(cfg)][:2]]
    assert len(arrays) == 4
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_a_task_keeps_only_what_a_later_job_reads():
    # SelectionOnly's state after the warmup serves Mix; neither its last
    # state nor Mix's raw rows are read again
    caches = []

    def run(resolved, cache):
        caches.append(cache)
        run_experiment(to_experiment_config(resolved), cache=cache)

    cells = [{"method": SELECTION_ONLY}, {"method": MIX}]
    results, failures = sweep(BASE, cells, (0,), run)
    assert failures == []
    assert caches[0] is caches[1]
    mix = to_experiment_config(seeded_job(cells[1], 0))
    assert set(caches[0]) == {("data", data_key(mix)), warmup_key(mix), split_key(mix)}
