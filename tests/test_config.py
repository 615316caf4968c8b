"""Config loading, overrides, resolution, and hashing."""

import json

import pytest

from inscorr.config import (
    DEFAULT_CONFIG,
    apply_overrides,
    config_hash,
    load_config,
    resolve_config,
    to_experiment_config,
)
from inscorr.errors import ConfigError
from inscorr.pipeline import ExperimentConfig


def test_load_without_file_copies_defaults():
    cfg = load_config()
    assert cfg == DEFAULT_CONFIG
    cfg["model"]["lr"] = 123.0
    assert DEFAULT_CONFIG["model"]["lr"] != 123.0


def test_load_merges_nested_sections(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"lr": 0.01}, "method": "Mix"}))
    cfg = load_config(str(path))
    assert cfg["model"]["lr"] == 0.01
    assert cfg["method"] == "Mix"
    # untouched siblings keep their defaults
    assert cfg["model"]["hidden"] == DEFAULT_CONFIG["model"]["hidden"]
    assert cfg["data"] == DEFAULT_CONFIG["data"]


def test_load_rejects_unknown_keys_by_dotted_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"learning_rate": 0.01}}))
    with pytest.raises(ConfigError, match="model.learning_rate"):
        load_config(str(path))
    path.write_text(json.dumps({"modle": {}}))
    with pytest.raises(ConfigError, match="modle"):
        load_config(str(path))


def test_load_rejects_non_object_and_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path))
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_overrides_parse_json_values():
    cfg = apply_overrides(load_config(), [
        "training.lambda=0.7",
        "model.hidden=[32,16]",
        "training.refresh_correction=true",
        "noise.route=fog",
    ])
    assert cfg["training"]["lambda"] == 0.7
    assert cfg["model"]["hidden"] == [32, 16]
    assert cfg["training"]["refresh_correction"] is True
    assert cfg["noise"]["route"] == "fog"


def test_overrides_beat_file_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"lr": 0.01}}))
    cfg = apply_overrides(load_config(str(path)), ["model.lr=0.5"])
    assert cfg["model"]["lr"] == 0.5


def test_overrides_reject_unknown_or_malformed():
    with pytest.raises(ConfigError, match="unknown config key: model.depth"):
        apply_overrides(load_config(), ["model.depth=3"])
    with pytest.raises(ConfigError, match="unknown config key: model"):
        apply_overrides(load_config(), ["model=3"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(load_config(), ["model.lr"])


def test_resolve_fills_derived_defaults():
    out = resolve_config(load_config())
    assert out["selection"]["tau"] == out["noise"]["rate"]
    assert out["training"]["warmup_epochs"] == out["training"]["total_epochs"] // 2
    assert out["data"]["pool_size"] == out["data"]["n_train"]
    budget, steps = out["attack"]["budget"], out["attack"]["steps"]
    assert out["attack"]["step_size"] == pytest.approx(2.5 * budget / steps)


def test_resolve_keeps_explicit_values():
    cfg = apply_overrides(load_config(), [
        "selection.tau=0.25", "training.warmup_epochs=7", "attack.step_size=0.01",
    ])
    out = resolve_config(cfg)
    assert out["selection"]["tau"] == 0.25
    assert out["training"]["warmup_epochs"] == 7
    assert out["attack"]["step_size"] == 0.01


def test_resolve_rejects_refresh_without_correction_method():
    cfg = apply_overrides(load_config(), [
        "method=Mix", "training.refresh_correction=true",
    ])
    with pytest.raises(ConfigError, match="refresh_correction"):
        resolve_config(cfg)


def test_resolve_rejects_open_set_with_too_many_classes_for_the_pool():
    # pool bars keep 4 to 12 degrees from every class angle, and class
    # angles 180 / 8 = 22.5 degrees apart leave only 11.25 on each side
    with pytest.raises(ConfigError, match=r"data\.num_classes"):
        resolve_config(apply_overrides(load_config(), ["data.num_classes=8"]))
    resolve_config(apply_overrides(load_config(), ["data.num_classes=7"]))
    resolve_config(apply_overrides(load_config(), ["data.num_classes=8", "noise.route=fog"]))


def test_resolve_rejects_bad_lambda():
    with pytest.raises(ConfigError, match="lambda"):
        resolve_config(apply_overrides(load_config(), ["training.lambda=1.5"]))


@pytest.mark.parametrize("key", ["seeds.data", "seeds.noise", "seeds.init", "seeds.epochs"])
def test_resolve_rejects_a_negative_seed_by_key(key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.") + " must be non-negative"):
        resolve_config(apply_overrides(load_config(), [f"{key}=-1"]))
    resolve_config(apply_overrides(load_config(), [f"{key}=0"]))


@pytest.mark.parametrize("key", ["data.height", "data.width", "data.n_train", "data.n_test"])
def test_resolve_rejects_an_empty_data_size_by_key(key):
    for bad in (0, -2):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.") + " must be at least 1"):
            resolve_config(apply_overrides(load_config(), [f"{key}={bad}"]))


def test_size_and_seed_checks_leave_valid_hashes_alone():
    # hashes as they were before these checks: the defaults, and every
    # checked size at its floor
    assert config_hash(resolve_config(load_config())) == "77b25c6c7085"
    floor = ["data.height=1", "data.width=1", "data.n_train=1", "data.n_test=1",
             "noise.route=fog"]
    assert config_hash(resolve_config(apply_overrides(load_config(), floor))) == "82f8c245bad1"
    # and every value rule at its edge, on a route that draws no pool: on
    # open_set a pool of 1 cannot replace the 2000 rows noise.rate=1 asks for
    edge = ["data.pool_size=1", "data.val_fraction=0", "noise.rate=1", "selection.tau=0.99",
            "selection.ramp_epochs=1", "model.optimizer=sgd", "model.lr=1e-9",
            "data.num_classes=2", "noise.route=fog"]
    assert config_hash(resolve_config(apply_overrides(load_config(), edge))) == "6f5a2708bac8"


@pytest.mark.parametrize("overrides,key", [
    ("data.pool_size=0", "data.pool_size"),
    ("data.pool_size=-3", "data.pool_size"),
    ("data.val_fraction=1.5", "data.val_fraction"),
    ("data.val_fraction=-0.1", "data.val_fraction"),
    ("data.num_classes=1 noise.route=fog", "data.num_classes"),
    ("noise.rate=1.5", "noise.rate"),
    ("noise.rate=-0.1", "noise.rate"),
    ("selection.tau=1.0", "selection.tau"),
    # a null tau takes noise.rate
    ("noise.rate=1.0", "selection.tau"),
    ("selection.ramp_epochs=0", "selection.ramp_epochs"),
    ("model.optimizer=foo", "model.optimizer"),
    ("model.lr=0", "model.lr"),
    ("model.lr=-1", "model.lr"),
    ("model.hidden=[0]", "model.hidden"),
    ("model.hidden=[16,-2]", "model.hidden"),
    ("method=Bagging", "method"),
    ("noise.route=bogus", "noise.route"),
    ("noise.gaussian_sigma=-0.1", "noise.gaussian_sigma"),
    ("noise.occlusion_fraction=1.5", "noise.occlusion_fraction"),
    ("noise.resolution_factor=0", "noise.resolution_factor"),
    ("noise.fog_intensity=-0.2", "noise.fog_intensity"),
    ("noise.fog_decay=-1", "noise.fog_decay"),
    ("noise.blur_length=0", "noise.blur_length"),
    ("attack.norm=l1", "attack.norm"),
    ("attack.budget=0", "attack.budget"),
    ("attack.steps=-1", "attack.steps"),
    ("attack.step_size=0", "attack.step_size"),
    ("training.lambda=1.5", "training.lambda"),
    ("training.total_epochs=-1", "training.total_epochs"),
    ("training.warmup_epochs=-1", "training.warmup_epochs"),
    ("training.warmup_epochs=7 training.total_epochs=6", "training.warmup_epochs"),
    ("training.batch_size=0", "training.batch_size"),
    ("training.partition_rule=loss_median", "training.partition_rule"),
    ("method=Mix training.refresh_correction=true", "training.refresh_correction"),
    # open_set replaces round(0.4 * 2000) = 800 training rows from the pool
    ("data.pool_size=799", "data.pool_size"),
    # round(0.95 * 10) = 10 validation rows leave none to train on
    ("data.val_fraction=0.95 data.n_train=10", "data.val_fraction"),
])
def test_resolve_rejects_out_of_range_values_by_key(overrides, key):
    with pytest.raises(ConfigError, match="^" + key.replace(".", r"\.") + " must "):
        resolve_config(apply_overrides(load_config(), overrides.split()))


@pytest.mark.parametrize("override,key", [
    ('training.total_epochs="abc"', "training.total_epochs"),
    ("training.total_epochs=60.5", "training.total_epochs"),
    ("training.warmup_epochs=true", "training.warmup_epochs"),
    ("attack.random_start=1", "attack.random_start"),
    ("training.lambda=half", "training.lambda"),
    ("model.hidden=[64.5]", "model.hidden"),
    ("noise.route=3", "noise.route"),
    ("seeds.data=null", "seeds.data"),
    # integers past the float range or past int64
    *(pytest.param(f"{key}={value}", key, id=f"{key}-huge") for key, value in (
        ("model.lr", 10**400), ("data.n_train", 10**400), ("data.n_test", 10**400),
        ("data.pool_size", 2**63), ("model.hidden", [2**63]), ("seeds.data", "1" + "0" * 5000))),
])
def test_resolve_rejects_ill_typed_values_by_key(override, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        resolve_config(apply_overrides(load_config(), [override]))


def test_cross_key_rules_accept_their_edges():
    resolve_config(apply_overrides(load_config(), ["data.pool_size=800"]))
    # a pool is drawn only on the open_set route
    resolve_config(apply_overrides(load_config(), ["data.pool_size=1", "noise.route=fog"]))
    resolve_config(apply_overrides(load_config(), ["data.val_fraction=0.94", "data.n_train=10"]))
    resolve_config(apply_overrides(load_config(), ["training.warmup_epochs=6",
                                                   "training.total_epochs=6"]))


def test_dataclass_defaults_match_default_config():
    assert to_experiment_config(resolve_config(load_config())) == ExperimentConfig()


def test_resolve_accepts_integers_for_numbers():
    # seeds feed numpy's seed sequence, which takes an integer of any size
    out = resolve_config(apply_overrides(load_config(), [
        "training.lambda=1", "attack.step_size=1", "selection.tau=0", f"model.lr={2**1000}",
        f"data.n_test={2**63 - 1}", f"seeds.data={10**400}",
    ]))
    assert out["training"]["lambda"] == 1 and out["attack"]["step_size"] == 1
    assert out["data"]["n_test"] == 2**63 - 1 and out["seeds"]["data"] == 10**400


def test_resolved_config_round_trips_through_json():
    out = resolve_config(load_config())
    assert json.loads(json.dumps(out)) == out


def test_hash_ignores_how_defaults_were_spelled():
    derived = resolve_config(load_config())
    explicit = resolve_config(apply_overrides(load_config(), [
        f"selection.tau={DEFAULT_CONFIG['noise']['rate']}",
    ]))
    assert config_hash(derived) == config_hash(explicit)


def test_hash_changes_with_any_value():
    base = resolve_config(load_config())
    assert len(config_hash(base)) == 12
    for override in ("model.lr=0.123", "seeds.epochs=9", "noise.rate=0.3"):
        other = resolve_config(apply_overrides(load_config(), [override]))
        assert config_hash(other) != config_hash(base)


def test_to_experiment_config_maps_fields():
    resolved = resolve_config(apply_overrides(load_config(), [
        "training.lambda=0.7", "model.hidden=[32,16]",
    ]))
    cfg = to_experiment_config(resolved)
    assert cfg.lam == 0.7
    assert cfg.hidden == (32, 16)
    assert cfg.tau == resolved["selection"]["tau"]
    assert cfg.noise_spec.occlusion_fraction == resolved["noise"]["occlusion_fraction"]
    assert cfg.attack.step_size == resolved["attack"]["step_size"]


def test_to_experiment_config_wraps_value_errors():
    for section, key, bad in (("attack", "norm", "l1"), (None, "method", "Other")):
        resolved = resolve_config(load_config())
        (resolved[section] if section else resolved)[key] = bad
        with pytest.raises(ConfigError):
            to_experiment_config(resolved)
        # resolve_config builds the runnable config, so it rejects the same value
        with pytest.raises(ConfigError, match=bad):
            resolve_config(resolved)
