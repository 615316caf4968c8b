"""Config loading, overrides, resolution, and hashing."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings

from inscorr.attack import AttackConfig
from inscorr.config import (
    _KEYS,
    DEFAULT_CONFIG,
    apply_overrides,
    config_hash,
    load_config,
    resolve_config,
    to_experiment_config,
)
from inscorr.errors import ConfigError
from inscorr.pipeline import ExperimentConfig

from helpers import JSON_VALUES

F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)


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
        "selection.tau=null",
        "noise.route=fog",
    ])
    assert cfg["training"]["lambda"] == 0.7
    assert cfg["model"]["hidden"] == [32, 16]
    assert cfg["selection"]["tau"] is None
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


def test_resolve_rejects_open_set_with_too_many_classes_for_the_pool():
    # out-of-distribution bars keep 4 to 12 degrees from every class angle,
    # and class angles 180 / 8 = 22.5 degrees apart leave only 11.25 on each side
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
    # hashes as they were before these checks, and since data.pool_size, the
    # attack's random start, the corruption severities and the correction's
    # refresh left the resolved config: the defaults, and every checked size
    # at its floor
    assert config_hash(resolve_config(load_config())) == "a7497d8dd498"
    floor = ["data.height=1", "data.width=1", "data.n_train=1", "data.n_test=1",
             "noise.route=fog"]
    assert config_hash(resolve_config(apply_overrides(load_config(), floor))) == "be301e28cc58"
    # and every value rule at its edge, on fog: on open_set noise.rate=1
    # asks for more replacements than a class of the data holds
    edge = ["data.val_fraction=0", "noise.rate=1", "selection.tau=0.99",
            "selection.ramp_epochs=1", "model.optimizer=sgd", "model.lr=1e-9",
            "data.num_classes=2", "noise.route=fog"]
    assert config_hash(resolve_config(apply_overrides(load_config(), edge))) == "1648c2abf104"


@pytest.mark.parametrize("overrides,key", [
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
    # runs train in float32, where these learning rates round to inf
    ("model.lr=1e300", "model.lr"),
    ("model.lr=3.5e38 model.optimizer=sgd", "model.lr"),
    (f"model.lr={float(np.nextafter(F32_MAX, np.inf))}", "model.lr"),
    ("model.hidden=[0]", "model.hidden"),
    ("model.hidden=[16,-2]", "model.hidden"),
    ("method=Bagging", "method"),
    ("noise.route=bogus", "noise.route"),
    ("attack.norm=l1", "attack.norm"),
    ("attack.budget=0", "attack.budget"),
    ("attack.steps=-1", "attack.steps"),
    ("attack.step_size=0", "attack.step_size"),
    # the attack runs in float32, where these budgets and step sizes round to inf
    ("attack.budget=1e308", "attack.budget"),
    ("attack.budget=1e308 attack.step_size=0.01", "attack.budget"),
    (f"attack.budget={float(np.nextafter(F32_MAX, np.inf))}", "attack.budget"),
    ("attack.step_size=1e308", "attack.step_size"),
    (f"attack.step_size={float(np.nextafter(F32_MAX, np.inf))}", "attack.step_size"),
    (f"attack.budget={F32_MAX * 4.0 / 2.5} attack.steps=3", "attack.budget"),
    # and this derived step size, 2.5 * budget / steps
    (f"attack.budget={F32_MAX} attack.steps=1", "attack.budget"),
    # these values round to 0 in float32, set or derived (more in
    # tests/test_cli.py::test_a_value_its_storage_cannot_hold_fails_by_key)
    ("attack.budget=5e-324", "attack.budget"),
    (f"attack.budget={F32_TINY} attack.steps=5", "attack.budget"),
    ("training.lambda=1.5", "training.lambda"),
    ("training.total_epochs=-1", "training.total_epochs"),
    ("training.warmup_epochs=-1", "training.warmup_epochs"),
    ("training.warmup_epochs=7 training.total_epochs=6", "training.warmup_epochs"),
    ("training.batch_size=0", "training.batch_size"),
    ("training.partition_rule=loss_median", "training.partition_rule"),
    # round(0.95 * 10) = 10 validation rows leave none to train on
    ("data.val_fraction=0.95 data.n_train=10", "data.val_fraction"),
    # numpy makes no array of 2**63 bytes: at 16 x 16 float64 pixels a row,
    # that is 2**52 rows
    (f"data.n_train={2**52}", "data.n_train"),
    (f"data.n_test={2**62}", "data.n_test"),
    # an image size is named before the row counts it multiplies
    (f"data.height={2**62}", "data.height"),
    (f"data.width={2**62}", "data.width"),
    (f"data.height={2**31} data.width={2**31}", "data.width"),
    # a width past numpy's array size: 257 x 2**52 parameters of the first
    # layer, or 2000 x 2**51 outputs of the second
    (f"model.hidden=[{2**62}]", "model.hidden"),
    (f"data.n_train=10 data.n_test=10 model.hidden=[{2**52}]", "model.hidden"),
    (f"model.hidden=[64,{2**51}]", "model.hidden"),
    (f"data.n_test={2**40} model.hidden=[{2**23}]", "model.hidden"),
    # labels are int32
    (f"data.num_classes={2**31 + 1} noise.route=fog", "data.num_classes"),
])
def test_resolve_rejects_out_of_range_values_by_key(overrides, key):
    with pytest.raises(ConfigError, match="^" + key.replace(".", r"\.") + " must "):
        resolve_config(apply_overrides(load_config(), overrides.split()))


@pytest.mark.parametrize("override,key", [
    ('training.total_epochs="abc"', "training.total_epochs"),
    ("training.total_epochs=60.5", "training.total_epochs"),
    ("training.warmup_epochs=true", "training.warmup_epochs"),
    ("training.lambda=half", "training.lambda"),
    ("model.hidden=[64.5]", "model.hidden"),
    ("noise.route=3", "noise.route"),
    ("seeds.data=null", "seeds.data"),
    # integers past the float range or past int64
    *(pytest.param(f"{key}={value}", key, id=f"{key}-huge") for key, value in (
        ("model.lr", 10**400), ("data.n_train", 10**400), ("data.n_test", 10**400),
        ("data.num_classes", 2**63), ("model.hidden", [2**63]), ("seeds.data", "1" + "0" * 5000))),
])
def test_resolve_rejects_ill_typed_values_by_key(override, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        resolve_config(apply_overrides(load_config(), [override]))


def test_cross_key_rules_accept_their_edges():
    resolve_config(apply_overrides(load_config(), ["data.val_fraction=0.94", "data.n_train=10"]))
    resolve_config(apply_overrides(load_config(), ["training.warmup_epochs=6",
                                                   "training.total_epochs=6"]))
    # a budget whose derived step size would overflow is fine beside a set one
    resolve_config(apply_overrides(load_config(), [f"attack.budget={F32_MAX}",
                                                   "attack.step_size=0.01"]))
    # float32's max is a step size the attack can still take, set or derived
    out = resolve_config(apply_overrides(load_config(), [f"attack.step_size={F32_MAX}"]))
    assert out["attack"]["step_size"] == F32_MAX
    # 2.5 * (0.8 * max) / 2 is max exactly
    out = resolve_config(apply_overrides(load_config(), [f"attack.budget={0.8 * F32_MAX}",
                                                         "attack.steps=2"]))
    assert out["attack"]["step_size"] == F32_MAX
    # float32's smallest subnormal is still above 0, set or derived
    out = resolve_config(apply_overrides(load_config(), [
        f"model.lr={F32_TINY}", f"attack.step_size={F32_TINY}",
        "attack.budget=1e-44"]))
    assert out["model"]["lr"] == out["attack"]["step_size"] == F32_TINY
    # 2.5 * tiny / 4 rounds up to tiny (2.5 * tiny / 5, a tie, rounds to 0)
    out = resolve_config(apply_overrides(load_config(), [f"attack.budget={F32_TINY}",
                                                         "attack.steps=4"]))
    assert np.float32(out["attack"]["step_size"]) == F32_TINY
    # 261 x 2**51 parameters of eight bytes stay below numpy's limit
    resolve_config(apply_overrides(load_config(), [
        "data.n_train=10", "data.n_test=10", f"model.hidden=[{2**51}]"]))


def test_key_table_fills_each_field_once():
    # a field that no key fills could not be configured
    classes = (ExperimentConfig, AttackConfig)
    nested = {(ExperimentConfig, "attack")}
    filled = sorted((cls.__name__, name) for _, cls, name in _KEYS)
    assert filled == sorted((cls.__name__, f.name) for cls in classes for f in fields(cls)
                            if (cls, f.name) not in nested)
    assert len({dotted for dotted, _, _ in _KEYS}) == len(_KEYS)
    # a null default takes its type from the annotation
    nullable = [f.type for cls in classes for f in fields(cls) if f.default is None]
    assert nullable and set(nullable) <= {int, float}
    assert list(DEFAULT_CONFIG) == ["method", "model", "data", "noise", "selection", "attack",
                                    "training", "seeds"]


def test_dataclass_defaults_match_default_config():
    assert to_experiment_config(resolve_config(load_config())) == ExperimentConfig()


def test_resolve_accepts_integers_for_numbers():
    # seeds feed numpy's seed sequence, which takes an integer of any size
    out = resolve_config(apply_overrides(load_config(), [
        "training.lambda=1", "attack.step_size=1", "selection.tau=0", f"model.lr={2**127}",
        f"data.n_test={2**52 - 1}", f"attack.steps={2**63 - 1}", f"seeds.data={10**400}",
        f"seeds.epochs={10**400}", f"data.num_classes={2**31}", "noise.route=fog",
    ]))
    assert out["training"]["lambda"] == 1 and out["attack"]["step_size"] == 1
    # the largest power of two float32, the dtype runs train in, holds
    assert out["model"]["lr"] == 2**127
    # the most 16 x 16 float64 rows one numpy array holds
    assert out["data"]["n_test"] == 2**52 - 1
    assert out["seeds"]["data"] == out["seeds"]["epochs"] == 10**400
    # the largest int64, on a key no array size bounds; the most classes
    # int32 labels hold
    assert out["attack"]["steps"] == 2**63 - 1
    assert out["data"]["num_classes"] == 2**31


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


@pytest.mark.parametrize("dotted", [dotted for dotted, _, _ in _KEYS])
@settings(max_examples=10, derandomize=True, deadline=None)
@given(value=JSON_VALUES)
# a null selection.tau takes noise.rate, and a subnormal attack.budget
# rounds to 0 in float32
@example(value=1)
@example(value=5e-324)
def test_any_value_of_a_key_resolves_or_fails_by_that_key(dotted, value):
    cfg = load_config()
    *section, key = dotted.split(".")
    (cfg[section[0]] if section else cfg)[key] = value
    try:
        resolve_config(cfg)
    except ConfigError as error:
        assert dotted in str(error), str(error)
