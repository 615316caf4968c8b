"""JSON experiment configs: defaults, validation, overrides, hashing.

A config is a nested dict with the sections below. Unknown keys are
rejected by their dotted path, and so is a value whose type differs from
its default's (an integer may stand for a float). A null value means
"derive the default"; these are all the derived defaults, computed by
ExperimentConfig and AttackConfig: selection.tau follows noise.rate,
training.warmup_epochs is training.total_epochs // 2, data.pool_size
matches data.n_train, and attack.step_size is 2.5 * budget / max(steps, 1).

The run identity is the first 12 hex digits of the sha256 of the fully
resolved config serialized canonically, so two configs that resolve to
the same settings share a hash regardless of key order or which
defaults were spelled out.
"""

import copy
import hashlib
import json

from .attack import AttackConfig
from .data import check_pool_margins
from .errors import ConfigError, ContractError
from .nn import OPTIMIZERS
from .noise import OPEN_SET, NoiseSpec
from .pipeline import INSCORR, ExperimentConfig

DEFAULT_CONFIG = {
    "method": "InsCorr",
    "model": {
        "hidden": [64],
        "optimizer": "adam",
        "lr": 0.001,
    },
    "data": {
        "n_train": 2000,
        "n_test": 1000,
        "num_classes": 4,
        "height": 16,
        "width": 16,
        "val_fraction": 0.1,
        "pool_size": None,
    },
    "noise": {
        "route": "open_set",
        "rate": 0.4,
        "gaussian_sigma": 0.25,
        "occlusion_fraction": 0.25,
        "resolution_factor": 4,
        "fog_intensity": 0.8,
        "fog_decay": 1.0,
        "blur_length": 5,
        "blur_angle_deg": 0.0,
    },
    "selection": {
        "tau": None,
        "ramp_epochs": 10,
    },
    "attack": {
        "norm": "linf",
        "budget": 8.0 / 255.0,
        "steps": 40,
        "step_size": None,
        "random_start": False,
    },
    "training": {
        "lambda": 0.5,
        "warmup_epochs": None,
        "total_epochs": 200,
        "batch_size": 128,
        "refresh_correction": False,
        "partition_rule": "agreement",
    },
    "seeds": {
        "data": 0,
        "noise": 0,
        "init": 0,
        "epochs": 0,
    },
}


# the type a non-null value must have where the default is null
_NULLABLE = {
    "data.pool_size": 0,
    "selection.tau": 0.0,
    "training.warmup_epochs": 0,
    "attack.step_size": 0.0,
}


# what a value must satisfy beyond its type: (dotted key, test, the rule
# as an error states it); a null is skipped, and the default derived for
# it is held to the same rule once it is filled in
_RULES = (
    ("training.lambda", lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    *((f"data.{key}", lambda v: v >= 1, "be at least 1")
      for key in ("n_train", "n_test", "height", "width", "pool_size")),
    ("data.num_classes", lambda v: v >= 2, "be at least 2"),
    ("data.val_fraction", lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    ("noise.rate", lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    ("selection.tau", lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    ("selection.ramp_epochs", lambda v: v >= 1, "be at least 1"),
    ("model.optimizer", lambda v: v in OPTIMIZERS, f"be one of {tuple(OPTIMIZERS)}"),
    ("model.lr", lambda v: v > 0.0, "be positive"),
    *((f"seeds.{stream}", lambda v: v >= 0, "be non-negative")
      for stream in DEFAULT_CONFIG["seeds"]),
)


def _check_rules(cfg):
    for dotted, test, rule in _RULES:
        section, key = dotted.split(".")
        value = cfg[section][key]
        if value is not None and not test(value):
            raise ConfigError(f"{dotted} must {rule}, got {value!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _expected(value, default):
    """What value should have been, or None if it may stand for default."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        return None if _is_int(value) else "an integer"
    if isinstance(default, float):
        return None if _is_int(value) or isinstance(value, float) else "a number"
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    ok = isinstance(value, (list, tuple)) and all(_is_int(v) for v in value)
    return None if ok else "a list of integers"


def _check_types(cfg, schema=DEFAULT_CONFIG, path=""):
    for key, default in schema.items():
        dotted = f"{path}{key}"
        if key not in cfg:
            raise ConfigError(f"missing config key: {dotted}")
        value = cfg[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted} must be a section")
            _check_types(value, default, dotted + ".")
            continue
        if default is None:
            if value is None:
                continue
            default = _NULLABLE[dotted]
        expected = _expected(value, default)
        if expected is not None:
            raise ConfigError(f"config key {dotted} must be {expected}, got {value!r}")


def _check_keys(user, schema, path=""):
    for key, value in user.items():
        dotted = f"{path}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key: {dotted}")
        if isinstance(schema[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted} must be a section")
            _check_keys(value, schema[key], dotted + ".")


def deep_merge(base, user):
    out = copy.deepcopy(base)
    for key, value in user.items():
        if isinstance(value, dict):
            out[key] = deep_merge(base[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None):
    """Defaults overlaid with the JSON file at path, if given."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    _check_keys(user, DEFAULT_CONFIG)
    return deep_merge(DEFAULT_CONFIG, user)


def apply_overrides(cfg, assignments):
    """Apply 'dotted.path=value' strings on top of a config dict.

    Values parse as JSON when possible ("0.5", "[32,16]", "true"),
    otherwise they stay strings ("open_set").
    """
    cfg = copy.deepcopy(cfg)
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = dotted.split(".")
        node, schema = cfg, DEFAULT_CONFIG
        for part in parts[:-1]:
            if part not in schema or not isinstance(schema[part], dict):
                raise ConfigError(f"unknown config key: {dotted}")
            node, schema = node[part], schema[part]
        if parts[-1] not in schema or isinstance(schema[parts[-1]], dict):
            raise ConfigError(f"unknown config key: {dotted}")
        node[parts[-1]] = value
    return cfg


def resolve_config(cfg):
    """Fill every derived default in; the result has no nulls left.

    The derived values are read back from the runnable config that
    to_experiment_config builds, so each formula lives in its dataclass
    and a config that cannot run fails here, with a ConfigError.
    """
    _check_types(cfg)
    out = copy.deepcopy(cfg)
    if out["training"]["refresh_correction"] and out["method"] != INSCORR:
        raise ConfigError(
            "training.refresh_correction only applies when method is InsCorr"
        )
    _check_rules(out)
    if out["noise"]["route"] == OPEN_SET:
        classes = out["data"]["num_classes"]
        try:
            check_pool_margins(classes)
        except ContractError as exc:
            raise ConfigError(
                f"data.num_classes={classes} leaves no room for the open_set pool: {exc}"
            ) from exc
    runnable = to_experiment_config(out)
    out["selection"]["tau"] = runnable.tau
    out["training"]["warmup_epochs"] = runnable.warmup_epochs
    out["data"]["pool_size"] = runnable.pool_size
    out["attack"]["step_size"] = runnable.attack.step_size
    # a null selection.tau takes noise.rate, which may be 1
    _check_rules(out)
    return out


def config_hash(resolved):
    """12 hex digits identifying the resolved config."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def to_experiment_config(resolved):
    """Build the runnable config; value errors surface as ConfigError.

    Each key fills the dataclass field of its name, except noise.route,
    noise.rate, training.lambda and seeds.<stream> (seed_<stream>).
    """
    _check_types(resolved)
    noise = dict(resolved["noise"])
    training = dict(resolved["training"])
    try:
        return ExperimentConfig(
            method=resolved["method"],
            **resolved["model"], **resolved["data"], **resolved["selection"],
            noise_route=noise.pop("route"),
            noise_rate=noise.pop("rate"),
            noise_spec=NoiseSpec(**noise),
            attack=AttackConfig(**resolved["attack"]),
            lam=training.pop("lambda"),
            **training,
            **{f"seed_{stream}": seed for stream, seed in resolved["seeds"].items()},
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
