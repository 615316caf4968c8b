"""JSON experiment configs: defaults, validation, overrides, hashing.

A config is a nested dict with the sections below. Unknown keys are
rejected by their dotted path, and so is a value whose type differs from
its default's (an integer may stand for a float; a number that stands for
a float must be finite; an integer must fit in 64 bits unless it is a
seed) or that breaks a rule of _RULES, alone or, in _CROSS_RULES, against
the keys it is tied to.
This module is the only place that states a value's allowed range:
to_experiment_config checks every key before it builds the runnable
dataclasses, which trust their fields and only derive defaults.

A null value means "derive the default"; these are all the derived
defaults, computed by ExperimentConfig and AttackConfig: selection.tau
follows noise.rate, training.warmup_epochs is training.total_epochs // 2,
data.pool_size matches data.n_train, and attack.step_size is
2.5 * budget / max(steps, 1).

The run identity is the first 12 hex digits of the sha256 of the fully
resolved config serialized canonically, so two configs that resolve to
the same settings share a hash regardless of key order or which
defaults were spelled out.
"""

import copy
import hashlib
import json
import sys

from .attack import L2, LINF, AttackConfig
from .data import check_pool_margins
from .errors import ConfigError, ContractError
from .nn import OPTIMIZERS
from .noise import ALL_ROUTES, OPEN_SET, NoiseSpec, _round_half_up
from .pipeline import INSCORR, METHODS, PARTITION_RULES, ExperimentConfig

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


def _one_of(dotted, choices):
    return dotted, lambda v: v in choices, f"be one of {tuple(choices)}"


# what a value must satisfy beyond its type: (dotted key, test, the rule
# as an error states it); a null is skipped, and the default derived for
# it is held to the same rule once it is filled in
_RULES = (
    _one_of("method", METHODS),
    ("model.hidden", lambda v: all(width >= 1 for width in v), "hold widths of at least 1"),
    _one_of("model.optimizer", OPTIMIZERS),
    _one_of("noise.route", ALL_ROUTES),
    _one_of("attack.norm", (LINF, L2)),
    _one_of("training.partition_rule", PARTITION_RULES),
    *((dotted, lambda v: v >= 1, "be at least 1") for dotted in (
        "data.n_train", "data.n_test", "data.height", "data.width", "data.pool_size",
        "noise.resolution_factor", "noise.blur_length", "selection.ramp_epochs",
        "training.batch_size")),
    ("data.num_classes", lambda v: v >= 2, "be at least 2"),
    *((dotted, lambda v: v >= 0, "be non-negative") for dotted in (
        "noise.gaussian_sigma", "noise.fog_decay", "attack.steps", "training.warmup_epochs",
        "training.total_epochs", *(f"seeds.{stream}" for stream in DEFAULT_CONFIG["seeds"]))),
    *((dotted, lambda v: v > 0, "be positive") for dotted in (
        "model.lr", "attack.budget", "attack.step_size")),
    *((dotted, lambda v: 0 <= v <= 1, "lie in [0, 1]") for dotted in (
        "noise.rate", "noise.occlusion_fraction", "noise.fog_intensity", "training.lambda")),
    *((dotted, lambda v: 0 <= v < 1, "lie in [0, 1)") for dotted in (
        "data.val_fraction", "selection.tau")),
)


# rules that tie a key to others, in the same form except that the test
# takes the whole config; checked once every key holds its own rule
_CROSS_RULES = (
    ("training.refresh_correction",
     lambda c: not c["training"]["refresh_correction"] or c["method"] == INSCORR,
     f"be false unless method is {INSCORR}"),
    ("training.warmup_epochs",
     lambda c: c["training"]["warmup_epochs"] <= c["training"]["total_epochs"],
     "not exceed training.total_epochs"),
    ("data.val_fraction",
     lambda c: _round_half_up(c["data"]["val_fraction"] * c["data"]["n_train"])
     < c["data"]["n_train"],
     "leave at least one of data.n_train for training"),
    # a null pool matches n_train, which always holds round(rate * n_train)
    ("data.pool_size",
     lambda c: c["noise"]["route"] != OPEN_SET
     or c["data"]["pool_size"] >= _round_half_up(c["noise"]["rate"] * c["data"]["n_train"]),
     f"be at least round(noise.rate * data.n_train) on the {OPEN_SET} route"),
)


def _check_rules(cfg):
    for rules, whole in ((_RULES, False), (_CROSS_RULES, True)):
        for dotted, test, rule in rules:
            *section, key = dotted.split(".")
            value = (cfg[section[0]] if section else cfg)[key]
            if value is not None and not test(cfg if whole else value):
                raise ConfigError(f"{dotted} must {rule}, got {value!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int64(value):
    return _is_int(value) and -2**63 <= value < 2**63


def _expected(value, default, dotted):
    """What value should have been, or None if it may stand for default."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        if dotted.startswith("seeds."):
            # a seed only feeds numpy's seed sequence, which takes any size
            return None if _is_int(value) else "an integer"
        return None if _is_int64(value) else "an integer that fits in 64 bits"
    if isinstance(default, float):
        if not (_is_int(value) or isinstance(value, float)):
            return "a number"
        # false for inf, NaN and an integer past the float range
        return None if abs(value) <= sys.float_info.max else "a finite number"
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    ok = isinstance(value, (list, tuple)) and all(_is_int64(v) for v in value)
    return None if ok else "a list of integers that fit in 64 bits"


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
        expected = _expected(value, default, dotted)
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
    """base overlaid with user, recursing only where base holds a section;
    a section given for a value replaces it, for _check_types to reject."""
    out = copy.deepcopy(base)
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            out[key] = deep_merge(base[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None):
    """Defaults overlaid with the JSON file at path, if given."""
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        user = json.loads(text)
    except ValueError as exc:  # not JSON, or an integer past the digit limit
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
        except ValueError:  # not JSON, or an integer past the digit limit
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
    runnable = to_experiment_config(cfg)
    out = copy.deepcopy(cfg)
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


def _check_config(cfg):
    """ConfigError naming the first key that is unknown, missing, of the
    wrong type or out of range, alone or against the keys it is tied to."""
    _check_keys(cfg, DEFAULT_CONFIG)
    _check_types(cfg)
    _check_rules(cfg)
    if cfg["noise"]["route"] == OPEN_SET:
        classes = cfg["data"]["num_classes"]
        try:
            check_pool_margins(classes)
        except ContractError as exc:
            raise ConfigError(
                f"data.num_classes={classes} leaves no room for the open_set pool: {exc}"
            ) from exc


def to_experiment_config(resolved):
    """Build the runnable config, once _check_config passes it.

    Each key fills the dataclass field of its name, except noise.route,
    noise.rate, training.lambda and seeds.<stream> (seed_<stream>).
    """
    _check_config(resolved)
    noise = dict(resolved["noise"])
    training = dict(resolved["training"])
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
