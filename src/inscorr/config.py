"""JSON experiment configs: defaults, validation, overrides, hashing.

A config is a nested dict with the sections and keys of _KEYS. Each key
fills the field of the runnable dataclasses (ExperimentConfig, NoiseSpec
and AttackConfig) that _KEYS names, and the field's default is the key's:
the dataclasses state every default once, and DEFAULT_CONFIG is built
from them. Unknown keys are rejected by their dotted path, and so is a
value whose type differs from its field's (an integer may stand for a
float; a number that stands for a float must be finite; an integer must
fit in 64 bits unless it is a seed) or that breaks a rule of _RULES,
alone or, in _CROSS_RULES, against the keys it is tied to (an image
size, a count of image rows or a layer width must leave its arrays small
enough for numpy to make).
This module is the only place that states a value's allowed range:
to_experiment_config checks every key before it builds the runnable
dataclasses, which trust their fields and only derive defaults.

A null value means "derive the default", and is allowed where the
field's default is None; the dataclasses derive these: selection.tau
follows noise.rate, training.warmup_epochs is training.total_epochs // 2,
and attack.step_size is 2.5 * budget / max(steps, 1). resolve_config
reads each back from the runnable config.

The run identity is the first 12 hex digits of the sha256 of the fully
resolved config serialized canonically, so two configs that resolve to
the same settings share a hash regardless of key order or which
defaults were spelled out.
"""

import copy
import hashlib
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .attack import L2, LINF, AttackConfig
from .data import check_pool_margins, round_half_up
from .errors import ConfigError, ContractError
from .nn import OPTIMIZERS
from .noise import ALL_ROUTES, OPEN_SET, NoiseSpec
from .pipeline import INSCORR, METHODS, PARTITION_RULES, ExperimentConfig

# every config key, in the order DEFAULT_CONFIG takes: (dotted key, the
# dataclass it fills, the field it fills); the field's default is the key's
_KEYS = (
    ("method", ExperimentConfig, "method"),
    *((f"model.{name}", ExperimentConfig, name) for name in ("hidden", "optimizer", "lr")),
    *((f"data.{name}", ExperimentConfig, name) for name in (
        "n_train", "n_test", "num_classes", "height", "width", "val_fraction")),
    ("noise.route", ExperimentConfig, "noise_route"),
    ("noise.rate", ExperimentConfig, "noise_rate"),
    *((f"noise.{f.name}", NoiseSpec, f.name) for f in fields(NoiseSpec)),
    *((f"selection.{name}", ExperimentConfig, name) for name in ("tau", "ramp_epochs")),
    *((f"attack.{f.name}", AttackConfig, f.name) for f in fields(AttackConfig)),
    ("training.lambda", ExperimentConfig, "lam"),
    *((f"training.{name}", ExperimentConfig, name) for name in (
        "warmup_epochs", "total_epochs", "batch_size", "refresh_correction", "partition_rule")),
    *((f"seeds.{stream}", ExperimentConfig, f"seed_{stream}")
      for stream in ("data", "noise", "init", "epochs")),
)

# each key's dataclasses.Field, which holds the key's default and type
_FIELDS = {dotted: next(f for f in fields(cls) if f.name == name)
           for dotted, cls, name in _KEYS}

# the largest learning rate or attack step that float32, the dtype runs
# train and attack in, holds without an inf (0 * inf is NaN)
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _locate(cfg, dotted):
    """The dict of cfg that holds dotted's value, and its key there."""
    *section, key = dotted.split(".")
    return (cfg[section[0]] if section else cfg), key


def _defaults():
    """Each key's field default, a tuple as a list, as JSON holds it."""
    out = {}
    for dotted, field in _FIELDS.items():
        *section, key = dotted.split(".")
        node = out.setdefault(section[0], {}) if section else out
        node[key] = list(field.default) if isinstance(field.default, tuple) else field.default
    return out


DEFAULT_CONFIG = _defaults()


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
        "data.n_train", "data.n_test", "data.height", "data.width",
        "noise.resolution_factor", "noise.blur_length", "selection.ramp_epochs",
        "training.batch_size")),
    ("data.num_classes", lambda v: v >= 2, "be at least 2"),
    # labels are int32
    ("data.num_classes", lambda v: v <= 2**31, "be at most 2**31"),
    *((dotted, lambda v: v >= 0, "be non-negative") for dotted in (
        "noise.gaussian_sigma", "noise.fog_decay", "attack.steps", "training.warmup_epochs",
        "training.total_epochs", *(f"seeds.{stream}" for stream in DEFAULT_CONFIG["seeds"]))),
    *((dotted, lambda v: v > 0, "be positive") for dotted in (
        "model.lr", "attack.budget", "attack.step_size")),
    *((dotted, lambda v: v <= _FLOAT32_MAX, f"be at most float32's max {_FLOAT32_MAX}")
      for dotted in ("model.lr", "attack.step_size")),
    *((dotted, lambda v: 0 <= v <= 1, "lie in [0, 1]") for dotted in (
        "noise.rate", "noise.occlusion_fraction", "noise.fog_intensity", "training.lambda")),
    ("data.val_fraction", lambda v: 0 <= v < 1, "lie in [0, 1)"),
    ("selection.tau", lambda v: 0 <= v < 1,
     "lie in [0, 1) (a null selection.tau takes noise.rate)"),
)


def _fits_arrays(dotted, keys):
    """The rule that float64 arrays of the product of data.<keys> values
    stay under numpy's limit of 2**63 bytes an array."""
    product = " x ".join(f"data.{key}" for key in keys)
    return (dotted,
            lambda c: math.prod(c["data"][key] for key in keys) * 8 < 2**63,
            f"keep its arrays under 2**63 bytes ({product} x 8)")


def _fits_model(c):
    """Whether the float64 parameter vector model.hidden makes, and each
    hidden layer's outputs over the larger data set, stay under 2**63 bytes."""
    data, hidden = c["data"], c["model"]["hidden"]
    dims = (data["height"] * data["width"], *hidden, data["num_classes"])
    params = sum((n_in + 1) * n_out for n_in, n_out in zip(dims, dims[1:]))
    outputs = max(data["n_train"], data["n_test"]) * max(hidden, default=0)
    return max(params, outputs) * 8 < 2**63


# rules that tie a key to others, in the same form except that the test
# takes the whole config; checked once every key holds its own rule. A
# grid dimension comes before the row counts it multiplies, so that the
# key named is the one that is too large
_CROSS_RULES = (
    # a column of data.height pixels, then one image of them
    _fits_arrays("data.height", ("height",)),
    _fits_arrays("data.width", ("height", "width")),
    *(_fits_arrays(f"data.{key}", (key, "height", "width")) for key in ("n_train", "n_test")),
    ("model.hidden", _fits_model,
     "keep its parameters, and its layer outputs over data.n_train or data.n_test rows,"
     " under 2**63 bytes at 8 bytes a value"),
    ("attack.budget",
     lambda c: c["attack"]["step_size"] is not None
     or 0 < 2.5 * c["attack"]["budget"] / max(c["attack"]["steps"], 1) <= _FLOAT32_MAX,
     "keep the derived attack.step_size, 2.5 * budget / max(attack.steps, 1),"
     f" above 0 and at most float32's max {_FLOAT32_MAX}"),
    ("training.refresh_correction",
     lambda c: not c["training"]["refresh_correction"] or c["method"] == INSCORR,
     f"be false unless method is {INSCORR}"),
    ("training.warmup_epochs",
     lambda c: c["training"]["warmup_epochs"] <= c["training"]["total_epochs"],
     "not exceed training.total_epochs"),
    ("data.val_fraction",
     lambda c: round_half_up(c["data"]["val_fraction"] * c["data"]["n_train"])
     < c["data"]["n_train"],
     "leave at least one of data.n_train for training"),
)


def _check_rules(cfg):
    for rules, whole in ((_RULES, False), (_CROSS_RULES, True)):
        for dotted, test, rule in rules:
            node, key = _locate(cfg, dotted)
            value = node[key]
            if value is not None and not test(cfg if whole else value):
                raise ConfigError(f"{dotted} must {rule}, got {value!r}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int64(value):
    return _is_int(value) and -2**63 <= value < 2**63


def _expected(value, kind, dotted):
    """What value should have been, or None if it may fill a field of type kind."""
    if kind is bool:
        return None if isinstance(value, bool) else "true or false"
    if kind is int:
        if dotted.startswith("seeds."):
            # a seed only feeds numpy's seed sequence, which takes any size
            return None if _is_int(value) else "an integer"
        return None if _is_int64(value) else "an integer that fits in 64 bits"
    if kind is float:
        if not (_is_int(value) or isinstance(value, float)):
            return "a number"
        # false for inf, NaN and an integer past the float range
        return None if abs(value) <= sys.float_info.max else "a finite number"
    if kind is str:
        return None if isinstance(value, str) else "a string"
    ok = isinstance(value, (list, tuple)) and all(_is_int64(v) for v in value)
    return None if ok else "a list of integers that fit in 64 bits"


def _check_types(cfg):
    """Every key is present, and holds its field's type or, where the
    field's default is None, null."""
    for dotted, field in _FIELDS.items():
        *section, key = dotted.split(".")
        node = cfg.get(section[0], {}) if section else cfg
        if key not in node:
            raise ConfigError(f"missing config key: {dotted}")
        value = node[key]
        if value is None and field.default is None:
            continue
        expected = _expected(value, field.type, dotted)
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
        if dotted not in _FIELDS:
            raise ConfigError(f"unknown config key: {dotted}")
        node, key = _locate(cfg, dotted)
        node[key] = value
    return cfg


def resolve_config(cfg):
    """Fill every derived default in; the result has no nulls left.

    The derived values are read back from the runnable config that
    to_experiment_config builds, so each formula lives in its dataclass
    and a config that cannot run fails here, with a ConfigError.
    """
    runnable = to_experiment_config(cfg)
    parts = {ExperimentConfig: runnable, NoiseSpec: runnable.noise_spec,
             AttackConfig: runnable.attack}
    out = copy.deepcopy(cfg)
    for dotted, cls, name in _KEYS:
        node, key = _locate(out, dotted)
        if node[key] is None:
            node[key] = getattr(parts[cls], name)
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
                f"data.num_classes={classes} leaves no room for the open_set bars: {exc}"
            ) from exc


def to_experiment_config(resolved):
    """Build the runnable config, once _check_config passes it; each key
    fills the dataclass field that _KEYS names."""
    _check_config(resolved)
    values = {ExperimentConfig: {}, NoiseSpec: {}, AttackConfig: {}}
    for dotted, cls, name in _KEYS:
        node, key = _locate(resolved, dotted)
        values[cls][name] = node[key]
    return ExperimentConfig(**values[ExperimentConfig],
                            noise_spec=NoiseSpec(**values[NoiseSpec]),
                            attack=AttackConfig(**values[AttackConfig]))
