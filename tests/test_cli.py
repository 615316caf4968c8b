"""CLI verbs end to end on very small experiments."""

import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from inscorr import acceptance, artifacts, cli, pipeline
from inscorr.cli import main
from inscorr.config import (
    _KEYS,
    DEFAULT_CONFIG,
    _locate,
    apply_overrides,
    config_hash,
    load_config,
    resolve_config,
    to_experiment_config,
)
from inscorr.data import Provenance, load_dataset
from inscorr.errors import ConfigError
from inscorr.nn import load_checkpoint
from inscorr.pipeline import evaluate, prepare_data
from inscorr.sweep import sweep

from helpers import JSON_VALUES

TINY = {
    "data": {"n_train": 120, "n_test": 60},
    "training": {"total_epochs": 4, "warmup_epochs": 2, "batch_size": 32},
    "attack": {"steps": 3},
}


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run_artifacts(root):
    run_dirs = [p for p in root.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    return run_dirs[0]


def test_run_writes_all_artifacts(tmp_path, tiny_cfg, capsys):
    root = tmp_path / "runs"
    code = main(["run", "--config", tiny_cfg, "--output-root", str(root)])
    assert code == 0
    run_dir = run_artifacts(root)
    for name in ("metrics.jsonl", "metrics.csv", "summary.json",
                 "model.ckpt", "manifest.json"):
        assert (run_dir / name).exists(), name
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["epochs"] == 4
    assert summary["config_hash"] == run_dir.name
    line = capsys.readouterr().out
    assert run_dir.name in line and "last10=" in line


def test_a_reloaded_checkpoint_scores_the_last_test_accuracy(tmp_path, tiny_cfg):
    # model.ckpt holds the run's float32 parameters exactly, so the reloaded
    # model is the one the last epoch evaluated
    root = tmp_path / "runs"
    assert main(["run", "--config", tiny_cfg, "--output-root", str(root)]) == 0
    run_dir = run_artifacts(root)
    model, opt = load_checkpoint(run_dir / "model.ckpt")
    assert model.flat.dtype == opt._m.dtype == opt._v.dtype == np.float32
    last = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
    resolved = json.loads((run_dir / "manifest.json").read_text())["config"]
    test = prepare_data(to_experiment_config(resolved))[2]
    assert evaluate(model, test) == last["test_accuracy"]


def test_run_twice_is_byte_identical(tmp_path, tiny_cfg):
    root_a, root_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", tiny_cfg, "--output-root", str(root_a)]) == 0
    assert main(["run", "--config", tiny_cfg, "--output-root", str(root_b)]) == 0
    dir_a, dir_b = run_artifacts(root_a), run_artifacts(root_b)
    assert dir_a.name == dir_b.name
    for name in ("metrics.jsonl", "metrics.csv", "summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_run_without_validation_rows_leaves_val_accuracy_empty(tmp_path, tiny_cfg):
    # no row to score is no accuracy: null in JSON, an empty CSV cell
    root = tmp_path / "runs"
    assert main(["run", "--config", tiny_cfg, "--set", "data.val_fraction=0",
                 "--output-root", str(root)]) == 0
    run_dir = run_artifacts(root)
    records = [json.loads(line) for line in
               (run_dir / "metrics.jsonl").read_text().splitlines()]
    rows = list(csv.DictReader((run_dir / "metrics.csv").open()))
    assert len(records) == len(rows) == 4
    assert all(r["val_accuracy"] is None for r in records)
    assert all(r["val_accuracy"] == "" for r in rows)
    assert all(r["test_accuracy"] is not None for r in records)


# a key never defined, and retired ones: the attack's random start, the
# correction's per-epoch refresh and a corruption severity
@pytest.mark.parametrize("override", ["model.depth=3", "attack.random_start=false",
                                      "training.refresh_correction=true",
                                      "noise.fog_intensity=0.5"])
def test_run_rejects_unknown_override(tmp_path, tiny_cfg, capsys, override):
    code = main(["run", "--config", tiny_cfg, "--set", override,
                 "--output-root", str(tmp_path / "runs")])
    assert code == 1
    key = override.split("=")[0]
    assert f"unknown config key: {key}" in capsys.readouterr().err


def test_run_rejects_ill_typed_override_by_key(tmp_path, capsys):
    code = main(["run", "--set", 'training.total_epochs="abc"',
                 "--output-root", str(tmp_path / "runs")])
    assert code == 1
    err = capsys.readouterr().err
    assert "training.total_epochs" in err and "integer" in err
    assert not (tmp_path / "runs").exists()


def test_failed_run_leaves_no_run_directory(tmp_path, tiny_cfg, capsys):
    root = tmp_path / "runs"
    code = main(["run", "--config", tiny_cfg, "--set", "noise.route=bogus",
                 "--output-root", str(root)])
    assert code == 1
    assert "bogus" in capsys.readouterr().err
    assert not root.exists()


@pytest.mark.parametrize("dotted", [dotted for dotted, _, _ in _KEYS])
# one output root serves every example, so an example that leaves anything
# behind also fails the ones after it
@settings(max_examples=10, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=JSON_VALUES)
def test_a_value_that_fails_to_resolve_fails_its_run_by_key(tmp_path, tiny_cfg, capsys,
                                                            dotted, value):
    cfg = load_config(tiny_cfg)
    node, key = _locate(cfg, dotted)
    node[key] = value
    try:
        resolve_config(cfg)
    except ConfigError:
        pass
    else:
        assume(False)
    capsys.readouterr()
    root = tmp_path / "runs"
    assert main(["run", "--config", tiny_cfg, "--set", f"{dotted}={json.dumps(value)}",
                 "--output-root", str(root)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error:") and dotted in last, last
    assert not root.exists()


def test_a_run_that_diverges_leaves_nothing_behind(tmp_path, tiny_cfg, capsys):
    # the config resolves, so the run fails while it trains
    overrides = ["noise.route=fog", "model.lr=1e30"]
    resolve_config(apply_overrides(load_config(tiny_cfg), overrides))
    root = tmp_path / "runs"
    argv = ["run", "--config", tiny_cfg, "--output-root", str(root)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, *(a for o in overrides for a in ("--set", o))]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not root.exists() or list(root.iterdir()) == []


def test_failed_write_leaves_no_run_directory(tmp_path, tiny_cfg, monkeypatch, capsys):
    def broken_save(path, *args, **kwargs):
        path.write_bytes(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(artifacts, "save_checkpoint", broken_save)
    root = tmp_path / "runs"
    # an OSError that escapes a verb is one error line, not a traceback
    assert main(["run", "--config", tiny_cfg, "--output-root", str(root)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert list(root.iterdir()) == []


@pytest.mark.parametrize("argv,name", [
    (["run", "--output-root", "FILE"], "--output-root"),
    (["run", "--output-root", "FILE/below"], "--output-root"),
    (["run"], artifacts.ENV_OUTPUT_ROOT),
    (["campaign", "--routes", "gaussian", "--rates", "0.4", "--methods", "SelectionOnly",
      "--seeds", "0", "--output-root", "FILE"], "--output-root"),
    (["ablate", "--weights", "0.1", "--seeds", "0", "--output-root", "FILE/below"],
     "--output-root"),
    (["make-data", "--out", "FILE"], "--out"),
    (["make-data", "--out", "FILE/below"], "--out"),
], ids=["run", "run-below", "run-env", "campaign", "ablate-below", "make-data",
        "make-data-below"])
def test_an_output_path_at_or_below_a_file_fails_before_any_work(
        tmp_path, tiny_cfg, monkeypatch, capsys, argv, name):
    file = tmp_path / "file"
    file.write_text("not a directory")
    if name == artifacts.ENV_OUTPUT_ROOT:
        monkeypatch.setenv(name, str(file))
    else:
        monkeypatch.delenv(artifacts.ENV_OUTPUT_ROOT, raising=False)
    calls = []

    def counted(cfg, real=pipeline.prepare_data):
        calls.append(cfg)
        return real(cfg)

    # pipeline's global, and the name cli bound to it
    for module in (pipeline, cli):
        monkeypatch.setattr(module, "prepare_data", counted)
    argv = [arg.replace("FILE", str(file)) for arg in argv]
    assert main([*argv, "--config", tiny_cfg]) == 1
    err = capsys.readouterr().err
    path = argv[-1] if name != artifacts.ENV_OUTPUT_ROOT else str(file)
    assert err == f"error: {name} {path}: {file} is not a directory\n"
    assert "Traceback" not in err
    assert calls == []
    assert sorted(tmp_path.iterdir()) == [file, Path(tiny_cfg)]


def test_seed_override_changes_run_identity(tmp_path, tiny_cfg):
    root = tmp_path / "runs"
    assert main(["run", "--config", tiny_cfg, "--output-root", str(root)]) == 0
    assert main(["run", "--config", tiny_cfg, "--set", "seeds.epochs=5",
                 "--output-root", str(root)]) == 0
    assert len([p for p in root.iterdir() if p.is_dir()]) == 2


def test_make_data_injects_requested_noise(tmp_path, capsys):
    out = tmp_path / "data"
    code = main(["make-data", "--out", str(out), "--set", "data.n_train=100",
                 "--set", "data.n_test=40", "--set", "noise.rate=0.3",
                 "--set", "seeds.data=4"])
    assert code == 0
    train, val, test = (load_dataset(str(out / f"{name}.inscd"))
                        for name in ("train", "val", "test"))
    assert (len(train), len(val), len(test)) == (90, 10, 40)
    noisy = [int((ds.provenance != 0).sum()) for ds in (train, val, test)]
    # 30 of the 100 training rows are out-of-distribution; the test set is clean
    assert noisy[0] + noisy[1] == 30 and noisy[2] == 0
    assert np.all(train.provenance[train.provenance != 0] == Provenance.OPEN_SET)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"wrote {out / name}.inscd ({n} instances, {k} noisy)"
                     for name, n, k in zip(("train", "val", "test"), (90, 10, 40), noisy)]


@pytest.mark.parametrize("route", ["open_set", "fog"])
def test_make_data_writes_the_sets_a_run_trains_on(tmp_path, tiny_cfg, route):
    argv = ["--config", tiny_cfg, "--set", f"noise.route={route}"]
    resolved = resolve_config(apply_overrides(load_config(tiny_cfg), argv[3:]))
    sets = prepare_data(to_experiment_config(resolved))
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["make-data", "--out", str(first), *argv]) == 0
    assert main(["make-data", "--out", str(second), *argv]) == 0
    for name, ds in zip(("train", "val", "test"), sets):
        back = load_dataset(str(first / f"{name}.inscd"))
        for field in ("X", "given_labels", "true_labels", "provenance"):
            assert np.array_equal(getattr(back, field), getattr(ds, field)), (name, field)
        assert (back.num_classes, back.grid_shape) == (ds.num_classes, ds.grid_shape)
        blob = (first / f"{name}.inscd").read_bytes()
        assert (second / f"{name}.inscd").read_bytes() == blob
    assert sorted(p.name for p in first.iterdir()) == ["test.inscd", "train.inscd", "val.inscd"]


@pytest.mark.parametrize("verb", ["run", "make-data"])
@pytest.mark.parametrize("grid", [("data.width=1",)], ids=["one-column"])
def test_motion_blur_along_a_one_pixel_axis_finishes(tmp_path, tiny_cfg, verb, grid):
    # in a child process with a timeout, so that an endless reflect loop
    # fails the test instead of hanging it; the default blur is horizontal,
    # so a one-column grid blurs along its one-pixel axis
    sets = [arg for key in ("noise.route=motion_blur", *grid) for arg in ("--set", key)]
    out = ["--output-root" if verb == "run" else "--out", str(tmp_path / "out")]
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from inscorr.cli import main; sys.exit(main())",
         verb, "--config", tiny_cfg, *sets, *out],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("override", [
    "seeds.data=-1",
    "seeds.noise=-2",
    "data.height=0",
    "data.width=0",
    "data.n_train=0",
    # open_set bars keep 4 to 12 degrees from class angles 22.5 apart
    "data.num_classes=8",
    # a retired key: open_set draws its replacement rows directly
    "data.pool_size=10",
    "attack.budget=0",
])
def test_make_data_rejects_a_bad_config_by_key(tmp_path, capsys, override):
    out = tmp_path / "data"
    assert main(["make-data", "--out", str(out), "--set", override]) == 1
    err = capsys.readouterr().err
    key = override.split("=")[0]
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not out.exists()


@pytest.mark.parametrize("verb", [["make-data", "--out"], ["run", "--output-root"]])
def test_open_set_rate_beyond_a_class_fails_by_key(tmp_path, capsys, verb):
    # the class counts exist only once the data is made, so the config
    # resolves and the failure comes from data preparation
    out = tmp_path / "out"
    argv = [*verb, str(out), "--set", "noise.rate=1", "--set", "selection.tau=0.5",
            "--set", "data.n_train=101"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: noise.rate=1 ") and err.count("\n") == 1
    assert "cannot replace" in err and "Traceback" not in err
    assert not out.exists()


# every key whose value is a float, the two nullable ones included
FLOAT_KEYS = sorted({f"{section}.{key}" for section, values in DEFAULT_CONFIG.items()
                     if isinstance(values, dict)
                     for key, default in values.items() if isinstance(default, float)}
                    | {"selection.tau", "attack.step_size"})
VERBS = [pytest.param(["make-data", "--out"], id="make-data"),
         pytest.param(["run", "--output-root"], id="run")]


def assert_fails_by_name(verb, out, source, name, capsys):
    """verb exits 1 with one error line naming name and writes nothing."""
    assert main([*verb, str(out), *source]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_number_fails_by_key(tmp_path, capsys, verb, text, key):
    section, name = key.split(".")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {name: float(text)}}))
    expected = f"config key {key} must be a finite number, got {float(text)!r}"
    for source in (["--set", f"{key}={text}"], ["--config", str(path)]):
        assert_fails_by_name(verb, tmp_path / "out", source, expected, capsys)


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("key,rule", [
    ("model.lr", "a finite number"),
    ("data.n_train", "an integer that fits in 64 bits"),
    ("data.n_test", "an integer that fits in 64 bits"),
])
def test_a_huge_integer_fails_by_key(tmp_path, capsys, verb, key, rule):
    assert_fails_by_name(verb, tmp_path / "out", ["--set", f"{key}={10**400}"],
                         f"config key {key} must be {rule}, got {10**400}", capsys)


F32_MAX = float(np.finfo(np.float32).max)


# (key, value, the rule it breaks, other overrides it is set beside)
UNHELD_VALUES = [
    # labels are int32, so a larger count would wrap them
    ("data.num_classes", 3_000_000_000, "be at most 2**31", ()),
    # runs train and attack in float32, where these values would be inf
    ("model.lr", 1e300, f"be at most float32's max {F32_MAX}", ()),
    ("attack.budget", 1e39, f"be at most float32's max {F32_MAX}", ()),
    # and where these would be 0, set or derived
    ("model.lr", 1e-320, "not round to 0 in float32", ()),
    ("attack.step_size", 1e-50, "not round to 0 in float32", ()),
    ("attack.budget", 1e-50, "not round to 0 in float32", ("attack.step_size=0.01",)),
    ("attack.budget", 1e-44,
     "keep the derived attack.step_size, 2.5 * budget / max(attack.steps, 1),"
     f" above 0 in float32 and at most float32's max {F32_MAX}", ("attack.steps=1000",)),
]


@pytest.mark.parametrize("verb", VERBS)
# each id spells its other overrides out, where pytest would number them
@pytest.mark.parametrize("key,value,rule,others", UNHELD_VALUES,
                         ids=["-".join(map(str, (k, v, r, *o))) for k, v, r, o in UNHELD_VALUES])
def test_a_value_its_storage_cannot_hold_fails_by_key(tmp_path, capsys, verb, key, value, rule,
                                                      others):
    source = ["--set", "noise.route=fog", "--set", f"{key}={value}"]
    for other in others:
        source += ["--set", other]
    assert_fails_by_name(verb, tmp_path / "out", source, f"{key} must {rule}, got {value}", capsys)


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("name,content,message", [pytest.param(*case, id=case[0]) for case in (
    ("missing", None, "cannot read config file PATH: No such file or directory"),
    ("directory", "dir", "cannot read config file PATH: Is a directory"),
    ("latin1", b'{"method": "Mix\xe9"}', "PATH is not UTF-8 text"),
    # past Python's 4300-digit limit on integer parsing
    ("digits", b'{"seeds": {"data": 1' + b"0" * 5000 + b"}}", "PATH is not valid JSON"),
    ("section", b'{"model": {"lr": {"x": 1}}}',
     "config key model.lr must be a number, got {'x': 1}"),
    # an empty section used to leave the default lr in place
    ("empty_section", b'{"model": {"lr": {}}}', "config key model.lr must be a number, got {}"),
)])
def test_an_unusable_config_file_fails_by_name(tmp_path, capsys, verb, name, content, message):
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert_fails_by_name(verb, tmp_path / "out", ["--config", str(path)],
                         message.replace("PATH", str(path)), capsys)


def readme_commands():
    """The argument lists of every inscorr command in README's sh blocks."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["inscorr"]:
                yield words[1:]


def test_readme_commands_parse(capsys):
    commands = list(readme_commands())
    assert {argv[0] for argv in commands} == {
        "verify", "run", "campaign", "ablate", "make-data"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"inscorr {shlex.join(argv)}: {capsys.readouterr().err}")


def test_ablate_writes_sorted_sweep(tmp_path, tiny_cfg, capsys):
    root = tmp_path / "runs"
    code = main(["ablate", "--config", tiny_cfg, "--output-root", str(root),
                 "--weights", "0.3,0.1", "--seeds", "0",
                 "--set", "training.total_epochs=10"])
    assert code == 0
    sweep_dir = next(root.glob("ablate-*"))
    with open(sweep_dir / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["weight", "lambda", "n_seeds", "n_failed", "mean_acc", "std_acc"]
    # a weight is the discarded term's: lambda = 1 - weight, rows sorted by lambda
    assert [r[:4] for r in rows[1:]] == [["0.3", "0.7", "1", "0"], ["0.1", "0.9", "1", "0"]]
    assert all(0.0 <= float(r[4]) <= 1.0 for r in rows[1:])
    report = json.loads((sweep_dir / "ablation.json").read_text())
    assert sorted(report) == ["cells", "failures", "grid_id"]
    assert sweep_dir.name == f"ablate-{report['grid_id']}"
    # each cell states its weight beside the lambda it ran with
    assert [(r["weight"], r["lambda"]) for r in report["cells"]] == [(0.3, 0.7), (0.1, 0.9)]
    assert report["failures"] == []
    out = capsys.readouterr().out
    assert "weight=0.3 lambda=0.7:" in out
    assert "weight=0.1 lambda=0.9:" in out


def test_default_ablate_splits_and_attacks_once_per_seed(tmp_path, tiny_cfg, monkeypatch):
    # the six weights of a seed differ only in lambda, which acts after the
    # correction, so they share one split and one attack
    calls = []
    for name in ("partition_clean_mislabeled", "correct_set"):
        def counted(*args, real=getattr(pipeline, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    assert main(["ablate", "--config", tiny_cfg, "--output-root", str(tmp_path / "runs"),
                 "--set", "noise.route=fog", "--workers", "1"]) == 0
    assert len(list((tmp_path / "runs").glob("*/summary.json"))) == 18
    assert calls.count("partition_clean_mislabeled") == calls.count("correct_set") == 3


def test_ablate_workers_write_the_report_of_one_worker(tmp_path, tiny_cfg):
    reports = []
    for workers in ("1", "2"):
        root = tmp_path / workers
        assert main(["ablate", "--config", tiny_cfg, "--output-root", str(root),
                     "--weights", "0.1,0.3", "--seeds", "0,1", "--workers", workers]) == 0
        sweep_dir = next(root.glob("ablate-*"))
        reports.append({name: (sweep_dir / name).read_bytes()
                        for name in ("ablation.csv", "ablation.json")})
    assert reports[0] == reports[1]


def test_campaign_grid_summary(tmp_path, tiny_cfg, capsys):
    root = tmp_path / "runs"
    code = main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "gaussian", "--rates", "0.4",
                 "--methods", "SelectionOnly", "--seeds", "0,1"])
    assert code == 0
    campaign_dir = next(root.glob("campaign-*"))
    with open(campaign_dir / "campaign.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["route", "rate", "method", "n_seeds", "n_failed",
                       "mean_acc", "std_acc"]
    assert len(rows) == 2
    assert rows[1][:5] == ["gaussian", "0.4", "SelectionOnly", "2", "0"]
    report = json.loads((campaign_dir / "campaign.json").read_text())
    assert report["failures"] == []
    assert len(report["cells"]) == 1
    # two seeds means two run directories beside the campaign dir
    runs = [p for p in root.iterdir() if p.is_dir() and p != campaign_dir]
    assert len(runs) == 2
    assert "route=gaussian rate=0.4 method=SelectionOnly:" in capsys.readouterr().out


def test_grid_id_hashes_a_runnable_base_resolved(tmp_path, tiny_cfg):
    root = tmp_path / "runs"
    assert main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "gaussian", "--rates", "0.4",
                 "--methods", "SelectionOnly", "--seeds", "0"]) == 0
    grid_id = config_hash({"base": resolve_config(load_config(tiny_cfg)),
                           "routes": ["gaussian"], "rates": [0.4], "seeds": [0],
                           "methods": ["SelectionOnly"]})
    assert (root / f"campaign-{grid_id}" / "campaign.json").is_file()


def test_a_seed_past_int64_feeds_every_stream(tmp_path, tiny_cfg):
    # numpy's seed sequence takes any non-negative integer, so --seeds has no ceiling
    root = tmp_path / "runs"
    assert main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "gaussian", "--rates", "0.4",
                 "--methods", "SelectionOnly", "--seeds", str(2**64)]) == 0
    run_dir = next(p for p in root.iterdir() if not p.name.startswith("campaign-"))
    seeds = json.loads((run_dir / "manifest.json").read_text())["config"]["seeds"]
    assert set(seeds.values()) == {2**64}
    assert load_checkpoint(run_dir / "model.ckpt")[1].step_count > 0


def test_a_base_that_only_its_cells_make_runnable_is_swept(tmp_path, tiny_cfg):
    # the open_set route refuses 8 classes, but no job of this grid runs open_set
    root = tmp_path / "runs"
    assert main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "fog", "--rates", "0.4", "--methods", "SelectionOnly",
                 "--seeds", "0", "--set", "data.num_classes=8"]) == 0
    grid_id = config_hash({"base": apply_overrides(load_config(tiny_cfg),
                                                   ["data.num_classes=8"]),
                           "routes": ["fog"], "rates": [0.4], "seeds": [0],
                           "methods": ["SelectionOnly"]})
    report = json.loads((root / f"campaign-{grid_id}" / "campaign.json").read_text())
    assert report["failures"] == [] and report["cells"][0]["n_failed"] == 0
    # every ablate cell sets lambda, so a base lambda outside [0, 1] never runs
    assert main(["ablate", "--config", tiny_cfg, "--output-root", str(root),
                 "--set", "training.lambda=1.5", "--weights", "0.1", "--seeds", "0"]) == 0


def test_duplicate_campaign_jobs_leave_one_complete_run(tmp_path, tiny_cfg):
    # the CLI refuses a repeated seed, so the campaign's engine is handed
    # one twice: its two workers write the same run directory at once
    root = tmp_path / "runs"
    cells = [{"noise": {"route": "gaussian", "rate": 0.4}, "method": "SelectionOnly"}]
    results, failures = sweep(load_config(tiny_cfg), cells, [0, 0],
                              partial(cli._sweep_job, root=root), workers=2)
    assert failures == [] and results[0].n_failed == 0
    runs = list(root.iterdir())
    assert len(runs) == 1
    run_dir = runs[0]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    listed = manifest["artifacts"]
    assert sorted(p.name for p in run_dir.iterdir()) == sorted([*listed, "manifest.json"])
    for name, meta in listed.items():
        blob = (run_dir / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == meta["sha256"], name
        assert len(blob) == meta["bytes"], name


def test_zero_accuracy_is_reported_not_null(tmp_path, tiny_cfg, monkeypatch):
    # a cell whose runs all scored 0.0 is a real mean, unlike a cell with no runs
    monkeypatch.setattr(
        cli, "write_run",
        lambda resolved, root, cache=None: (root, {"last_ten_mean": 0.0}))
    root = tmp_path / "runs"
    assert main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "gaussian", "--rates", "0.4",
                 "--methods", "SelectionOnly", "--seeds", "0"]) == 0
    report = json.loads(next(root.glob("campaign-*/campaign.json")).read_text())
    assert report["cells"][0]["mean_acc"] == 0.0
    assert report["cells"][0]["std_acc"] == 0.0
    assert main(["ablate", "--config", tiny_cfg, "--output-root", str(root),
                 "--weights", "0.1", "--seeds", "0"]) == 0
    report = json.loads(next(root.glob("ablate-*/ablation.json")).read_text())
    assert report["cells"][0]["mean_acc"] == 0.0
    assert report["cells"][0]["std_acc"] == 0.0


def test_a_cell_of_short_runs_prints_na_and_a_failed_one_failed(tmp_path, tiny_cfg,
                                                                  monkeypatch, capsys):
    # four epochs leave no last-ten mean, yet no run failed
    argv = ["ablate", "--config", tiny_cfg, "--weights", "0.3", "--seeds", "0"]
    assert main([*argv, "--output-root", str(tmp_path / "short")]) == 0
    assert "weight=0.3 lambda=0.7: n/a\n" in capsys.readouterr().out
    report = json.loads(next((tmp_path / "short").glob("ablate-*/ablation.json")).read_text())
    assert report["failures"] == []

    def broken(resolved, root, cache=None):
        raise RuntimeError("run broke")

    monkeypatch.setattr(cli, "write_run", broken)
    assert main([*argv, "--output-root", str(tmp_path / "broken")]) == 1
    assert "weight=0.3 lambda=0.7: failed\n" in capsys.readouterr().out


def test_ablate_counts_a_failed_run_in_its_report(tmp_path, tiny_cfg, monkeypatch):
    def fail_at_lambda_09(resolved, root, cache=None):
        if resolved["training"]["lambda"] == 0.9 and resolved["seeds"]["data"] == 1:
            raise RuntimeError("lambda 0.9 broke")
        return root, {"last_ten_mean": 0.5}

    monkeypatch.setattr(cli, "write_run", fail_at_lambda_09)
    root = tmp_path / "runs"
    assert main(["ablate", "--config", tiny_cfg, "--output-root", str(root),
                 "--weights", "0.1,0.3", "--seeds", "0,1"]) == 1
    sweep_dir = next(root.glob("ablate-*"))
    with open(sweep_dir / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [["0.3", "0.7", "2", "0", "0.5", "0.0"],
                        ["0.1", "0.9", "2", "1", "0.5", "0.0"]]
    report = json.loads((sweep_dir / "ablation.json").read_text())
    assert [c["n_failed"] for c in report["cells"]] == [0, 1]
    assert report["failures"] == [
        {"weight": 0.1, "lambda": 0.9, "seed": 1, "error": "lambda 0.9 broke"}]


def test_campaign_and_ablation_reports_share_one_form(tmp_path, tiny_cfg, monkeypatch):
    monkeypatch.setattr(
        cli, "write_run",
        lambda resolved, root, cache=None: (root, {"last_ten_mean": 0.5}))
    root = tmp_path / "runs"
    assert main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "gaussian", "--rates", "0.4",
                 "--methods", "SelectionOnly", "--seeds", "0"]) == 0
    assert main(["ablate", "--config", tiny_cfg, "--output-root", str(root),
                 "--weights", "0.1", "--seeds", "0"]) == 0
    forms = []
    for stem in ("campaign", "ablation"):
        [csv_path] = root.glob(f"*/{stem}.csv")
        with open(csv_path, newline="") as fh:
            header = next(csv.reader(fh))
        report = json.loads(csv_path.with_suffix(".json").read_text())
        assert csv_path.parent.name.endswith(f"-{report['grid_id']}")
        assert [list(cell) for cell in report["cells"]] == [sorted(header)]
        forms.append((header[-4:], sorted(report)))
    assert forms[0] == forms[1] == (["n_seeds", "n_failed", "mean_acc", "std_acc"],
                                    ["cells", "failures", "grid_id"])


def test_campaign_rejects_unknown_route(tmp_path, capsys):
    code = main(["campaign", "--routes", "sleet",
                 "--output-root", str(tmp_path / "runs")])
    assert code == 1
    assert "noise.route must be one of" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_verify_runs_selected_checks(capsys):
    assert main(["verify", "--only", "schedule,selection"]) == 0
    out = capsys.readouterr().out
    assert "PASS schedule" in out and "PASS selection" in out


def test_verify_rejects_unknown_check(capsys):
    assert main(["verify", "--only", "nonsense"]) == 1
    assert "unknown checks" in capsys.readouterr().err


def test_verify_rejects_an_empty_only_list(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(acceptance, "CHECKS",
                        (("schedule", lambda: ran.append("schedule") or (True, "ran")),))
    assert main(["verify", "--only", ""]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "--only" in err, err
    assert out == "" and ran == []


@pytest.mark.parametrize("argv,flag", [
    (["campaign", "--routes", ""], "--routes"),
    (["campaign", "--rates", ""], "--rates"),
    (["campaign", "--rates", "0.4,high"], "--rates"),
    (["campaign", "--methods", ","], "--methods"),
    (["campaign", "--seeds", ""], "--seeds"),
    (["campaign", "--workers", "0"], "--workers"),
    (["campaign", "--workers", "-1"], "--workers"),
    (["ablate", "--weights", ""], "--weights"),
    (["ablate", "--seeds", ""], "--seeds"),
    (["ablate", "--workers", "0"], "--workers"),
    # a value repeated once parsed would run, print and report its cell twice
    (["campaign", "--seeds", "0,0"], "--seeds lists 0 twice"),
    (["campaign", "--routes", "fog,fog"], "--routes lists 'fog' twice"),
    (["campaign", "--rates", "0.4,0.40"], "--rates lists 0.4 twice"),
    (["campaign", "--methods", "SelectionOnly,Mix,SelectionOnly"],
     "--methods lists 'SelectionOnly' twice"),
    (["ablate", "--weights", "0.1,0.1"], "--weights lists 0.1 twice"),
    (["ablate", "--seeds", "1,2,1"], "--seeds lists 1 twice"),
    # the flag is named, not the training.lambda a weight would set
    (["ablate", "--weights", "1.5"], "--weights must lie in [0, 1], got 1.5"),
    (["ablate", "--weights", "0.1,-0.2"], "--weights must lie in [0, 1], got -0.2"),
    (["ablate", "--weights", "nan"], "--weights must lie in [0, 1], got nan"),
    (["ablate", "--weights", "1.5,0.1"], "--weights must lie in [0, 1], got 1.5"),
    # the flag is named, not the config key its value would fail under
    (["campaign", "--seeds", "-99999999999999999999"],
     "--seeds must lie in [0, inf), got -99999999999999999999"),
    (["campaign", "--seeds", "-1"], "--seeds must lie in [0, inf), got -1"),
    (["campaign", "--rates", "1.5"], "--rates must lie in [0, 1], got 1.5"),
    (["campaign", "--rates", "nan"], "--rates must lie in [0, 1], got nan"),
    (["ablate", "--seeds", "-3"], "--seeds must lie in [0, inf), got -3"),
])
def test_sweeps_reject_bad_grid_flags(tmp_path, tiny_cfg, capsys, argv, flag):
    root = tmp_path / "runs"
    # the rest of the grid is one tiny run, should the flag be let through
    grid = {"campaign": ["--routes", "gaussian", "--rates", "0.4",
                         "--methods", "SelectionOnly"],
            "ablate": ["--weights", "0.1"]}[argv[0]]
    assert main([argv[0], "--config", tiny_cfg, "--output-root", str(root),
                 "--seeds", "0", *grid, *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err, err
    assert "Traceback" not in err
    assert out == "" and not root.exists()


def test_campaign_failures_follow_grid_order(tmp_path, tiny_cfg, monkeypatch):
    # forked workers inherit the patch; the first failing job is the slow one,
    # so it finishes after the second
    def fail_on_seed_zero(resolved, root, cache=None):
        route = resolved["noise"]["route"]
        if resolved["seeds"]["data"] == 0:
            if route == "gaussian":
                time.sleep(1.0)
            raise RuntimeError(f"{route} failed")
        return root, {"last_ten_mean": 0.5}

    monkeypatch.setattr(cli, "write_run", fail_on_seed_zero)
    root = tmp_path / "runs"
    assert main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "gaussian,fog", "--rates", "0.4",
                 "--methods", "SelectionOnly", "--seeds", "0,1",
                 "--workers", "2"]) == 1
    report = json.loads(next(root.glob("campaign-*/campaign.json")).read_text())
    assert [(f["route"], f["seed"], f["error"]) for f in report["failures"]] == [
        ("gaussian", 0, "gaussian failed"), ("fog", 0, "fog failed")]
    assert [(c["n_failed"], c["mean_acc"]) for c in report["cells"]] == [(1, 0.5)] * 2
