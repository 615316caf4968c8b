"""CLI verbs end to end on very small experiments."""

import csv
import hashlib
import json
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from inscorr import artifacts, cli
from inscorr.cli import main
from inscorr.config import (
    DEFAULT_CONFIG,
    apply_overrides,
    config_hash,
    load_config,
    resolve_config,
    to_experiment_config,
)
from inscorr.data import Provenance, load_dataset
from inscorr.pipeline import prepare_data

TINY = {
    "data": {"n_train": 120, "n_test": 60, "pool_size": 120},
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


def test_run_twice_is_byte_identical(tmp_path, tiny_cfg):
    root_a, root_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", tiny_cfg, "--output-root", str(root_a)]) == 0
    assert main(["run", "--config", tiny_cfg, "--output-root", str(root_b)]) == 0
    dir_a, dir_b = run_artifacts(root_a), run_artifacts(root_b)
    assert dir_a.name == dir_b.name
    for name in ("metrics.jsonl", "metrics.csv", "summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_run_rejects_unknown_override(tmp_path, capsys):
    code = main(["run", "--set", "model.depth=3",
                 "--output-root", str(tmp_path / "runs")])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


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


def test_failed_write_leaves_no_run_directory(tmp_path, tiny_cfg, monkeypatch):
    def broken_save(path, *args, **kwargs):
        path.write_bytes(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(artifacts, "save_checkpoint", broken_save)
    root = tmp_path / "runs"
    with pytest.raises(OSError, match="disk full"):
        main(["run", "--config", tiny_cfg, "--output-root", str(root)])
    assert list(root.iterdir()) == []


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
    # 30 of the 100 training rows come from the pool; the test set is clean
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


@pytest.mark.parametrize("override", [
    "seeds.data=-1",
    "seeds.noise=-2",
    "data.height=0",
    "data.width=0",
    "data.n_train=0",
    # the open_set pool keeps 4 to 12 degrees from class angles 22.5 apart
    "data.num_classes=8",
    # 800 of the 2000 training rows are replaced from the pool
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
    assert rows[0] == ["weight", "lambda", "mean_acc", "std_acc"]
    # discarded interpretation: lambda = 1 - weight, rows sorted by lambda
    assert [r[:2] for r in rows[1:]] == [["0.3", "0.7"], ["0.1", "0.9"]]
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])
    report = json.loads((sweep_dir / "ablation.json").read_text())
    assert report["interpretation"] == "discarded"
    assert [(r["weight"], r["lambda"]) for r in report["rows"]] == [(0.3, 0.7), (0.1, 0.9)]
    assert report["failures"] == []
    out = capsys.readouterr().out
    assert "corrected-term" in out
    assert "weight=0.3 lambda=0.7:" in out


def test_ablate_interpretations_weight_opposite_terms(tmp_path, tiny_cfg):
    # weight 0.1 maps to lambda 0.9 under 'discarded' but 0.1 under 'clean',
    # so the two sweeps execute runs with different config hashes
    root_a, root_b = tmp_path / "a", tmp_path / "b"
    for root, interp in ((root_a, "discarded"), (root_b, "clean")):
        assert main(["ablate", "--config", tiny_cfg, "--output-root", str(root),
                     "--weights", "0.1", "--seeds", "0",
                     "--interpretation", interp]) == 0
    runs_a = {p.name for p in root_a.iterdir() if not p.name.startswith("ablate-")}
    runs_b = {p.name for p in root_b.iterdir() if not p.name.startswith("ablate-")}
    assert runs_a.isdisjoint(runs_b)


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
    assert "gaussian rate=0.4 SelectionOnly:" in capsys.readouterr().out


def test_grid_id_hashes_a_runnable_base_resolved(tmp_path, tiny_cfg):
    root = tmp_path / "runs"
    assert main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "gaussian", "--rates", "0.4",
                 "--methods", "SelectionOnly", "--seeds", "0"]) == 0
    grid_id = config_hash({"base": resolve_config(load_config(tiny_cfg)),
                           "routes": ["gaussian"], "rates": [0.4], "seeds": [0],
                           "methods": ["SelectionOnly"]})
    assert (root / f"campaign-{grid_id}" / "campaign.json").is_file()


def test_a_base_that_only_its_cells_make_runnable_is_swept(tmp_path, tiny_cfg):
    # the open_set pool refuses 8 classes, but no job of this grid runs open_set
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
    root = tmp_path / "runs"
    assert main(["campaign", "--config", tiny_cfg, "--output-root", str(root),
                 "--routes", "gaussian", "--rates", "0.4",
                 "--methods", "SelectionOnly", "--seeds", "0,0",
                 "--workers", "2"]) == 0
    runs = [p for p in root.iterdir() if not p.name.startswith("campaign-")]
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
        lambda resolved, root, data=None, prefix=None: (root, {"last_ten_mean": 0.0}))
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
    assert report["rows"][0]["mean_acc"] == 0.0
    assert report["rows"][0]["std_acc"] == 0.0


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
])
def test_sweeps_reject_bad_grid_flags(tmp_path, tiny_cfg, capsys, argv, flag):
    root = tmp_path / "runs"
    # the rest of the grid is one tiny run, should the flag be let through
    grid = {"campaign": ["--routes", "gaussian", "--rates", "0.4",
                         "--methods", "SelectionOnly"],
            "ablate": ["--weights", "0.1"]}[argv[0]]
    assert main([argv[0], "--config", tiny_cfg, "--output-root", str(root),
                 "--seeds", "0", *grid, *argv[1:]]) == 1
    assert flag in capsys.readouterr().err
    assert not root.exists()


def test_campaign_failures_follow_grid_order(tmp_path, tiny_cfg, monkeypatch):
    # forked workers inherit the patch; the first failing job is the slow one,
    # so it finishes after the second
    def fail_on_seed_zero(resolved, root, data=None, prefix=None):
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
