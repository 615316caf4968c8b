"""CLI verbs end to end on very small experiments."""

import csv
import hashlib
import json

import numpy as np
import pytest

from inscorr import artifacts, cli
from inscorr.cli import main
from inscorr.data import NO_LABEL, load_dataset

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
    out = tmp_path / "data" / "train.bin"
    code = main(["make-data", "--out", str(out), "--n", "100",
                 "--route", "open_set", "--rate", "0.3", "--seed", "4"])
    assert code == 0
    ds = load_dataset(str(out))
    assert len(ds) == 100
    assert int((ds.provenance != 0).sum()) == 30
    assert "30 noisy" in capsys.readouterr().out


def test_make_data_ood_pool(tmp_path):
    out = tmp_path / "pool.bin"
    assert main(["make-data", "--out", str(out), "--n", "50", "--ood"]) == 0
    pool = load_dataset(str(out))
    assert np.all(pool.given_labels == NO_LABEL)
    assert pool.num_classes == 0


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
    monkeypatch.setattr(cli, "write_run",
                        lambda resolved, root: (root, {"last_ten_mean": 0.0}))
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
    assert "unknown route" in capsys.readouterr().err


def test_verify_runs_selected_checks(capsys):
    assert main(["verify", "--only", "schedule,selection"]) == 0
    out = capsys.readouterr().out
    assert "PASS schedule" in out and "PASS selection" in out


def test_verify_rejects_unknown_check(capsys):
    assert main(["verify", "--only", "nonsense"]) == 1
    assert "unknown checks" in capsys.readouterr().err
