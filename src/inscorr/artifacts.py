"""Run directories and their files.

A run writes into <output_root>/<config_hash>/:

  * metrics.jsonl: one JSON object per epoch.
  * metrics.csv: the same records as a csv table.
  * summary.json: config hash, method, final and last-ten accuracy.
  * model.ckpt: final model and optimizer state.
  * manifest.json: resolved config, artifact checksums, wall time.

metrics.* and summary.json contain nothing non-deterministic, so a
repeated run with the same resolved config reproduces them byte for
byte. Wall-clock time lives only in the manifest.

A run directory is complete or absent: write_run fills a temporary
sibling, writes manifest.json last and renames the directory into place.
"""

import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import time
import uuid
from pathlib import Path

from .config import config_hash, to_experiment_config
from .nn import save_checkpoint
from .pipeline import EpochMetrics, last_ten_summary, run_experiment

METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(EpochMetrics))

ENV_OUTPUT_ROOT = "INSCORR_OUTPUT_ROOT"


def output_root(explicit=None):
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(ENV_OUTPUT_ROOT, "runs"))


def metrics_jsonl_bytes(metrics):
    lines = []
    for m in metrics:
        record = {f: getattr(m, f) for f in METRIC_FIELDS}
        lines.append(json.dumps(record, sort_keys=True))
    return ("".join(line + "\n" for line in lines)).encode("utf-8")


def metrics_csv_bytes(metrics):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRIC_FIELDS)
    for m in metrics:
        writer.writerow(
            "" if (v := getattr(m, f)) is None else v for f in METRIC_FIELDS
        )
    return buf.getvalue().encode("utf-8")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def write_run(resolved, root, cache=None):
    """Execute the resolved config and persist its artifacts.

    Returns (run_dir, summary dict). The run directory is keyed by the
    config hash; rerunning replaces it. Nothing is left under root when
    the run or a write fails. cache goes to run_experiment; the manifest's
    wall_seconds counts only the phases the run computed, data generation
    included, not those it took from the cache.
    """
    digest = config_hash(resolved)
    run_dir = Path(root) / digest

    cfg = to_experiment_config(resolved)
    started = time.perf_counter()
    result = run_experiment(cfg, cache=cache)
    wall = time.perf_counter() - started

    files = {
        "metrics.jsonl": metrics_jsonl_bytes(result.metrics),
        "metrics.csv": metrics_csv_bytes(result.metrics),
    }
    summary = {
        "config_hash": digest,
        "method": resolved["method"],
        "epochs": len(result.metrics),
        "final_test_accuracy": (
            result.metrics[-1].test_accuracy if result.metrics else None
        ),
        "last_ten_mean": None,
        "last_ten_std": None,
    }
    if len(result.metrics) >= 10:
        summary["last_ten_mean"], summary["last_ten_std"] = last_ten_summary(
            result.metrics
        )
    files["summary.json"] = (
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    ).encode("utf-8")

    run_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp_dir = _unique_sibling(run_dir, "tmp")
    tmp_dir.mkdir()
    try:
        for name, blob in files.items():
            (tmp_dir / name).write_bytes(blob)
        files["model.ckpt"] = save_checkpoint(
            tmp_dir / "model.ckpt", result.model, result.optimizer
        )

        manifest = {
            "config_hash": digest,
            "config": resolved,
            "artifacts": {
                name: {"sha256": _sha256(blob), "bytes": len(blob)}
                for name, blob in sorted(files.items())
            },
            "wall_seconds": wall,
        }
        (tmp_dir / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        _move_into_place(tmp_dir, run_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return run_dir, summary


def _unique_sibling(path, tag):
    return path.with_name(f".{path.name}.{uuid.uuid4().hex}.{tag}")


def _move_into_place(src, dst):
    """Rename the directory src to dst, replacing a directory already there.

    Two writers of the same run may race here; each retries until its own
    rename lands, so dst ends up as one writer's complete directory.
    """
    while True:
        try:
            os.rename(src, dst)
            return
        except OSError as error:
            if error.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                raise
        old = _unique_sibling(dst, "old")
        try:
            os.rename(dst, old)
        except FileNotFoundError:
            continue  # another writer moved it first
        shutil.rmtree(old, ignore_errors=True)
