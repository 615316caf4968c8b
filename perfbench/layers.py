"""Per-layer tracing of inscorr from outside the package.

Tracer.install() replaces each layer's entry points, as the pipeline,
artifacts and cli modules look them up, with wrappers that record a span
(name, parent span, start, end) and the counts the call's arguments and
result carry. Nothing under src/ changes: the wrappers live here and are
removed again by uninstall(). Spans stay in memory; self times are derived
from them per iteration by benchstats.self_times.

Campaign cells run in forked pool workers, which inherit the installed
wrappers. Each worker writes its per-cell aggregate to a JSON file in the
tracer's export directory when write_run returns, and the parent merges
those files into the iteration (merge_exports).

Bookkeeping done after a call returns (counting rows, checking budgets)
falls in the caller's self time; it is part of the tracing overhead that
the traced run reports.
"""

import inspect
import json
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

from benchstats import partition_counts, ratio, self_times

BUDGET_SLACK = 1e-9

# (name, unit, better, exact). Exact metrics are counts or ratios of counts;
# they must repeat bit for bit across repetitions of one workload and seed.
PER_LAYER = (
    ("data.gen_s", "s", "lower", False),
    ("data.gen_calls", "count", "lower", True),
    ("data.rows_generated", "count", "lower", True),
    ("noise.apply_s", "s", "lower", False),
    ("noise.rows_touched", "count", "lower", True),
    ("select.epoch_s", "s", "lower", False),
    ("select.batches", "count", "lower", True),
    ("select.kept_frac", "ratio", "higher", True),
    ("select.precision", "ratio", "higher", True),
    ("pipeline.partition_s", "s", "lower", False),
    ("pipeline.partition_precision", "ratio", "higher", True),
    ("pipeline.partition_recall", "ratio", "higher", True),
    ("pipeline.mixed_loss_s", "s", "lower", False),
    ("pipeline.mixed_loss_calls", "count", "lower", True),
    ("pipeline.eval_s", "s", "lower", False),
    ("pipeline.eval_calls", "count", "lower", True),
    ("pipeline.run_s", "s", "lower", False),
    ("attack.correct_s", "s", "lower", False),
    ("attack.correct_incl_s", "s", "lower", False),
    ("attack.rows", "count", "lower", True),
    ("attack.grad_evals", "count", "lower", True),
    ("attack.rows_per_s", "1/s", "higher", False),
    ("attack.success_rate", "ratio", "higher", True),
    ("attack.errors", "count", "lower", True),
    ("nn.forward_s", "s", "lower", False),
    ("nn.forward_calls", "count", "lower", True),
    ("nn.per_example_losses_s", "s", "lower", False),
    ("nn.per_example_losses_rows", "count", "lower", True),
    ("nn.optimizer_step_s", "s", "lower", False),
    ("nn.optimizer_steps", "count", "lower", True),
    ("nn.save_checkpoint_s", "s", "lower", False),
    ("tensor.backward_s", "s", "lower", False),
    ("tensor.backward_calls", "count", "lower", True),
    ("kernels.softmax_xent_s", "s", "lower", False),
    ("kernels.softmax_xent_calls", "count", "lower", True),
    ("kernels.softmax_xent_bytes", "bytes_computed", "lower", True),
    ("kernels.xent_backward_s", "s", "lower", False),
    ("kernels.xent_backward_calls", "count", "lower", True),
    ("kernels.xent_backward_bytes", "bytes_computed", "lower", True),
    ("kernels.adam_update_s", "s", "lower", False),
    ("kernels.adam_update_calls", "count", "lower", True),
    ("kernels.adam_update_bytes", "bytes_computed", "lower", True),
    ("artifacts.write_s", "s", "lower", False),
    ("artifacts.bytes_written", "bytes", "lower", False),
    ("cli.worker_busy_frac", "ratio", "higher", False),
    ("cli.run_s_in_worker", "s", "lower", False),
    ("cli.traced_cells", "count", "higher", True),
    ("trace.wall_s", "s", "lower", False),
    ("trace.overhead_s", "s", "lower", False),
)

KERNELS = ("softmax_xent", "xent_backward", "adam_update")


def _nbytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    """Span and count recorder with the wrappers that feed it."""

    def __init__(self, export_dir):
        self.export_dir = Path(export_dir)
        self.owner_pid = os.getpid()
        self._patched = []
        self._exports = 0
        self.counts = Counter()
        self.violations = []
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self._stack = []
        # cleared in place: the installed wrappers hold these objects
        self.counts.clear()
        self.violations.clear()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, after=None, bind=False, before=None):
        tracer = self
        sig = inspect.signature(fn) if bind else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ends.append(0.0)
            tracer._stack.append(i)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                call = sig.bind(*args, **kwargs).arguments if bind else args
                after(call, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, after=None, bind=False, before=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after, bind, before))

    def install(self):
        from inscorr import artifacts, cli, kernels, nn, pipeline, tensor

        count = self.counts

        def rows_generated(call, ds):
            count["data.rows_generated"] += len(ds)

        def rows_touched(call, ds):
            count["noise.rows_touched"] += int(np.count_nonzero(ds.provenance))

        def selection(call, stats):
            count["select.batches"] += stats.batches
            count["select.kept"] += stats.kept_total
            count["select.kept_clean"] += stats.kept_clean
            count["select.seen"] += len(call["train"])

        def partition(call, split):
            hits, flagged, noisy = partition_counts(split[1], call["train"].provenance)
            count["pipeline.partition_hits"] += hits
            count["pipeline.partition_flagged"] += flagged
            count["pipeline.partition_noisy"] += noisy

        def attack(call, results):
            cfg = call["cfg"]
            x = np.asarray(call["instances"], dtype=np.float64)
            count["attack.rows"] += len(x)
            count["attack.grad_evals"] += len(x) * (cfg.steps + 1)
            count["attack.successes"] += sum(bool(r.success) for r in results)
            count["attack.errors"] += sum(r.error is not None for r in results)
            if not results:
                return
            corrected = np.stack([r.corrected for r in results])
            delta = corrected - x
            size = (np.abs(delta).max(axis=1) if cfg.norm == "linf"
                    else np.linalg.norm(delta, axis=1))
            bad = ((size > cfg.budget + BUDGET_SLACK)
                   | (corrected.min(axis=1) < 0.0) | (corrected.max(axis=1) > 1.0))
            for j in np.flatnonzero(bad):
                self.violations.append(
                    f"corrected row {int(j)}: {cfg.norm} size {size[j]:.3g} "
                    f"vs budget {cfg.budget:.3g}, range "
                    f"[{corrected[j].min():.3g}, {corrected[j].max():.3g}]")

        def example_rows(args, result):
            count["nn.per_example_losses_rows"] += len(args[1])

        def kernel_bytes(name):
            def after(args, result):
                count[f"kernels.{name}_bytes"] += _nbytes(tuple(args)) + _nbytes(result)
            return after

        def enter_write_run():
            # a forked worker inherits the parent's records; start clean
            if os.getpid() != self.pid:
                self.reset()

        def wrote_run(call, returned):
            count["artifacts.bytes_written"] += _dir_bytes(returned[0])
            if os.getpid() != self.owner_pid:
                self._export()

        self._patch(pipeline, "generate_synthetic", "data.gen", rows_generated)
        self._patch(pipeline, "generate_ood_source", "data.gen", rows_generated)
        self._patch(pipeline, "apply_noise", "noise.apply", rows_touched)
        self._patch(pipeline, "self_teach_epoch", "select.epoch", selection, bind=True)
        self._patch(pipeline, "partition_clean_mislabeled", "pipeline.partition",
                    partition, bind=True)
        self._patch(pipeline, "mixed_loss", "pipeline.mixed_loss")
        self._patch(pipeline, "evaluate", "pipeline.eval")
        self._patch(pipeline, "accuracy_on_given", "pipeline.eval")
        self._patch(pipeline, "correct_set", "attack.correct", attack, bind=True)
        self._patch(nn.Model, "forward", "nn.forward")
        self._patch(nn.Model, "per_example_losses", "nn.per_example_losses", example_rows)
        self._patch(nn.Adam, "step", "nn.optimizer_step")
        self._patch(nn.Sgd, "step", "nn.optimizer_step")
        self._patch(tensor.Tensor, "backward", "tensor.backward")
        for name in KERNELS:
            self._patch(kernels, name, f"kernels.{name}", kernel_bytes(name))
        self._patch(artifacts, "run_experiment", "pipeline.run")
        self._patch(artifacts, "save_checkpoint", "nn.save_checkpoint")
        self._patch(artifacts, "write_run", "artifacts.write_run", wrote_run,
                    before=enter_write_run)
        self._patch(cli, "write_run", "artifacts.write_run", wrote_run,
                    before=enter_write_run)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def snapshot(self):
        """This process's aggregate since the last reset, as plain data."""
        return {
            "spans": self_times(self.names, self.parents, self.starts, self.ends),
            "counts": dict(self.counts),
            "violations": list(self.violations),
            "cells": 1,
        }

    def _export(self):
        self._exports += 1
        path = self.export_dir / f"{os.getpid()}-{self._exports}.json"
        path.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        self.reset()

    def merge_exports(self, snap):
        """Fold worker aggregate files into snap (from the parent) and delete
        them; snap["cells"] becomes the number of cells merged."""
        snap["cells"] = 0
        for path in sorted(self.export_dir.glob("*.json")):
            other = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            for name, row in other["spans"].items():
                mine = snap["spans"].setdefault(
                    name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                for key in mine:
                    mine[key] += row[key]
            for key, value in other["counts"].items():
                snap["counts"][key] = snap["counts"].get(key, 0) + value
            snap["violations"].extend(other["violations"])
            snap["cells"] += other["cells"]
        return snap


def layer_metrics(snap):
    """Per-layer metric values of one traced iteration's aggregate, except
    the cli.* and trace.* entries, which the caller fills in."""
    spans, counts = snap["spans"], snap["counts"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def self_s(name):
        return float(span(name, "self_s"))

    def calls(name):
        return int(span(name, "calls"))

    attack_incl = float(span("attack.correct", "incl_s"))
    out = {
        "data.gen_s": self_s("data.gen"),
        "data.gen_calls": calls("data.gen"),
        "data.rows_generated": counts.get("data.rows_generated", 0),
        "noise.apply_s": self_s("noise.apply"),
        "noise.rows_touched": counts.get("noise.rows_touched", 0),
        "select.epoch_s": self_s("select.epoch"),
        "select.batches": counts.get("select.batches", 0),
        "select.kept_frac": ratio(counts.get("select.kept", 0),
                                  counts.get("select.seen", 0)),
        "select.precision": ratio(counts.get("select.kept_clean", 0),
                                  counts.get("select.kept", 0)),
        "pipeline.partition_s": self_s("pipeline.partition"),
        "pipeline.partition_precision": ratio(
            counts.get("pipeline.partition_hits", 0),
            counts.get("pipeline.partition_flagged", 0)),
        "pipeline.partition_recall": ratio(
            counts.get("pipeline.partition_hits", 0),
            counts.get("pipeline.partition_noisy", 0)),
        "pipeline.mixed_loss_s": self_s("pipeline.mixed_loss"),
        "pipeline.mixed_loss_calls": calls("pipeline.mixed_loss"),
        "pipeline.eval_s": self_s("pipeline.eval"),
        "pipeline.eval_calls": calls("pipeline.eval"),
        "pipeline.run_s": self_s("pipeline.run"),
        "attack.correct_s": self_s("attack.correct"),
        "attack.correct_incl_s": attack_incl,
        "attack.rows": counts.get("attack.rows", 0),
        "attack.grad_evals": counts.get("attack.grad_evals", 0),
        "attack.rows_per_s": ratio(counts.get("attack.rows", 0), attack_incl),
        "attack.success_rate": ratio(counts.get("attack.successes", 0),
                                     counts.get("attack.rows", 0)),
        "attack.errors": counts.get("attack.errors", 0),
        "nn.forward_s": self_s("nn.forward"),
        "nn.forward_calls": calls("nn.forward"),
        "nn.per_example_losses_s": self_s("nn.per_example_losses"),
        "nn.per_example_losses_rows": counts.get("nn.per_example_losses_rows", 0),
        "nn.optimizer_step_s": self_s("nn.optimizer_step"),
        "nn.optimizer_steps": calls("nn.optimizer_step"),
        "nn.save_checkpoint_s": self_s("nn.save_checkpoint"),
        "tensor.backward_s": self_s("tensor.backward"),
        "tensor.backward_calls": calls("tensor.backward"),
        "artifacts.write_s": float(span("artifacts.write_run", "incl_s")
                                   - span("pipeline.run", "incl_s")),
        "artifacts.bytes_written": counts.get("artifacts.bytes_written", 0),
    }
    for name in KERNELS:
        out[f"kernels.{name}_s"] = self_s(f"kernels.{name}")
        out[f"kernels.{name}_calls"] = calls(f"kernels.{name}")
        out[f"kernels.{name}_bytes"] = counts.get(f"kernels.{name}_bytes", 0)
    return out
