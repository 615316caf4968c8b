"""The benchmark's tracer still finds the entry points it wraps.

perfbench/layers.py wraps pipeline, nn, tensor and kernels functions by
name from outside the package. Renaming or deleting one of them would
leave its spans empty without failing any run, so this test traces one
tiny Mix run, which covers both selection epochs and mixed epochs, and
requires the per-layer counts those entry points feed.
"""

import sys
from pathlib import Path

import pytest

from inscorr import artifacts
from inscorr.config import apply_overrides, load_config, resolve_config

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY_MIX = (
    "method=Mix", "model.hidden=[8]", "data.n_train=120", "data.n_test=60",
    "data.height=8", "data.width=8", "data.pool_size=120",
    "noise.route=open_set", "noise.rate=0.3", "training.total_epochs=4",
    "training.warmup_epochs=2", "training.batch_size=32",
)


@pytest.fixture
def perfbench_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    from layers import Tracer, layer_metrics

    yield Tracer, layer_metrics
    sys.modules.pop("layers", None)
    sys.modules.pop("benchstats", None)


def test_tracer_sees_selection_forward_and_mixed_loss(tmp_path, perfbench_layers):
    Tracer, layer_metrics = perfbench_layers
    tracer = Tracer(tmp_path / "exports")
    tracer.install()
    try:
        resolved = resolve_config(apply_overrides(load_config(), TINY_MIX))
        artifacts.write_run(resolved, tmp_path / "runs")
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.snapshot())
    assert metrics["select.batches"] > 0
    assert metrics["nn.forward_calls"] > 0
    assert metrics["pipeline.mixed_loss_calls"] > 0
    assert metrics["kernels.xent_backward_calls"] > 0
    assert metrics["nn.optimizer_steps"] > 0
