"""The benchmark's tracer still finds the entry points it wraps.

perfbench/layers.py wraps pipeline, nn, tensor and kernels functions by
name from outside the package. Renaming or deleting one of them would
leave its spans empty without failing any run, so this test traces one
tiny Mix run, which covers both selection epochs and mixed epochs, and
requires the per-layer counts those entry points feed; an InsCorr run
does the same for the attack hook, which reads correct_set's results.
perfbench/run.py also reads kernels.BACKEND and times kernels.warmup(),
and its workloads pin config keys by name, each of which must still
resolve.
"""

import sys
from pathlib import Path

import pytest

from inscorr import artifacts, cli, kernels
from inscorr.config import apply_overrides, load_config, resolve_config

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

TINY_MIX = (
    "method=Mix", "model.hidden=[8]", "data.n_train=120", "data.n_test=60",
    "data.height=8", "data.width=8",
    "noise.route=open_set", "noise.rate=0.3", "training.total_epochs=4",
    "training.warmup_epochs=2", "training.batch_size=32",
)


@pytest.fixture
def perfbench_modules(monkeypatch):
    """perfbench/ on sys.path; the modules imported from it are dropped after."""
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("layers", "run", "benchstats"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield
    for name in ("layers", "run", "benchstats"):
        sys.modules.pop(name, None)


@pytest.fixture
def perfbench_layers(perfbench_modules):
    from layers import Tracer, layer_metrics

    return Tracer, layer_metrics


def test_every_workload_config_resolves(perfbench_modules):
    # a retired key that the bench still sets would fail every iteration
    import run

    for workload in run.SINGLE:
        run.single_resolved(workload, 0)
    for route in run.CAMPAIGN_ROUTES:
        for method in run.CAMPAIGN_METHODS:
            resolve_config(apply_overrides(load_config(), (
                *run.ORDERING, "training.lambda=0.5", f"noise.route={route}",
                "noise.rate=0.4", f"method={method}", *run.seed_overrides(0))))


@pytest.mark.parametrize("method", ["Mix", "InsCorr"])
def test_tracer_sees_selection_forward_and_mixed_loss(tmp_path, perfbench_layers, method):
    Tracer, layer_metrics = perfbench_layers
    tracer = Tracer(tmp_path / "exports")
    tracer.install()
    try:
        resolved = resolve_config(
            apply_overrides(load_config(), (f"method={method}", *TINY_MIX[1:])))
        artifacts.write_run(resolved, tmp_path / "runs")
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    metrics = layer_metrics(snap)
    assert metrics["select.batches"] > 0
    assert metrics["nn.forward_calls"] > 0
    assert metrics["pipeline.mixed_loss_calls"] > 0
    assert metrics["kernels.xent_backward_calls"] > 0
    assert metrics["nn.optimizer_steps"] > 0
    # data generation is wrapped as pipeline looks it up, and Adam steps
    # the whole flat parameter vector in one kernel call
    assert metrics["data.gen_calls"] > 0
    # the train set, the 36 out-of-distribution rows it draws and the test
    # set; 120 + 36 + 60 rows, 30% noisy
    assert metrics["data.gen_calls"] == 3
    assert metrics["data.rows_generated"] == 216
    assert metrics["noise.rows_touched"] == 36
    assert metrics["kernels.adam_update_calls"] == metrics["nn.optimizer_steps"]
    # the attack hook reads every CorrectionResult correct_set returns and
    # checks each corrected row against the budget and [0, 1]
    if method == "InsCorr":
        assert metrics["attack.rows"] > 0
        steps = resolved["attack"]["steps"]
        assert metrics["attack.grad_evals"] == metrics["attack.rows"] * (steps + 1)
        assert metrics["attack.errors"] == 0
    assert snap["violations"] == []


def test_bench_reads_kernel_names():
    assert kernels.BACKEND == "numpy"
    kernels.warmup()
    for name in ("softmax_xent", "xent_backward", "adam_update"):
        assert callable(getattr(kernels, name, None)), name


def test_campaign_workers_reach_the_patched_write_run(tmp_path, perfbench_layers):
    # the sweep's worker processes must call write_run through cli's module
    # global, which the tracer patches; each run then exports one cell
    Tracer, layer_metrics = perfbench_layers
    (tmp_path / "exports").mkdir()
    tracer = Tracer(tmp_path / "exports")
    argv = ["campaign", "--routes", "gaussian,fog", "--rates", "0.3",
            "--methods", "SelectionOnly,Mix", "--seeds", "0", "--workers", "2",
            "--output-root", str(tmp_path / "runs")]
    for item in TINY_MIX[1:]:
        if not item.startswith("noise."):
            argv += ["--set", item]
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    snap = tracer.merge_exports(tracer.snapshot())
    assert snap["cells"] == 4
    # the selection warmup runs inside each route's first write_run, which the
    # tracer counts: per route 2 shared epochs, then SelectionOnly's other 2,
    # 4 batches of 32 rows each over the 108 training rows
    metrics = layer_metrics(snap)
    assert metrics["select.batches"] == 2 * (2 + 2) * 4
    # so does each route's data: 120 training and 60 test rows in two
    # calls, 36 of the training rows made noisy
    assert (metrics["data.gen_calls"], metrics["data.rows_generated"],
            metrics["noise.rows_touched"]) == (2 * 2, 2 * 180, 2 * 36)
