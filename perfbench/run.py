"""End-to-end and per-layer benchmark of inscorr.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload inscorr_fog --seed 0 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each was chosen):

  inscorr_fog         one `write_run` of InsCorr on the fog route, lambda 0.5
  selection_open_set  one `write_run` of SelectionOnly on open_set
  mix_open_set        one `write_run` of Mix on open_set, lambda 0.7
  campaign_grid       one `inscorr campaign` over {fog, open_set} x
                      {SelectionOnly, Mix} x one seed, --workers 2

All use the settings of the acceptance ordering check, each seed on all four
seed streams. A run first makes one untimed warm-up iteration, then runs
iterations back to back, closed loop, until the next one would end after
--seconds (inscorr_fog makes at least MIN_ITERATIONS of them). An untraced
run gives each iteration a seed of its own derived from --seed, the first
one repeating the warm-up's; a traced run alternates traced and untraced
iterations on the warm-up's seed. With --trace 0 the last stdout line
reports the end-to-end metrics, with --trace 1 the per-layer metrics; the
line before it records the environment. Every run directory is checked
(check_run_dir) and a repeated config must reproduce its deterministic files
byte for byte; a failed iteration is counted and the loop goes on, and any
failure makes `correct` false and the exit code 1. Exit code 2 means the
benchmark could not start (no inscorr source beside it).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchstats import tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set-up is sampled this many times, spread over the measured window, since
# the machine's speed drifts over seconds
SETUP_REPEATS = 7
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import inscorr\n"
    "from inscorr import kernels\n"
    "kernels.warmup()\n"
    "print(time.perf_counter() - t)\n"
)

CAMPAIGN_WORKERS = 2
CAMPAIGN_ROUTES = ("fog", "open_set")
CAMPAIGN_METHODS = ("SelectionOnly", "Mix")
CAMPAIGN_CELLS = len(CAMPAIGN_ROUTES) * len(CAMPAIGN_METHODS)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
ARTIFACTS = ("manifest.json", "metrics.jsonl", "metrics.csv", "summary.json", "model.ckpt")
DETERMINISTIC = ("metrics.jsonl", "metrics.csv", "summary.json")

# acceptance._ordering_config, spelled out so default changes do not move it
ORDERING = (
    "model.hidden=[64]", "model.optimizer=adam", "model.lr=0.002",
    "data.n_train=2000", "data.n_test=1000", "data.num_classes=4",
    "data.height=16", "data.width=16", "data.val_fraction=0.1",
    "noise.rate=0.4", "selection.ramp_epochs=10",
    "attack.norm=linf", f"attack.budget={8.0 / 255.0!r}", "attack.steps=40",
    "training.total_epochs=60", "training.warmup_epochs=30",
    "training.batch_size=128", "training.partition_rule=agreement",
)
# iteration k of a run on --seed s uses seed s * SEED_STRIDE + k
SEED_STRIDE = 1000
# on fog the number of attacked rows, and so the wall time, varies a lot with
# the seed; an untraced run averages over at least this many seeds
MIN_ITERATIONS = {"inscorr_fog": 10}

SINGLE = {
    "inscorr_fog": ("fog", "InsCorr", 0.5),
    "selection_open_set": ("open_set", "SelectionOnly", 0.5),
    "mix_open_set": ("open_set", "Mix", 0.7),
}
CAMPAIGN = "campaign_grid"
WORKLOADS = tuple(SINGLE) + (CAMPAIGN,)
EPOCHS = 60


class RunFailure(Exception):
    """Runs whose outputs are missing, inconsistent or not reproduced."""

    def __init__(self, message, runs=1):
        super().__init__(message)
        self.runs = runs


# -- correctness -----------------------------------------------------------


def check_run_dir(run_dir):
    """Verify one run directory; returns its deterministic record.

    All five artifacts must be present and nothing else; every artifact the
    manifest lists must match its sha256 and size; metrics.jsonl must hold
    one record per epoch and summary.json must repeat its last-ten mean.
    """
    import numpy as np

    run_dir = Path(run_dir)
    present = sorted(p.name for p in run_dir.iterdir())
    if present != sorted(ARTIFACTS):
        raise RunFailure(f"{run_dir.name}: artifacts {present}")
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = manifest.get("artifacts", {})
    if sorted(listed) != sorted(a for a in ARTIFACTS if a != "manifest.json"):
        raise RunFailure(f"{run_dir.name}: manifest lists {sorted(listed)}")
    digests = {}
    for name, meta in listed.items():
        blob = (run_dir / name).read_bytes()
        digests[name] = hashlib.sha256(blob).hexdigest()
        if digests[name] != meta["sha256"] or len(blob) != meta["bytes"]:
            raise RunFailure(f"{run_dir.name}: {name} does not match the manifest")
    records = [json.loads(line) for line in
               (run_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    if len(records) != EPOCHS or summary["epochs"] != EPOCHS:
        raise RunFailure(f"{run_dir.name}: {len(records)} epochs, expected {EPOCHS}")
    last10 = float(np.array([r["test_accuracy"] for r in records[-10:]]).mean())
    if summary["last_ten_mean"] != last10:
        raise RunFailure(f"{run_dir.name}: last_ten_mean {summary['last_ten_mean']}"
                         f" vs metrics.jsonl {last10}")
    return {
        "digests": {name: digests[name] for name in DETERMINISTIC},
        "last10": last10,
        "wall_seconds": float(manifest["wall_seconds"]),
    }


# -- workloads -------------------------------------------------------------


def seed_overrides(seed):
    return [f"seeds.{s}={seed}" for s in ("data", "noise", "init", "epochs")]


def single_resolved(workload, seed):
    from inscorr import config

    route, method, lam = SINGLE[workload]
    overrides = [*ORDERING, f"method={method}", f"noise.route={route}",
                 f"training.lambda={lam!r}", *seed_overrides(seed)]
    return config.resolve_config(config.apply_overrides(config.load_config(), overrides))


def single_iteration(resolved, root):
    """One write_run into root; (wall seconds, {run key: record})."""
    from inscorr import artifacts

    started = time.perf_counter()
    run_dir, _ = artifacts.write_run(resolved, root)
    wall = time.perf_counter() - started
    return wall, {run_dir.name: check_run_dir(run_dir)}


def campaign_iteration(seed, root):
    """One six-cell campaign into root; (wall seconds, {run key: record})."""
    from inscorr import cli

    argv = ["campaign", "--routes", ",".join(CAMPAIGN_ROUTES), "--rates", "0.4",
            "--seeds", str(seed), "--methods", ",".join(CAMPAIGN_METHODS),
            "--workers", str(CAMPAIGN_WORKERS), "--output-root", str(root)]
    for item in (*ORDERING, "training.lambda=0.5"):
        argv += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - started
    reports = list(Path(root).glob("campaign-*/campaign.json"))
    if code != 0 or len(reports) != 1:
        raise RunFailure(f"campaign exited {code} with {len(reports)} reports")
    report = json.loads(reports[0].read_text(encoding="utf-8"))
    failed = sum(cell["n_failed"] for cell in report["cells"])
    if failed or report["failures"] or len(report["cells"]) != CAMPAIGN_CELLS:
        raise RunFailure(f"campaign: {failed} failed cells, {report['failures']}",
                         runs=max(failed, 1))
    run_dirs = [d for d in Path(root).iterdir()
                if d.is_dir() and not d.name.startswith("campaign-")]
    if len(run_dirs) != CAMPAIGN_CELLS:
        raise RunFailure(f"campaign wrote {len(run_dirs)} run directories,"
                         f" expected {CAMPAIGN_CELLS}")
    return wall, {d.name: check_run_dir(d) for d in run_dirs}


class Workload:
    """Runs iterations of one workload and checks each run against the
    first run of the same config."""

    def __init__(self, name, seed, work):
        self.name, self.seed, self.work = name, seed, Path(work)
        self.runs_per_iteration = CAMPAIGN_CELLS if name == CAMPAIGN else 1
        self.references = {}
        self.last10 = {}

    def sub_seed(self, i):
        """The seed of iteration i."""
        return self.seed * SEED_STRIDE + i % SEED_STRIDE

    def iteration(self, i):
        """(wall, records) of one iteration on sub_seed(i); RunFailure when
        a deterministic file differs from an earlier run of the same config."""
        root = Path(tempfile.mkdtemp(dir=self.work))
        try:
            if self.name == CAMPAIGN:
                wall, records = campaign_iteration(self.sub_seed(i), root)
            else:
                wall, records = single_iteration(
                    single_resolved(self.name, self.sub_seed(i)), root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for key, record in records.items():
            reference = self.references.setdefault(key, record["digests"])
            if reference != record["digests"]:
                raise RunFailure(f"{key}: deterministic files differ between repetitions")
            self.last10[key] = record["last10"]
        return wall, records


# -- measurements ----------------------------------------------------------


def setup_sample():
    """Seconds, in a fresh process, to import inscorr and warm up its kernels."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb(campaign):
    """Peak resident memory of this process; for a campaign plus, per pool
    worker, the largest peak of any child (an upper bound on their sum)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if campaign:
        kib += CAMPAIGN_WORKERS * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def git_commit():
    """HEAD of the git checkout rooted at ROOT, or "unknown"."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def blas_threads():
    return {var: os.environ.get(var, "unset") for var in BLAS_VARS}


def environment(args, inherited):
    import numpy

    from inscorr import kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels_backend": kernels.BACKEND,
        "blas_threads": blas_threads(),
        "blas_threads_inherited": inherited,
        "git_commit": git_commit(),
    }


def traced_iteration(workload, tracer):
    """One iteration on sub-seed 0 with the layer wrappers installed;
    (wall, records, per-layer values)."""
    from layers import layer_metrics

    tracer.reset()
    tracer.install()
    try:
        wall, records = workload.iteration(0)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    if workload.name == CAMPAIGN:
        snap = tracer.merge_exports(snap)
    if snap["violations"]:
        raise RunFailure("attack budget: " + "; ".join(snap["violations"][:5]),
                         runs=workload.runs_per_iteration)
    values = layer_metrics(snap)
    values["cli.traced_cells"] = snap["cells"] if workload.name == CAMPAIGN else 0
    return wall, records, values


def run_loop(workload, seconds, trace, tracer, setup=None):
    """Closed loop of iterations; returns (samples, failures, attempted).

    The warm-up iteration runs sub-seed 0 untimed. An untraced run then gives
    measured iteration k sub-seed k, so the first one repeats the warm-up's
    config, and makes at least MIN_ITERATIONS of them; a traced run
    alternates traced and untraced iterations, all on sub-seed 0, and makes
    at least one of each. samples holds the wall seconds of the untraced and
    of the traced iterations, the traced iterations' per-layer values and
    each untraced iteration's manifest wall seconds. failures holds
    (message, failed runs) pairs; a failed iteration adds one and the loop
    goes on. When given the list setup, it receives up to SETUP_REPEATS
    set-up samples taken between iterations, evenly over the measured window.
    """
    samples = {"untraced": [], "traced": [], "layers": [], "manifest_walls": []}
    failures, lengths = [], []
    attempted = 0
    setup_tries = 0

    def attempt(step):
        """Run one iteration; its length in seconds, failed or not."""
        nonlocal attempted
        attempted += workload.runs_per_iteration
        started = time.perf_counter()
        try:
            step()
        except Exception as error:  # noqa: BLE001 - any failure is a benchmark result
            runs = error.runs if isinstance(error, RunFailure) else workload.runs_per_iteration
            failures.append((repr(error), runs))
        return time.perf_counter() - started

    def untraced(k):
        wall, records = workload.iteration(k)
        samples["untraced"].append(wall)
        samples["manifest_walls"].append(
            ([r["wall_seconds"] for r in records.values()], wall))

    def traced():
        wall, _, values = traced_iteration(workload, tracer)
        samples["traced"].append(wall)
        samples["layers"].append(values)

    def take_setup():
        nonlocal setup_tries
        setup_tries += 1
        try:
            setup.append(setup_sample())
        except Exception as error:  # noqa: BLE001
            failures.append((f"set-up: {error!r}", 0))

    minimum = 2 if trace else MIN_ITERATIONS.get(workload.name, 1)
    attempt(lambda: workload.iteration(0))
    started = time.perf_counter()
    while True:
        if setup is not None and setup_tries < SETUP_REPEATS and (
                time.perf_counter() - started >= setup_tries * seconds / SETUP_REPEATS):
            take_setup()
        k = len(lengths)
        if trace and k % 2 == 0:
            lengths.append(attempt(traced))
        else:
            lengths.append(attempt(lambda: untraced(0 if trace else k)))
        if len(lengths) >= minimum and (
                time.perf_counter() - started + statistics.median(lengths) > seconds):
            break
    while setup is not None and setup_tries < SETUP_REPEATS:
        take_setup()
    return samples, failures, attempted


def end_to_end(samples, workload, setup):
    """The end-to-end metrics that the run's successful samples allow."""
    out, info = {}, {}
    walls = samples["untraced"]
    if walls:
        tail, percentile, n = tail_percentile(walls)
        out["wall_s"] = (statistics.fmean(walls), "s")
        out["wall_s_tail"] = (tail, "s")
        info = {"samples": n, "tail_percentile": percentile, "walls": walls}
    if setup:
        out["setup_s"] = (statistics.median(setup), "s")
    out["peak_rss_mb"] = (peak_rss_mb(workload.name == CAMPAIGN), "MB")
    last10 = list(workload.last10.values())
    if last10:
        out["last10_acc"] = (sum(last10) / len(last10), "ratio")
    return out, info


def per_layer(samples, workload):
    """(values, info, failures) of a traced run: exact per-layer metrics
    must agree across the traced iterations; timings are their medians."""
    from layers import PER_LAYER

    values, failures = {}, []
    for name, unit, _, exact in PER_LAYER:
        if name not in samples["layers"][0]:
            continue
        seen = [sample[name] for sample in samples["layers"]]
        if exact and any(v != seen[0] for v in seen):
            failures.append((f"per-layer {name} differs between repetitions: {seen}", 1))
        values[name] = (seen[0] if exact else statistics.median(seen), unit)
    busy, in_worker = [0.0], [0.0]
    if workload.name == CAMPAIGN and samples["manifest_walls"]:
        busy = [sum(cells) / (CAMPAIGN_WORKERS * wall)
                for cells, wall in samples["manifest_walls"]]
        in_worker = [statistics.median(cells) for cells, _ in samples["manifest_walls"]]
    values["cli.worker_busy_frac"] = (statistics.median(busy), "ratio")
    values["cli.run_s_in_worker"] = (statistics.median(in_worker), "s")
    traced = statistics.median(samples["traced"])
    values["trace.wall_s"] = (traced, "s")
    if samples["untraced"]:
        values["trace.overhead_s"] = (traced - statistics.median(samples["untraced"]), "s")
    info = {"samples": len(samples["untraced"]), "traced_samples": len(samples["traced"])}
    return values, info, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "inscorr" / "__init__.py").is_file():
        print(f"perfbench: no inscorr source under {SRC}", file=sys.stderr)
        return 2
    inherited = blas_threads()
    # before numpy loads, and inherited by the campaign's pool workers:
    # default multi-threaded BLAS on these small matrices made iteration
    # times swing by +-20% within one run, and campaigns by a factor of two
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    from layers import Tracer

    setup = None if args.trace else []
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        exports = work / "trace"
        exports.mkdir()
        workload = Workload(args.workload, args.seed, work)
        samples, failures, attempted = run_loop(
            workload, args.seconds, bool(args.trace), Tracer(exports), setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    metrics, info = {}, {}
    if args.trace and samples["layers"]:
        metrics, info, mismatches = per_layer(samples, workload)
        failures += mismatches
    elif not args.trace:
        metrics, info = end_to_end(samples, workload, setup)
    failed = min(attempted, sum(runs for _, runs in failures))
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    for message, _ in failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps({"environment": environment(args, inherited), **info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
