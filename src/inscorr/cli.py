"""Command line entry points.

Verbs:

  * run: one experiment from a JSON config plus --set overrides.
  * campaign: a grid of routes x rates x methods x seeds.
  * ablate: sweep the mixing weight and tabulate last-ten accuracy.
  * make-data: write the train, validation and test sets that run would
    train and evaluate on, from the same --config and --set arguments.
  * verify: run the acceptance checks and report pass/fail per check.

campaign and ablate differ only in their flags, which each turns into
labelled cells. One runner sweeps the cells over the seeds and writes
one report form: a line per cell, and a CSV of the label columns then
n_seeds, n_failed, mean_acc and std_acc, with a JSON of the grid id,
the cells and every failed run, under <verb>-<grid hash>.

Runs land under --output-root, the INSCORR_OUTPUT_ROOT environment
variable, or ./runs, keyed by config hash. An output path at or below a
file fails before any work.

BLAS runs on one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
says otherwise (see the package docstring).
"""

import argparse
import csv
import json
import os
import sys
from functools import partial
from pathlib import Path

from . import acceptance
from .artifacts import ENV_OUTPUT_ROOT, config_hash, output_root, write_run
from .config import apply_overrides, load_config, resolve_config, to_experiment_config
from .data import save_dataset
from .errors import ConfigError, InscorrError
from .noise import ALL_ROUTES
from .pipeline import METHODS, prepare_data
from .sweep import sweep


# (high, as printed) for a list flag whose values lie in [0, high]
_FRACTION = (1, "[0, 1]")
_SEED = (2**63 - 1, "[0, 2**63)")


def _split(args, flag, parse=str, bounds=None):
    """The comma list of --flag: at least one value, none repeated once
    parsed (0.4,0.40 repeats 0.4) and, given bounds, each in [0, high],
    which NaN is not."""
    text = getattr(args, flag)
    try:
        values = [parse(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"--{flag} needs a comma list of values, got {text!r}")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"--{flag} lists {value!r} twice, in {text!r}")
        if bounds and not 0 <= value <= bounds[0]:
            raise ConfigError(f"--{flag} must lie in {bounds[1]}, got {value!r}")
    return values


def _directory(path, name):
    """Path(path) for a verb to create or fill, refused by name before any
    work when a file stands at it or above it."""
    path = Path(path)
    above = next((p for p in (path, *path.parents) if p.exists()), None)
    if above and not above.is_dir():
        raise ConfigError(f"{name} {path}: {above} is not a directory")
    return path


def _output_root(args):
    name = ("--output-root" if args.output_root
            else ENV_OUTPUT_ROOT if ENV_OUTPUT_ROOT in os.environ else "output root")
    return _directory(output_root(args.output_root), name)


def _load(args):
    cfg = load_config(args.config)
    return apply_overrides(cfg, args.set or [])


def _summary_line(run_dir, summary):
    tail = "n/a"
    if summary["last_ten_mean"] is not None:
        tail = f"{summary['last_ten_mean']:.4f}+-{summary['last_ten_std']:.4f}"
    return (
        f"{summary['config_hash']} method={summary['method']}"
        f" epochs={summary['epochs']} last10={tail} dir={run_dir}"
    )


def cmd_run(args):
    root = _output_root(args)
    cfg = resolve_config(_load(args))
    run_dir, summary = write_run(cfg, root)
    print(_summary_line(run_dir, summary))
    return 0


def _sweep_job(resolved, cache, root):
    # module level, so that a partial of it pickles for workers started
    # by spawn; write_run is looked up at call time, so a patched
    # cli.write_run reaches forked workers too
    return write_run(resolved, root, cache=cache)[1]["last_ten_mean"]


def _grid_base(base):
    """The base config as a grid id covers it: resolved, as ids always
    were, or as given when it cannot run on its own. The grid's cells may
    still make it runnable (a fog-only grid with more classes than the
    open_set pool allows); a job they do not fix fails when the sweep
    resolves it."""
    try:
        return resolve_config(base)
    except ConfigError:
        return base


def _run_grid(args, base, seeds, name, stem, ident, labels, cells):
    """Run every cell once per seed into the output root, print one
    `k=v ...: mean+-std` line per cell and write the grid's report to
    <name>-<grid id>/<stem>.csv and .json; 1 if any run failed.

    labels holds each cell's report columns, cells its config override;
    ident names the lists the grid was built from, for its id."""
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    root = _output_root(args)
    grid_id = config_hash({"base": _grid_base(base), "seeds": seeds, **ident})
    results, failures = sweep(base, cells, seeds, partial(_sweep_job, root=root),
                              workers=args.workers)

    header = [*labels[0], "n_seeds", "n_failed", "mean_acc", "std_acc"]
    rows = []
    for label, result in zip(labels, results):
        rows.append([*label.values(), len(seeds), *result])
        text = (f"{result.mean:.4f}+-{result.std:.4f}" if result.mean is not None
                else "failed" if result.n_failed else "n/a")
        print(" ".join(f"{k}={v}" for k, v in label.items()) + f": {text}")
    directory = root / f"{name}-{grid_id}"
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # "" marks a cell with no successful run; 0.0 is a real accuracy
        writer.writerows(["" if v is None else v for v in row] for row in rows)
    report = {
        "grid_id": grid_id,
        "cells": [dict(zip(header, row)) for row in rows],
        "failures": [{**labels[c], "seed": seed, "error": error}
                     for c, seed, error in failures],
    }
    (directory / f"{stem}.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"{stem} written to {directory}")
    return 1 if failures else 0


def cmd_campaign(args):
    base = _load(args)
    routes = _split(args, "routes")
    rates = _split(args, "rates", float, _FRACTION)
    seeds = _split(args, "seeds", int, _SEED)
    methods = _split(args, "methods")
    grid = [(route, rate, method)
            for route in routes for rate in rates for method in methods]
    return _run_grid(args, base, seeds, "campaign", "campaign",
                     {"routes": routes, "rates": rates, "methods": methods},
                     [{"route": r, "rate": q, "method": m} for r, q, m in grid],
                     [{"noise": {"route": r, "rate": q}, "method": m} for r, q, m in grid])


def cmd_ablate(args):
    base = _load(args)
    weights = sorted(_split(args, "weights", float, _FRACTION))
    seeds = _split(args, "seeds", int, _SEED)
    # the swept weight is lambda itself, or its complement under the
    # discarded interpretation; cells run in order of lambda
    discarded = args.interpretation == "discarded"
    grid = sorted(((1.0 - w) if discarded else w, w) for w in weights)
    return _run_grid(args, base, seeds, "ablate", "ablation",
                     {"weights": weights, "interpretation": args.interpretation},
                     [{"weight": w, "lambda": lam} for lam, w in grid],
                     [{"training": {"lambda": lam}} for lam, _ in grid])


def cmd_make_data(args):
    out = _directory(args.out, "--out")
    sets = prepare_data(to_experiment_config(resolve_config(_load(args))))
    out.mkdir(parents=True, exist_ok=True)
    for name, ds in zip(("train", "val", "test"), sets):
        path = out / f"{name}.inscd"
        save_dataset(path, ds)
        noisy = int((ds.provenance != 0).sum())
        print(f"wrote {path} ({len(ds)} instances, {noisy} noisy)")
    return 0


def cmd_verify(args):
    only = _split(args, "only") if args.only is not None else None
    return 0 if acceptance.run_all(only=only) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="inscorr",
        description="Training experiments on data with open-set label noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="JSON config file; defaults apply without it")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry, e.g. training.lambda=0.7")

    def add_run_args(p):
        add_config_args(p)
        p.add_argument("--output-root", help="directory for run artifacts")

    p_run = sub.add_parser("run", help="run one experiment")
    add_run_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_camp = sub.add_parser("campaign", help="run a grid of experiments")
    add_run_args(p_camp)
    p_camp.add_argument("--routes", default=",".join(ALL_ROUTES))
    p_camp.add_argument("--rates", default="0.2,0.4")
    p_camp.add_argument("--seeds", default="0,1,2")
    p_camp.add_argument("--methods", default=",".join(METHODS))
    p_camp.add_argument("--workers", type=int, default=1)
    p_camp.set_defaults(func=cmd_campaign)

    p_abl = sub.add_parser("ablate", help="sweep the mixing weight")
    add_run_args(p_abl)
    p_abl.add_argument("--weights", default="0.05,0.1,0.15,0.2,0.25,0.3")
    p_abl.add_argument("--interpretation", default="discarded",
                       choices=("discarded", "clean"),
                       help="whether swept values weight the corrected term "
                            "(discarded) or the clean term (clean)")
    p_abl.add_argument("--seeds", default="0,1,2")
    p_abl.add_argument("--workers", type=int, default=1)
    p_abl.set_defaults(func=cmd_ablate)

    p_data = sub.add_parser("make-data",
                            help="write the train, validation and test sets a run uses")
    p_data.add_argument("--out", required=True, metavar="DIR",
                        help="directory for train.inscd, val.inscd and test.inscd")
    add_config_args(p_data)
    p_data.set_defaults(func=cmd_make_data)

    p_ver = sub.add_parser("verify", help="run the acceptance checks")
    p_ver.add_argument("--only", help="comma list of check names to run")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InscorrError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
