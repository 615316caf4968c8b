"""Command line entry points.

Verbs:

  * run: one experiment from a JSON config plus --set overrides.
  * campaign: a grid of routes x rates x methods x seeds.
  * ablate: sweep the mixing weight and tabulate last-ten accuracy.
  * make-data: write synthetic dataset files.
  * verify: run the acceptance checks and report pass/fail per check.

Runs land under --output-root, the INSCORR_OUTPUT_ROOT environment
variable, or ./runs, keyed by config hash.
"""

import argparse
import concurrent.futures
import copy
import csv
import json
import sys
from pathlib import Path

from . import acceptance
from .artifacts import config_hash, output_root, write_run
from .config import apply_overrides, load_config, resolve_config
from .data import generate_ood_source, generate_synthetic, save_dataset
from .errors import ConfigError, InscorrError
from .noise import ALL_ROUTES, OPEN_SET, NoiseSpec, apply_noise
from .pipeline import METHODS


def _split(text, parse=str):
    return [parse(part) for part in text.split(",") if part]


def _load(args):
    cfg = load_config(args.config)
    return apply_overrides(cfg, args.set or [])


def _json_number(cell):
    # "" marks a cell with no successful run; 0.0 is a real accuracy
    return None if cell == "" else cell


def _summary_line(run_dir, summary):
    tail = "n/a"
    if summary["last_ten_mean"] is not None:
        tail = f"{summary['last_ten_mean']:.4f}+-{summary['last_ten_std']:.4f}"
    return (
        f"{summary['config_hash']} method={summary['method']}"
        f" epochs={summary['epochs']} last10={tail} dir={run_dir}"
    )


def cmd_run(args):
    cfg = resolve_config(_load(args))
    run_dir, summary = write_run(cfg, output_root(args.output_root))
    print(_summary_line(run_dir, summary))
    return 0


def _one_campaign_run(resolved, root):
    # module level so process pools can pickle it
    _, summary = write_run(resolved, root)
    return summary


def cmd_campaign(args):
    base = _load(args)
    routes = _split(args.routes)
    rates = _split(args.rates, float)
    seeds = _split(args.seeds, int)
    methods = _split(args.methods)
    for route in routes:
        if route not in ALL_ROUTES:
            raise ConfigError(f"unknown route {route!r}")
    for method in methods:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}")

    jobs = []
    for route in routes:
        for rate in rates:
            for method in methods:
                for seed in seeds:
                    cfg = copy.deepcopy(base)
                    cfg["noise"]["route"] = route
                    cfg["noise"]["rate"] = rate
                    cfg["method"] = method
                    for stream in cfg["seeds"]:
                        cfg["seeds"][stream] = seed
                    jobs.append(((route, rate, method), seed, resolve_config(cfg)))

    root = output_root(args.output_root)
    grid_id = config_hash({
        "base": resolve_config(base),
        "routes": routes, "rates": rates, "seeds": seeds, "methods": methods,
    })
    campaign_dir = root / f"campaign-{grid_id}"
    campaign_dir.mkdir(parents=True, exist_ok=True)

    results, failures = {}, []
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            futures = {
                pool.submit(_one_campaign_run, resolved, root): (cell, seed)
                for cell, seed, resolved in jobs
            }
            for future in concurrent.futures.as_completed(futures):
                cell, seed = futures[future]
                error = future.exception()
                if error is not None:
                    failures.append({"cell": cell, "seed": seed, "error": str(error)})
                else:
                    results.setdefault(cell, []).append(future.result())
    else:
        for cell, seed, resolved in jobs:
            try:
                results.setdefault(cell, []).append(_one_campaign_run(resolved, root))
            except Exception as error:
                results.setdefault(cell, [])
                failures.append({"cell": cell, "seed": seed, "error": str(error)})

    import numpy as np

    rows = []
    for route in routes:
        for rate in rates:
            for method in methods:
                cell = (route, rate, method)
                summaries = results.get(cell, [])
                accs = [s["last_ten_mean"] for s in summaries
                        if s["last_ten_mean"] is not None]
                mean = float(np.mean(accs)) if accs else ""
                std = float(np.std(accs)) if accs else ""
                rows.append([route, rate, method, len(seeds),
                             len(seeds) - len(summaries), mean, std])
                print(f"{route} rate={rate} {method}: "
                      + (f"{mean:.4f}+-{std:.4f}" if accs else "failed"))

    with open(campaign_dir / "campaign.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["route", "rate", "method", "n_seeds", "n_failed",
                         "mean_acc", "std_acc"])
        writer.writerows(rows)
    report = {
        "grid_id": grid_id,
        "cells": [
            {"route": r[0], "rate": r[1], "method": r[2], "n_seeds": r[3],
             "n_failed": r[4], "mean_acc": _json_number(r[5]),
             "std_acc": _json_number(r[6])}
            for r in rows
        ],
        "failures": [
            {"route": f["cell"][0], "rate": f["cell"][1], "method": f["cell"][2],
             "seed": f["seed"], "error": f["error"]}
            for f in failures
        ],
    }
    (campaign_dir / "campaign.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"campaign written to {campaign_dir}")
    return 1 if failures else 0


def cmd_ablate(args):
    base = _load(args)
    weights = sorted(_split(args.weights, float))
    seeds = _split(args.seeds, int)
    if args.interpretation not in ("discarded", "clean"):
        raise ConfigError(
            f"interpretation must be 'discarded' or 'clean', got {args.interpretation!r}"
        )
    print(f"sweeping {len(weights)} weights as the "
          f"{'corrected-term' if args.interpretation == 'discarded' else 'clean-term'}"
          f" coefficient ({args.interpretation} interpretation)")

    root = output_root(args.output_root)
    sweep_id = config_hash({
        "base": resolve_config(base), "weights": weights, "seeds": seeds,
        "interpretation": args.interpretation,
    })
    sweep_dir = root / f"ablate-{sweep_id}"
    sweep_dir.mkdir(parents=True, exist_ok=True)

    import numpy as np

    # the swept weight is lambda itself, or its complement
    sweep = sorted(((1.0 - w) if args.interpretation == "discarded" else w, w)
                   for w in weights)
    rows, failures = [], []
    for lam, weight in sweep:
        accs = []
        for seed in seeds:
            cfg = copy.deepcopy(base)
            cfg["training"]["lambda"] = lam
            for stream in cfg["seeds"]:
                cfg["seeds"][stream] = seed
            try:
                _, summary = write_run(resolve_config(cfg), root)
            except Exception as error:
                failures.append({"weight": weight, "seed": seed, "error": str(error)})
                continue
            if summary["last_ten_mean"] is not None:
                accs.append(summary["last_ten_mean"])
        mean = float(np.mean(accs)) if accs else ""
        std = float(np.std(accs)) if accs else ""
        rows.append([weight, lam, mean, std])
        print(f"weight={weight} lambda={lam}: "
              + (f"{mean:.4f}+-{std:.4f}" if accs else "failed"))

    with open(sweep_dir / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["weight", "lambda", "mean_acc", "std_acc"])
        writer.writerows(rows)
    (sweep_dir / "ablation.json").write_text(json.dumps({
        "sweep_id": sweep_id,
        "interpretation": args.interpretation,
        "rows": [{"weight": r[0], "lambda": r[1], "mean_acc": _json_number(r[2]),
                  "std_acc": _json_number(r[3])} for r in rows],
        "failures": failures,
    }, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"ablation written to {sweep_dir}")
    return 1 if failures else 0


def cmd_make_data(args):
    if args.ood:
        ds = generate_ood_source(args.n, args.height, args.width, seed=args.seed)
    else:
        ds = generate_synthetic(args.n, args.classes, args.height, args.width,
                                seed=args.seed)
        if args.route is not None:
            pool = None
            if args.route == OPEN_SET:
                pool = generate_ood_source(args.pool_size or args.n, args.height,
                                           args.width, seed=[args.seed, 1])
            ds = apply_noise(ds, args.route, args.rate, NoiseSpec(),
                             seed=args.noise_seed, pool=pool)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(path, ds)
    touched = int((ds.provenance != 0).sum())
    print(f"wrote {path} ({len(ds)} instances, {touched} noisy)")
    return 0


def cmd_verify(args):
    only = _split(args.only) if args.only else None
    report = acceptance.run_all(only=only)
    return 0 if report.all_passed else 1


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
        p.add_argument("--output-root", help="directory for run artifacts")

    p_run = sub.add_parser("run", help="run one experiment")
    add_config_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_camp = sub.add_parser("campaign", help="run a grid of experiments")
    add_config_args(p_camp)
    p_camp.add_argument("--routes", default=",".join(ALL_ROUTES))
    p_camp.add_argument("--rates", default="0.2,0.4")
    p_camp.add_argument("--seeds", default="0,1,2")
    p_camp.add_argument("--methods", default=",".join(METHODS))
    p_camp.add_argument("--workers", type=int, default=1)
    p_camp.set_defaults(func=cmd_campaign)

    p_abl = sub.add_parser("ablate", help="sweep the mixing weight")
    add_config_args(p_abl)
    p_abl.add_argument("--weights", default="0.05,0.1,0.15,0.2,0.25,0.3")
    p_abl.add_argument("--interpretation", default="discarded",
                       choices=("discarded", "clean"),
                       help="whether swept values weight the corrected term "
                            "(discarded) or the clean term (clean)")
    p_abl.add_argument("--seeds", default="0,1,2")
    p_abl.set_defaults(func=cmd_ablate)

    p_data = sub.add_parser("make-data", help="write a synthetic dataset file")
    p_data.add_argument("--out", required=True)
    p_data.add_argument("--n", type=int, default=2000)
    p_data.add_argument("--classes", type=int, default=4)
    p_data.add_argument("--height", type=int, default=16)
    p_data.add_argument("--width", type=int, default=16)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.add_argument("--ood", action="store_true",
                        help="draw from the out-of-distribution pool instead")
    p_data.add_argument("--route", choices=ALL_ROUTES,
                        help="inject noise into the generated data")
    p_data.add_argument("--rate", type=float, default=0.4)
    p_data.add_argument("--noise-seed", type=int, default=0)
    p_data.add_argument("--pool-size", type=int)
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
    except InscorrError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
