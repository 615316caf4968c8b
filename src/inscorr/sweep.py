"""One engine for grids of runs: every cell once per seed.

A cell is a partial config merged over a base config; each of its jobs
sets every seed stream to one seed. Jobs with the same pipeline.data_key
form one task, cut into chunks of at most ceil(jobs / workers) jobs when
there are fewer tasks than workers, so a one-dataset grid still keeps
every worker busy. A failing job fails alone. Outcomes come back in grid
order, whatever order tasks finish in.

Inside a task, the jobs run in grid order and share one cache
(pipeline.run_experiment): the generated data, the state at the end of
the warmup, the split and InsCorr's correction are stored under the key
of the config fields they read, and later jobs with the same key take
them instead of computing them again. So a task generates its data once,
and a warmup is trained once per warmup_key, a split made once per
split_key and an attack run once per correction_key, with every result
byte unchanged. A job that fails stores nothing of the phase that
failed, which the next job of its key computes by itself: when the data
cannot be generated, each job of the task tries again and reports the
same error, an extra generation per job paid only by a grid that fails.
"""

import concurrent.futures
import itertools
import math
from collections import namedtuple

import numpy as np

from .config import deep_merge, resolve_config, to_experiment_config
from .pipeline import data_key

# mean and population std over a cell's runs that gave a value, None if none did
CellResult = namedtuple("CellResult", "n_failed mean std")


def _run_task(run, jobs):
    """[(value, error)] of each resolved job, on one cache, in the order given."""
    cache = {}
    outcomes = []
    for resolved in jobs:
        try:
            outcomes.append((run(resolved, cache), None))
        except Exception as error:
            outcomes.append((None, str(error)))
    return outcomes


def sweep(base, cells, seeds, run, workers=1):
    """Call run(resolved, cache) for every cell and seed.

    cache is the dict of the job's task, for run to hand on to
    run_experiment. run returns the job's accuracy or None, and must
    be picklable when workers > 1. Returns (one CellResult per cell,
    failures), failures listing (cell index, seed, error message) in grid
    order.
    """
    jobs = []
    for cell in cells:
        for seed in seeds:
            seeded = {**cell, "seeds": dict.fromkeys(base["seeds"], seed)}
            jobs.append(resolve_config(deep_merge(base, seeded)))
    groups = {}
    for i, resolved in enumerate(jobs):
        groups.setdefault(data_key(to_experiment_config(resolved)), []).append(i)
    tasks = list(groups.values())
    if len(tasks) < workers:
        size = math.ceil(len(jobs) / workers)
        tasks = [group[lo:lo + size] for group in tasks
                 for lo in range(0, len(group), size)]
    batches = [[jobs[i] for i in task] for task in tasks]
    if workers > 1 and batches:
        # a forked pool starts all its workers at once: no more than batches
        with concurrent.futures.ProcessPoolExecutor(min(workers, len(batches))) as pool:
            futures = [pool.submit(_run_task, run, batch) for batch in batches]
            done = [[(None, str(f.exception()))] * len(b) if f.exception() else f.result()
                    for f, b in zip(futures, batches)]
    else:
        done = [_run_task(run, batch) for batch in batches]
    flat = itertools.chain.from_iterable
    outcomes = dict(zip(flat(tasks), flat(done)))

    results, failures = [], []
    for c in range(len(cells)):
        values, n_failed = [], 0
        for s, seed in enumerate(seeds):
            value, error = outcomes[c * len(seeds) + s]
            if error is not None:
                n_failed += 1
                failures.append((c, seed, error))
            elif value is not None:
                values.append(value)
        results.append(CellResult(n_failed, float(np.mean(values)) if values else None,
                                  float(np.std(values)) if values else None))
    return results, failures
