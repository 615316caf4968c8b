"""One engine for grids of runs: every cell once per seed.

A cell is a partial config merged over a base config; each of its jobs
sets every seed stream to one seed. Jobs with the same pipeline.data_key
form one task, cut into chunks of at most ceil(jobs / workers) jobs when
there are fewer tasks than workers, so a one-dataset grid still keeps
every worker busy. With workers > 1 each task runs in a worker process
of its own, at most workers at once. A failing job fails alone, also
when it kills its process: it fails with the exit code, the rest of its
task goes on in a new process, and no job runs twice. Outcomes come
back in grid order, whatever order tasks finish in.

Inside a task, the jobs run in grid order and share one cache
(pipeline.run_experiment): the generated data, the state after the
warmup (every run's first min(warmup_epochs, selection_epochs) selection
epochs), the split and InsCorr's correction are stored under the key of
the config fields they read, and later jobs with the same key take them
instead of computing them again. So a task generates its data once,
and a warmup is trained once per warmup_key, a split made once per
split_key and an attack run once per correction_key, with every result
byte unchanged. A job that fails stores nothing of the phase that
failed, which the next job of its key computes by itself: when the data
cannot be generated, each job of the task tries again and reports the
same error, an extra generation per job paid only by a grid that fails.
"""

import itertools
import math
from collections import namedtuple
from multiprocessing import Pipe, Process
from multiprocessing.connection import wait

import numpy as np

from .config import deep_merge, resolve_config, to_experiment_config
from .pipeline import data_key

# mean and population std over a cell's runs that gave a value, None if none did
CellResult = namedtuple("CellResult", "n_failed mean std")


def _outcomes(run, jobs):
    """Yield (value, error) of each resolved job, on one cache, in the order given."""
    cache = {}
    for resolved in jobs:
        try:
            yield run(resolved, cache), None
        except Exception as error:
            yield None, str(error)


def _send_outcomes(connection, run, jobs):
    for outcome in _outcomes(run, jobs):
        connection.send(outcome)


def _run_in_processes(run, batches, workers):
    """The outcomes of each batch, run in worker processes, one per batch
    and at most workers at once, that send each job's outcome as it ends.
    A process that dies fails the job it was running, naming the exit
    code, and the rest of its batch goes on in a new process."""
    done = [[] for _ in batches]
    pending = list(range(len(batches)))
    running = {}  # a process's receiving end: (its batch's index, the process)
    try:
        while pending or running:
            while pending and len(running) < workers:
                b = pending.pop(0)
                receiver, sender = Pipe(duplex=False)
                process = Process(target=_send_outcomes,
                                  args=(sender, run, batches[b][len(done[b]):]))
                process.start()
                sender.close()  # the child holds the last copy: its exit is our EOF
                running[receiver] = b, process
            for receiver in wait(list(running)):
                try:
                    done[running[receiver][0]].append(receiver.recv())
                except EOFError:
                    b, process = running.pop(receiver)
                    receiver.close()
                    process.join()
                    if len(done[b]) < len(batches[b]):
                        done[b].append((None, "worker process died with exit code "
                                              f"{process.exitcode}"))
                        if len(done[b]) < len(batches[b]):
                            pending.insert(0, b)
    finally:
        # when the parent raises, no worker is left running
        for _, process in running.values():
            process.terminate()
            process.join()
    return done


def sweep(base, cells, seeds, run, workers=1):
    """Call run(resolved, cache) for every cell and seed.

    cache is the dict of the job's task, for run to hand on to
    run_experiment. run returns the job's accuracy or None, and must be
    picklable when workers > 1 under a start method other than fork.
    Returns (one CellResult per cell, failures), failures listing (cell
    index, seed, error message) in grid order.
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
    if workers > 1:
        done = _run_in_processes(run, batches, workers)
    else:
        done = [list(_outcomes(run, batch)) for batch in batches]
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
