"""Instance correction for learning with open-set noisy labels.

The package trains small MLPs on synthetic oriented-bar images whose
labels have been corrupted through one of several routes, selects
low-loss samples on a ramped keep schedule, rewrites the discarded
instances with a targeted attack, and retrains on the mixture.

Each job has one home module; import from it directly:

  * `inscorr.config`: defaults, overrides, resolution and hashing
    (`load_config`, `apply_overrides`, `resolve_config`,
    `to_experiment_config`, `config_hash`);
  * `inscorr.pipeline.run_experiment`: one run in memory;
  * `inscorr.artifacts.write_run`: one run written to its directory;
  * `inscorr.sweep.sweep`: a grid of runs sharing generated data;
  * `inscorr.attack.correct_set`: the batched targeted correction;
  * `inscorr.acceptance.run_all`: the checks behind `inscorr verify`.

Importing the package itself loads none of them. It does default
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to 1, unless set already, so
that BLAS runs one thread per process: sweep workers are forked
processes, and a BLAS thread pool in each of them oversubscribes the
cores. numpy reads these once, when it loads, so the default takes hold
only where inscorr is imported before numpy.
"""

import os as _os
import sys as _sys

__version__ = "0.1.0"

_numpy_first = "numpy" in _sys.modules
_preset = _os.environ.get("OPENBLAS_NUM_THREADS")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

# whether this process's BLAS runs one thread, so that forked workers can
# share the cores; if numpy loaded first, only a value set before counts
ONE_BLAS_THREAD = (_preset if _numpy_first else _os.environ["OPENBLAS_NUM_THREADS"]) == "1"
