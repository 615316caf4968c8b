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

Importing the package itself loads none of them.
"""

__version__ = "0.1.0"
