"""Targeted input perturbation: nudge instances toward chosen labels.

Projected gradient descent on the targeted cross-entropy, under an Linf
or L2 budget, with the perturbed input clamped to [0, 1] after every
step. All rows of a call are attacked at once: each step is one forward
and one backward pass over the whole (m, d) batch, the backward taking
the input gradient and leaving the model's parameters alone. The rows
never mix, so a row's result matches the one it gets alone, up to the
rounding of batched matmuls:

  * the backward weighs the per-row losses by ones, not by a mean, so
    every row gets its own single-row input gradient;
  * random starts come from default_rng([seed, j]), j the row's index
    in the call;
  * each row keeps its best iterate (the lowest targeted loss, the
    unperturbed start counting as iteration 0, replaced only on a
    strict improvement), so the reported loss never exceeds the start;
  * Linf clips to the budget, L2 rescales only the rows above it, and
    every row is then clamped to [0, 1];
  * a row rejected at entry, or whose gradient turns non-finite, stays
    in the batch with a zero step and comes back unperturbed (clamped)
    with its error; the other rows go on. A row rejected for its pixels
    enters the batch as zeros, so no arithmetic sees them.

The attack runs in the model's dtype, as nn.Model does: correct_set
converts the instances to it once (a no-op for a run's float32 rows),
and every array it makes follows. Rounding x + delta moves a pixel of
[0, 1] by up to eps / 2, which can carry a row ~1e-7 past the budget in
float32, so delta is projected onto a radius inside the budget by a
margin from the dtype's eps: 2 eps for Linf, eps (sqrt(d) + budget d)
for L2, whose norms, sums of d squares, round too (~1e-15 in float64).

Working set: beside the (m, d) instances, not copied when they already
have the model's dtype, a call holds four arrays of that size and dtype:
the perturbation delta, the best iterate, one buffer for the perturbed
inputs the model sees, and the input gradient. The L2 step divides the
gradient in place, and row norms are summed _NORM_ROWS rows at a time,
so neither norm squares a whole (m, d) array. The corrected rows are
formed in the best-iterate buffer, so each result's corrected is a
view into it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .nn import cross_entropy

LINF = "linf"
L2 = "l2"

NON_FINITE = "non-finite gradient during input correction"

# rows whose squares one row-norm block holds at a time
_NORM_ROWS = 64


@dataclass(frozen=True)
class AttackConfig:
    norm: str = LINF
    budget: float = 8.0 / 255.0
    steps: int = 40
    step_size: float = None
    random_start: bool = False

    def __post_init__(self):
        if self.step_size is None:
            # standard heuristic: cross the ball a couple of times over the run
            object.__setattr__(
                self, "step_size", 2.5 * self.budget / max(self.steps, 1)
            )


@dataclass
class CorrectionResult:
    corrected: np.ndarray
    loss: float
    success: bool
    best_iteration: int
    error: str = None


def _losses_and_grads(model, x, targets):
    """Targeted losses of the rows of x and each row's input gradient."""
    outputs = model.forward(x)
    losses, probs = cross_entropy(outputs[-1], targets)
    return losses, model.backward(outputs, probs, targets, np.ones(len(x)), input_grad=True)


def _starts(x, cfg, radius, seed):
    """The starting perturbations of the rows of x: zeros, or for a random
    start one draw per row j within radius from default_rng([seed, j])."""
    if not cfg.random_start:
        return np.zeros_like(x)
    delta = np.empty_like(x)
    d = x.shape[1]
    for j in range(len(x)):
        rng = np.random.default_rng([seed, j])
        if cfg.norm == LINF:
            delta[j] = rng.uniform(-radius, radius, size=d)
        else:
            raw = rng.normal(size=d)
            length = radius * rng.uniform() ** (1.0 / d)
            delta[j] = raw * (length / max(float(np.linalg.norm(raw)), 1e-12))
    return np.clip(x + delta, 0.0, 1.0) - x


def _row_norms(a):
    """np.linalg.norm(a, axis=1) bit for bit, squaring _NORM_ROWS rows at
    a time instead of the whole array."""
    norms = np.empty(len(a), dtype=a.dtype)
    for lo in range(0, len(a), _NORM_ROWS):
        block = a[lo:lo + _NORM_ROWS]
        np.sqrt(np.add.reduce(block * block, axis=1), out=norms[lo:lo + _NORM_ROWS])
    return norms


def _project(delta, cfg, radius):
    """Project each row of delta onto the ball of radius, in place."""
    if cfg.norm == LINF:
        np.clip(delta, -radius, radius, out=delta)
    else:
        norm = _row_norms(delta)
        over = norm > radius
        delta[over] *= (radius / norm[over])[:, None]


def _correct_rows(model, x, targets, delta, cfg, radius, failed, errors):
    """Batched PGD over the rows of x from the starts delta; returns the
    arrays (corrected, loss, success, best_iteration), one entry per row.

    failed marks the rows that are not attacked, errors holds their
    messages; a row whose gradient turns non-finite joins them with
    NON_FINITE. A failed row stays in the batch with a zero step, is never
    a best iterate and gets loss NaN and best iteration 0; the caller
    restores its corrected row. delta is updated in place, and the perturbed
    inputs are written into one buffer, so the working set is delta, the
    best iterate, that buffer and the gradient, all in the dtype of x.
    """
    m = len(x)
    best_delta = delta.copy()
    best_loss = np.full(m, np.inf, dtype=x.dtype)
    best_iter = np.zeros(m, dtype=np.int64)
    inputs = np.empty_like(x)
    for k in range(cfg.steps + 1):
        loss, grad = _losses_and_grads(model, np.add(x, delta, out=inputs), targets)
        for i in np.flatnonzero(~(failed | np.isfinite(grad).all(axis=1))):
            failed[i], errors[i] = True, NON_FINITE
        if failed.any():
            grad[failed] = 0.0
        better = (loss < best_loss) & ~failed
        np.copyto(best_loss, loss, where=better)
        np.copyto(best_delta, delta, where=better[:, None])
        best_iter[better] = k
        if k == cfg.steps:
            break
        if cfg.norm == LINF:
            step = np.sign(grad, out=grad)
        else:
            step = np.divide(grad, np.maximum(_row_norms(grad), 1e-12)[:, None], out=grad)
        step *= cfg.step_size
        delta -= step
        # free the gradient before the next backward allocates its own
        del step, grad
        _project(delta, cfg, radius)
        # keep the perturbed inputs valid; clamping only shrinks delta
        np.add(x, delta, out=delta)
        np.clip(delta, 0.0, 1.0, out=delta)
        delta -= x

    corrected = np.add(x, best_delta, out=best_delta)
    success = (model.predict(corrected) == targets) & ~failed
    best_loss[failed] = np.nan
    best_iter[failed] = 0
    return corrected, best_loss, success, best_iter


def correct_set(model, instances, targets, cfg, seed=None):
    """Correct every row toward its target in one batched attack, in order.

    Model parameters are read-only. The instances are converted once to
    the parameters' dtype, which the attack and every result's corrected
    row keep. A row with a given pixel outside [0, 1] (NaN included), a target
    out of range, or a gradient that turns non-finite yields an
    unperturbed result with success False and the error message
    attached; the rest of the batch proceeds.
    """
    instances = np.asarray(instances)
    targets = np.asarray(targets)
    if instances.ndim != 2:
        raise ContractError(f"expected a 2-D batch of instances, got shape {instances.shape}")
    if len(instances) != len(targets):
        raise ContractError(
            f"{len(instances)} instances vs {len(targets)} targets"
        )
    if cfg.random_start and seed is None:
        raise ContractError("random_start needs a seed for correct_set")
    num_classes = model.spec.num_classes
    dtype = model.flat.dtype
    # tested before the conversion, and written so that NaN fails too
    bad_pixels = ~((instances >= 0.0) & (instances <= 1.0)).all(axis=1)
    bad_targets = (targets < 0) | (targets >= num_classes)
    failed = bad_pixels | bad_targets
    errors = [None] * len(instances)
    for j in np.flatnonzero(failed):
        errors[j] = ("instance values must lie in [0, 1]" if bad_pixels[j]
                     else f"target {int(targets[j])} outside [0, {num_classes})")
    # a row rejected for its pixels enters the batch as zeros; no copy of
    # the instances when they are in the model's dtype and C order
    x = np.where(bad_pixels[:, None], 0.0, instances) if bad_pixels.any() else instances
    x = np.ascontiguousarray(x, dtype=dtype)
    eps, d = float(np.finfo(x.dtype).eps), x.shape[1]
    margin = 2 * eps if cfg.norm == LINF else eps * (d ** 0.5 + cfg.budget * d)
    radius = max(cfg.budget - margin, 0.0)
    delta = _starts(x, cfg, radius, seed)
    # a rejected target is never attacked; 0 only gives its loss an index
    targets = np.where(bad_targets, 0, targets).astype(np.int64)
    corrected, loss, success, best_iter = _correct_rows(
        model, x, targets, delta, cfg, radius, failed, errors)
    # every failed row comes back as its given row clamped in the model's
    # dtype, where a pixel past its range converts to inf
    with np.errstate(over="ignore"):
        corrected[failed] = np.clip(instances[failed].astype(dtype), 0.0, 1.0)
    return [
        CorrectionResult(corrected[i], float(loss[i]), bool(success[i]),
                         int(best_iter[i]), errors[i])
        for i in range(len(x))
    ]
