"""Open-set label noise: instance replacement and in-place corruption.

Two injection routes, both label-preserving (the given label never
changes; what changes is whether the instance still matches it):

  * open-set replacement: a class-balanced subset of instances is
    swapped for out-of-distribution rows, a bare array of pixel rows
    holding exactly one row per replaced instance. The original label is
    kept, the true label becomes absent (provenance OPEN_SET).
  * corruption: a uniform subset of instances is damaged in place by
    one of five pixel transforms. The true label is still the given one,
    since the underlying class is unchanged.

RNG streams are split so that which instances are hit depends only on
(seed, route), never on the corruption kind or its parameters; runs
that differ only in kind therefore damage the same subset.

    [seed, 0]            corruption: which instances
    [seed, 1, kind]      corruption: transform randomness
    [seed, 2]            replacement: which instances per class
    [seed, 3]            replacement: the rows written (pipeline.prepare_data
                         draws them with data.generate_ood_source)

The corruptions work in float64 on the float32 rows they hit, widened
exactly, and store their results rounded to float32, the dtype of every
Dataset.X; the replacement route copies float32 rows as they are.

Runs damage their rows with NoiseSpec()'s defaults (apply_noise); the
transforms take any NoiseSpec. Degenerate parameters are exact
identities: sigma 0, occlusion fraction 0, resolution factor 1, fog
intensity 0, and blur length 1 all return bit-equal pixels.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data import _BLOCK_ROWS, Provenance, round_half_up
from .errors import CapacityError, ContractError


class NoiseKind(enum.IntEnum):
    GAUSSIAN = 0
    OCCLUSION = 1
    RESOLUTION = 2
    FOG = 3
    MOTION_BLUR = 4


OPEN_SET = "open_set"
KIND_NAMES = {k.name.lower(): k for k in NoiseKind}
ALL_ROUTES = (OPEN_SET,) + tuple(KIND_NAMES)


@dataclass(frozen=True)
class NoiseSpec:
    gaussian_sigma: float = 0.25
    occlusion_fraction: float = 0.25
    resolution_factor: int = 4
    fog_intensity: float = 0.8
    fog_decay: float = 1.0
    blur_length: int = 5
    blur_angle_deg: float = 0.0


def corruption_transform(grids, kind, spec, rng):
    """Damaged float64 copy of one (h, w) grid or of a (k, h, w) stack of
    grids, widened to float64 first; output clamped to [0, 1], shape kept.

    A stack draws from rng exactly as its grids would one after another.
    """
    grids = np.asarray(grids, dtype=np.float64)
    if grids.ndim not in (2, 3):
        raise ContractError(f"expected a 2-D grid or a 3-D stack, got shape {grids.shape}")
    # a single grid is a stack of one
    stack = grids[None] if grids.ndim == 2 else grids
    count, h, w = stack.shape

    if kind == NoiseKind.GAUSSIAN:
        # one block draw takes the same numbers as one draw per grid
        out = rng.normal(0.0, spec.gaussian_sigma, size=stack.shape)
        out += stack
    elif kind == NoiseKind.OCCLUSION:
        side = np.sqrt(spec.occlusion_fraction)
        rh = round_half_up(h * side)
        rw = round_half_up(w * side)
        # top then left, one scalar draw each, grid by grid
        corners = np.array([
            (rng.integers(0, h - rh + 1), rng.integers(0, w - rw + 1))
            for _ in range(count)
        ], dtype=np.int64).reshape(count, 2, 1)
        rows = np.arange(h) - corners[:, 0]
        cols = np.arange(w) - corners[:, 1]
        inside = (((rows >= 0) & (rows < rh))[:, :, None]
                  & ((cols >= 0) & (cols < rw))[:, None, :])
        out = np.where(inside, 0.5, stack)
    elif kind == NoiseKind.RESOLUTION:
        out = kernels.block_resample(stack, int(spec.resolution_factor))
    elif kind == NoiseKind.FOG:
        rows = np.arange(h, dtype=np.float64)[:, None]
        with np.errstate(over="ignore"):  # a huge decay: exp(-inf) = 0
            t = spec.fog_intensity * np.exp(-spec.fog_decay * rows / h)
        out = (1.0 - t) * stack
        out += t * 1.0
    elif kind == NoiseKind.MOTION_BLUR:
        length = int(spec.blur_length)
        theta = np.deg2rad(spec.blur_angle_deg)
        offsets = np.arange(length, dtype=np.float64) - (length - 1) / 2.0
        dxs = np.array([round_half_up(t * np.cos(theta)) for t in offsets], dtype=np.int64)
        dys = np.array([round_half_up(t * np.sin(theta)) for t in offsets], dtype=np.int64)
        out = kernels.line_blur(stack, dys, dxs)
    else:
        raise ContractError(f"unknown corruption kind {kind!r}")
    return np.clip(out, 0.0, 1.0, out=out).reshape(grids.shape)


def inject_corruption(ds, kind, rate, spec, seed):
    """Corrupt a uniform round(rate*n) subset in place (on a copy).

    kind is a NoiseKind; apply_noise maps a route name to it. The hit
    rows are damaged in ascending order, _BLOCK_ROWS at a time, which
    draws from the stream as one stack of them all would. Each block is
    widened to float64, transformed, and rounded back into the float32
    copy.
    """
    if not 0.0 <= rate <= 1.0:
        raise ContractError(f"rate must lie in [0, 1], got {rate}")
    if not isinstance(kind, NoiseKind):
        raise ContractError(f"unknown corruption kind {kind!r}")
    n = len(ds)
    k = round_half_up(rate * n)
    which_rng = np.random.default_rng([seed, 0])
    hit = np.sort(which_rng.choice(n, size=k, replace=False))
    transform_rng = np.random.default_rng([seed, 1, int(kind)])
    out = ds.copy()
    for lo in range(0, k, _BLOCK_ROWS):
        rows = hit[lo:lo + _BLOCK_ROWS]
        out.X[rows] = corruption_transform(
            ds.X[rows].reshape(len(rows), *ds.grid_shape), kind, spec, transform_rng
        ).reshape(len(rows), ds.dim)
    out.provenance[hit] = Provenance.CORRUPTED
    return out


def inject_open_set(ds, ood_rows, rate, seed):
    """Replace a class-balanced round(rate*n) subset with ood_rows.

    ood_rows is a 2-D array of pixel rows as wide as the dataset's,
    holding exactly the k = round(rate*n) rows to write; any other shape
    raises ContractError. They are written as they are, the i-th drawn
    row into the i-th replaced instance in ascending order. Counts per
    class are k // c with the remainder spread over seeded distinct
    classes; a class without enough members raises CapacityError.
    """
    if not 0.0 <= rate <= 1.0:
        raise ContractError(f"rate must lie in [0, 1], got {rate}")
    if ood_rows.ndim != 2 or ood_rows.shape[1] != ds.dim:
        raise ContractError(
            f"ood_rows must be 2-D rows of dataset width {ds.dim}, got shape {ood_rows.shape}"
        )
    n, c = len(ds), ds.num_classes
    k = round_half_up(rate * n)
    if len(ood_rows) != k:
        raise ContractError(
            f"ood_rows must hold the {k} replacement rows, got {len(ood_rows)}"
        )
    which_rng = np.random.default_rng([seed, 2])
    counts = np.full(c, k // c, dtype=np.int64)
    remainder = k - counts.sum()
    if remainder:
        extra = which_rng.choice(c, size=remainder, replace=False)
        counts[extra] += 1
    targets = []
    for cls in range(c):
        members = np.flatnonzero(ds.given_labels == cls)
        if counts[cls] > members.size:
            raise CapacityError(
                f"class {cls} has {members.size} members, cannot replace {int(counts[cls])}"
            )
        picked = which_rng.choice(members, size=int(counts[cls]), replace=False)
        targets.append(picked)
    targets = np.sort(np.concatenate(targets)) if targets else np.empty(0, dtype=np.int64)

    out = ds.copy()
    out.X[targets] = ood_rows
    out.provenance[targets] = Provenance.OPEN_SET
    return out


def apply_noise(ds, route, rate, seed, ood_rows=None):
    """Dispatch on route name: 'open_set' or one of the corruption kinds.

    On the open_set route ood_rows goes to inject_open_set; a corruption
    route becomes the NoiseKind that inject_corruption takes, with
    NoiseSpec()'s defaults.
    """
    if route == OPEN_SET:
        if ood_rows is None:
            raise ContractError("open_set noise requires out-of-distribution rows")
        return inject_open_set(ds, ood_rows, rate, seed)
    if route in KIND_NAMES:
        return inject_corruption(ds, KIND_NAMES[route], rate, NoiseSpec(), seed)
    raise ContractError(f"unknown noise route {route!r}; valid: {ALL_ROUTES}")
