"""Datasets: synthetic grid images, provenance tracking, and file formats.

Instances are 16x16 (by default) grayscale grids flattened to rows of a
float64 matrix, values in [0, 1]. In-distribution classes are oriented
bars; the out-of-distribution pool holds periodic textures
(checkerboards and stripes) that share the pixel space but none of the
class structure.

Provenance records how each instance entered the training set: drawn
clean, swapped in from the out-of-distribution pool (label kept, truth
gone), or corrupted in place (pixels damaged, original class retained in
true_labels).

Dataset container (version 1), fields after magic+version:
    n u64 | d u64 | num_classes u32 | has_shape u8 | h u32 | w u32
    X float64 row-major [n, d]
    given_labels int32 [n]      (-1 when absent)
    provenance uint8 [n]
    true_labels int32 [n]       (-1 when absent)
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .containers import ContainerReader, ContainerWriter, read_file
from .errors import ContractError, DimensionError, LabelError

DATASET_MAGIC = b"INSCDSET"
DATASET_VERSION = 1

NO_LABEL = -1


class Provenance(enum.IntEnum):
    CLEAN = 0
    OPEN_SET = 1
    CORRUPTED = 2


@dataclass
class Dataset:
    X: np.ndarray
    given_labels: np.ndarray
    true_labels: np.ndarray
    provenance: np.ndarray
    num_classes: int
    grid_shape: tuple = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.given_labels = np.asarray(self.given_labels, dtype=np.int32)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int32)
        self.provenance = np.asarray(self.provenance, dtype=np.uint8)
        if self.X.ndim != 2:
            raise DimensionError(f"X must be 2-D, got shape {self.X.shape}")
        n = self.X.shape[0]
        for name, arr in (
            ("given_labels", self.given_labels),
            ("true_labels", self.true_labels),
            ("provenance", self.provenance),
        ):
            if arr.shape != (n,):
                raise DimensionError(
                    f"{name} shape {arr.shape} does not match {n} instances"
                )
        for name, arr in (("given_labels", self.given_labels), ("true_labels", self.true_labels)):
            bad = (arr < NO_LABEL) | (arr >= self.num_classes)
            if bad.any():
                i = int(np.argmax(bad))
                raise LabelError(
                    f"{name}[{i}] = {int(arr[i])} outside [0, {self.num_classes}) and not {NO_LABEL}"
                )
        if self.grid_shape is not None:
            h, w = self.grid_shape
            self.grid_shape = (int(h), int(w))
            if h * w != self.X.shape[1]:
                raise DimensionError(
                    f"grid shape {self.grid_shape} does not flatten to width {self.X.shape[1]}"
                )

    def __len__(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]

    def subset(self, indices):
        idx = np.asarray(indices)
        return Dataset(
            self.X[idx].copy(),
            self.given_labels[idx].copy(),
            self.true_labels[idx].copy(),
            self.provenance[idx].copy(),
            self.num_classes,
            self.grid_shape,
        )

    def copy(self):
        return self.subset(np.arange(len(self)))

    def grid(self, i):
        """Instance i as a 2-D view."""
        if self.grid_shape is None:
            raise ContractError("dataset has no grid shape")
        return self.X[i].reshape(self.grid_shape)


def _bar_image(height, width, theta, cy, cx, fg, bg, bar_width, bar_length):
    ys = np.arange(height)[:, None] - cy
    xs = np.arange(width)[None, :] - cx
    # perpendicular and longitudinal coordinates of the segment through
    # (cy, cx) at angle theta
    perp = np.abs(xs * np.sin(theta) - ys * np.cos(theta))
    longi = xs * np.cos(theta) + ys * np.sin(theta)
    envelope = np.exp(-0.5 * ((perp / bar_width) ** 2 + (longi / bar_length) ** 2))
    return bg + (fg - bg) * envelope


def generate_synthetic(
    n,
    num_classes,
    height=16,
    width=16,
    seed=0,
    angle_jitter_deg=3.5,
    center_jitter=0.3,
    pixel_noise=0.18,
    fg=0.92,
    bg=0.08,
    bar_width=0.8,
    bar_length=3.5,
):
    """Oriented-segment classes: class k is a short thin bar at angle
    pi*k/num_classes through the (jittered) image center.

    Angle jitter is small relative to the class spacing, so orientation
    alone identifies the class; difficulty comes from per-pixel noise at
    a scale comparable to the bar contrast. A few noisy examples do not
    pin the decision boundaries down, which keeps the task sensitive to
    how much usable training data survives selection, and pixel damage
    (occlusion, fading, downsampling) removes most of the class evidence.
    """
    if num_classes < 2:
        raise ContractError(f"num_classes must be at least 2, got {num_classes}")
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    X = np.empty((n, height * width))
    jitter_rad = np.deg2rad(angle_jitter_deg)
    for i in range(n):
        theta = np.pi * labels[i] / num_classes + rng.normal(0.0, jitter_rad)
        cy = (height - 1) / 2.0 + rng.normal(0.0, center_jitter)
        cx = (width - 1) / 2.0 + rng.normal(0.0, center_jitter)
        img = _bar_image(
            height, width, theta, cy, cx,
            fg=fg, bg=bg, bar_width=bar_width, bar_length=bar_length,
        )
        img += rng.normal(0.0, pixel_noise, size=(height, width))
        X[i] = np.clip(img, 0.0, 1.0).ravel()
    lab = labels.astype(np.int32)
    return Dataset(
        X, lab, lab.copy(),
        np.full(n, Provenance.CLEAN, dtype=np.uint8),
        num_classes, (height, width),
    )


def generate_ood_source(
    n,
    height=16,
    width=16,
    seed=0,
    num_classes=4,
    margin_lo_deg=4.0,
    margin_hi_deg=12.0,
    fg=0.92,
    bg=0.08,
    bar_width=0.8,
    bar_length=3.0,
    pixel_noise=0.2,
    center_jitter=0.9,
):
    """Bars at orientations deliberately offset from every class angle;
    labels absent.

    Each instance is a bar whose angle sits between margin_lo_deg and
    margin_hi_deg away from the nearest class orientation: the same
    visual family as the labeled classes, but orientation categories
    outside the label space. Pool bars are shorter and noisier than
    class bars, so a partially trained classifier stays uncertain about
    them instead of adopting the nearest class early.
    """
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    if num_classes < 2:
        raise ContractError(f"num_classes must be at least 2, got {num_classes}")
    half_gap = 180.0 / num_classes / 2.0
    if not 0.0 < margin_lo_deg < margin_hi_deg <= half_gap:
        raise ContractError(
            f"need 0 < margin_lo < margin_hi <= {half_gap} degrees, "
            f"got ({margin_lo_deg}, {margin_hi_deg})"
        )
    rng = np.random.default_rng(seed)
    spacing = np.pi / num_classes
    X = np.empty((n, height * width))
    for i in range(n):
        k = rng.integers(num_classes)
        off = np.deg2rad(rng.uniform(margin_lo_deg, margin_hi_deg)) * rng.choice((-1, 1))
        theta = (k * spacing + off) % np.pi
        cy = height / 2 + rng.uniform(-center_jitter, center_jitter)
        cx = width / 2 + rng.uniform(-center_jitter, center_jitter)
        seg = _bar_image(
            height, width, theta, cy, cx,
            fg=1.0, bg=0.0, bar_width=bar_width, bar_length=bar_length,
        )
        img = bg + (fg - bg) * seg + rng.normal(0.0, pixel_noise, size=(height, width))
        X[i] = np.clip(img, 0.0, 1.0).ravel()
    absent = np.full(n, NO_LABEL, dtype=np.int32)
    return Dataset(
        X, absent, absent.copy(),
        np.full(n, Provenance.CLEAN, dtype=np.uint8),
        num_classes=0, grid_shape=(height, width),
    )


def split_validation(ds, fraction, seed):
    """Disjoint (train, validation) split by seeded permutation.

    fraction 0 is allowed and yields an empty validation set.
    """
    if not 0.0 <= fraction < 1.0:
        raise ContractError(f"fraction must lie in [0, 1), got {fraction}")
    n = len(ds)
    n_val = int(np.floor(fraction * n + 0.5))
    if n_val >= n:
        raise ContractError(
            f"fraction {fraction} of {n} instances leaves no training side"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return ds.subset(np.sort(perm[n_val:])), ds.subset(np.sort(perm[:n_val]))


def permutation_batches(rng, n, batch_size):
    """Seeded permutation of range(n) cut into batches; final short batch kept."""
    if batch_size < 1:
        raise ContractError(f"batch_size must be positive, got {batch_size}")
    perm = rng.permutation(n)
    return [perm[i:i + batch_size] for i in range(0, n, batch_size)]


def save_dataset(path, ds):
    w = ContainerWriter(DATASET_MAGIC, DATASET_VERSION)
    n, d = ds.X.shape
    w.pack("<QQI", n, d, ds.num_classes)
    if ds.grid_shape is None:
        w.pack("<BII", 0, 0, 0)
    else:
        w.pack("<BII", 1, ds.grid_shape[0], ds.grid_shape[1])
    w.array(ds.X, np.float64)
    w.array(ds.given_labels, np.int32)
    w.array(ds.provenance, np.uint8)
    w.array(ds.true_labels, np.int32)
    w.save(path)


def load_dataset(path):
    r = ContainerReader(read_file(path), DATASET_MAGIC, DATASET_VERSION)
    n, d, num_classes = r.unpack("<QQI")
    has_shape, h, wdt = r.unpack("<BII")
    X = r.array(np.float64, (int(n), int(d)))
    given = r.array(np.int32, (int(n),))
    prov = r.array(np.uint8, (int(n),))
    true = r.array(np.int32, (int(n),))
    r.finish()
    shape = (h, wdt) if has_shape else None
    return Dataset(X, given, true, prov, int(num_classes), shape)
