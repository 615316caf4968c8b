"""Datasets: synthetic grid images, provenance tracking, and file formats.

Instances are 16x16 (by default) grayscale grids flattened to rows of a
float32 matrix, values in [0, 1]. In-distribution classes are oriented
bars; out-of-distribution rows (generate_ood_source) are shorter,
noisier bars at angles offset from every class angle, so they share the
pixel space and the visual family but none of the label space.

float32 is the one dtype of Dataset.X, the precision runs train in. The
generators render each block of rows in float64 and round it once into
X, so a set is held at the bytes the model reads and a training batch
enters the model without a cast. Code that needs float64 pixels (noise
injection) widens the rows it works on, which is exact.

Provenance records how each instance entered the training set: drawn
clean, swapped for an out-of-distribution row (label kept, truth gone),
or corrupted in place (pixels damaged, class unchanged). The true labels
derive from it: the given label on every row but an OPEN_SET one.

Dataset container (version 4), fields after magic+version:
    n u64 | num_classes u32 | h u32 | w u32
    X float32 row-major [n, h * w]
    given_labels int32 [n]      (always a class in [0, num_classes))
    provenance uint8 [n]        (always a Provenance in [0, 3))
Versions 1 (float64 X), 2 (with stored true labels) and 3 (with a row
width beside h and w, and a flag that had to be 1) are no longer read.
"""

import enum
from dataclasses import dataclass, replace

import numpy as np

from .containers import ContainerReader, ContainerWriter, read_file
from .errors import ContractError, FormatError

DATASET_MAGIC = b"INSCDSET"
DATASET_VERSION = 4

NO_LABEL = -1


class Provenance(enum.IntEnum):
    CLEAN = 0
    OPEN_SET = 1
    CORRUPTED = 2


@dataclass
class Dataset:
    X: np.ndarray
    given_labels: np.ndarray
    provenance: np.ndarray
    num_classes: int
    grid_shape: tuple

    def __post_init__(self):
        # any X given is rounded to float32, the one dtype of X
        self.X = np.asarray(self.X, dtype=np.float32)
        if self.X.ndim != 2:
            raise ContractError(f"X must be 2-D, got shape {self.X.shape}")
        n = self.X.shape[0]
        # a given label is always a class, a provenance always a Provenance;
        # checked as given, since the casts would wrap 2**32 or 256 to 0
        # and truncate 1.5 to 1
        for name, high, dtype in (("given_labels", self.num_classes, np.int32),
                                  ("provenance", len(Provenance), np.uint8)):
            arr = np.asarray(getattr(self, name))
            if arr.shape != (n,):
                raise ContractError(
                    f"{name} shape {arr.shape} does not match {n} instances"
                )
            bad = (arr < 0) | (arr >= high)
            if arr.dtype.kind == "f":
                bad |= arr != np.floor(arr)
            if bad.any():
                i = int(np.argmax(bad))
                raise ContractError(f"{name}[{i}] = {arr[i]} is not an integer in [0, {high})")
            setattr(self, name, arr.astype(dtype, copy=False))
        h, w = self.grid_shape
        self.grid_shape = (int(h), int(w))
        if h * w != self.X.shape[1]:
            raise ContractError(
                f"grid shape {self.grid_shape} does not flatten to width {self.X.shape[1]}"
            )

    def __len__(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]

    @property
    def true_labels(self):
        """given_labels with NO_LABEL on the OPEN_SET rows, whose class lies
        outside the label space; read-only, as writes to it would be lost."""
        out = np.where(self.provenance == Provenance.OPEN_SET, NO_LABEL, self.given_labels)
        out.flags.writeable = False
        return out

    def subset(self, indices):
        # indexing with an array already copies
        idx = np.asarray(indices)
        return Dataset(self.X[idx], self.given_labels[idx], self.provenance[idx],
                       self.num_classes, self.grid_shape)

    def copy(self):
        return self.subset(np.arange(len(self)))

    def grid(self, i):
        """Instance i as a 2-D view."""
        return self.X[i].reshape(self.grid_shape)


# rows rendered per block: larger blocks are no faster and raise peak memory
_BLOCK_ROWS = 64

# bar shapes: class bars, then the out-of-distribution ones, which are
# shorter and noisier and keep 4 to 12 degrees from every class angle
_FG = 0.92
_BG = 0.08
_BAR_WIDTH = 0.8
_BAR_LENGTH = 3.5
_ANGLE_JITTER_DEG = 3.5
_CENTER_JITTER = 0.3
_PIXEL_NOISE = 0.18
_OOD_BAR_LENGTH = 3.0
_OOD_MARGIN_LO_DEG = 4.0
_OOD_MARGIN_HI_DEG = 12.0
_OOD_CENTER_JITTER = 0.9
_OOD_PIXEL_NOISE = 0.2


def _bar_image(height, width, theta, cy, cx, fg, bg, bar_width, bar_length):
    """(n, height, width) stack of bars, one per entry of the (n,) arrays
    theta, cy and cx."""
    ys = np.arange(height)[None, :, None] - cy[:, None, None]
    xs = np.arange(width)[None, None, :] - cx[:, None, None]
    sin = np.sin(theta)[:, None, None]
    cos = np.cos(theta)[:, None, None]
    # perpendicular and longitudinal coordinates of the segment through
    # (cy, cx) at angle theta
    perp = np.abs(xs * sin - ys * cos)
    longi = xs * cos + ys * sin
    envelope = np.exp(-0.5 * ((perp / bar_width) ** 2 + (longi / bar_length) ** 2))
    return bg + (fg - bg) * envelope


def generate_synthetic(n, num_classes, height=16, width=16, seed=0):
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
    X = np.empty((n, height * width), dtype=np.float32)
    jitter_rad = np.deg2rad(_ANGLE_JITTER_DEG)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        # per row: angle, centre y, centre x, then the pixel noise; one
        # standard-normal draw per block consumes the stream in the same
        # order as a row-by-row rng.normal(loc, scale), which computes
        # loc + scale * z
        z = rng.standard_normal((hi - lo, 3 + height * width))
        theta = np.pi * labels[lo:hi] / num_classes + (0.0 + jitter_rad * z[:, 0])
        cy = (height - 1) / 2.0 + (0.0 + _CENTER_JITTER * z[:, 1])
        cx = (width - 1) / 2.0 + (0.0 + _CENTER_JITTER * z[:, 2])
        img = _bar_image(
            height, width, theta, cy, cx,
            fg=_FG, bg=_BG, bar_width=_BAR_WIDTH, bar_length=_BAR_LENGTH,
        )
        img += (0.0 + _PIXEL_NOISE * z[:, 3:]).reshape(-1, height, width)
        # clamped in float64, rounded once to float32 as it lands in X
        np.clip(img.reshape(hi - lo, -1), 0.0, 1.0, out=X[lo:hi])
    return Dataset(
        X, labels.astype(np.int32), np.full(n, Provenance.CLEAN, dtype=np.uint8),
        num_classes, (height, width),
    )


def check_ood_margins(num_classes):
    """ContractError unless the out-of-distribution angle margins fit
    between the class angles: the outer margin may be at most half the
    class spacing, which allows at most 7 classes."""
    if num_classes < 2:
        raise ContractError(f"num_classes must be at least 2, got {num_classes}")
    half_gap = 180.0 / num_classes / 2.0
    if _OOD_MARGIN_HI_DEG > half_gap:
        raise ContractError(
            f"out-of-distribution bars keep {_OOD_MARGIN_LO_DEG} to {_OOD_MARGIN_HI_DEG} "
            f"degrees from every class angle, but {num_classes} classes leave "
            f"{half_gap} on each side"
        )


def generate_ood_source(n, height=16, width=16, seed=0, num_classes=4):
    """n bars at orientations deliberately offset from every class angle,
    as a float32 (n, height * width) array of pixel rows: the rows have no
    labels, and their pixels are all that open-set noise reads.

    Each instance is a bar whose angle sits 4 to 12 degrees away from
    the nearest class orientation: the same visual family as the labeled
    classes, but orientation categories outside the label space. These
    bars are shorter and noisier than class bars, so a partially trained
    classifier stays uncertain about them instead of adopting the
    nearest class early.

    Every row's class, margin, side and centre are drawn first, as
    vectors; the pixel noise follows in row order, one block at a time,
    so the bits do not depend on the block size.
    """
    if n < 0:
        raise ContractError(f"n must be non-negative, got {n}")
    check_ood_margins(num_classes)
    rng = np.random.default_rng(seed)
    k = rng.integers(num_classes, size=n)
    u = rng.random(n)
    side = rng.integers(2, size=n)
    centre = rng.random((n, 2))
    # rng.uniform(low, high) computes low + (high - low) * rng.random()
    off = np.deg2rad(_OOD_MARGIN_LO_DEG + (_OOD_MARGIN_HI_DEG - _OOD_MARGIN_LO_DEG) * u)
    theta = (k * (np.pi / num_classes) + off * (2 * side - 1)) % np.pi
    centre_span = _OOD_CENTER_JITTER - -_OOD_CENTER_JITTER
    cy, cx = (np.array([height / 2, width / 2])
              + (-_OOD_CENTER_JITTER + centre_span * centre)).T
    X = np.empty((n, height * width), dtype=np.float32)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        img = _bar_image(
            height, width, theta[lo:hi], cy[lo:hi], cx[lo:hi],
            fg=_FG, bg=_BG, bar_width=_BAR_WIDTH, bar_length=_OOD_BAR_LENGTH,
        )
        # rng.normal(0.0, scale) computes 0.0 + scale * z, and img > 0
        img += _OOD_PIXEL_NOISE * rng.standard_normal((hi - lo, height, width))
        # clamped in float64, rounded once to float32 as it lands in X
        np.clip(img.reshape(hi - lo, -1), 0.0, 1.0, out=X[lo:hi])
    return X


def round_half_up(x):
    """x rounded to the nearest integer, halves up: the one rounding rule of
    every count derived from a fraction."""
    return int(np.floor(x + 0.5))


def split_validation(ds, fraction, seed):
    """Disjoint (train, validation) split by seeded permutation.

    fraction 0 is allowed and yields an empty validation set.
    """
    if not 0.0 <= fraction < 1.0:
        raise ContractError(f"fraction must lie in [0, 1), got {fraction}")
    n = len(ds)
    n_val = round_half_up(fraction * n)
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
    # checked again, since its arrays may have changed in place: a bad row
    # is a ContractError here, not a file load_dataset rejects
    ds = replace(ds)
    w = ContainerWriter(DATASET_MAGIC, DATASET_VERSION)
    w.pack("<QIII", len(ds), ds.num_classes, *ds.grid_shape)
    w.array(ds.X, np.float32)
    w.array(ds.given_labels, np.int32)
    w.array(ds.provenance, np.uint8)
    w.save(path)


def load_dataset(path):
    r = ContainerReader(read_file(path), DATASET_MAGIC, DATASET_VERSION)
    n, num_classes, h, wdt = r.unpack("<QIII")
    # the row width in Python ints, so that an n * h * w past int64 still
    # reads as more than the body holds
    X = r.array(np.float32, (n, h * wdt))
    given = r.array(np.int32, (n,))
    prov = r.array(np.uint8, (n,))
    r.finish()
    try:
        return Dataset(X, given, prov, num_classes, (h, wdt))
    except ContractError as error:
        raise FormatError(f"{path}: {error}") from error
