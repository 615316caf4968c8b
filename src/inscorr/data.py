"""Datasets: synthetic grid images, provenance tracking, and file formats.

Instances are 16x16 (by default) grayscale grids flattened to rows of a
float32 matrix, values in [0, 1]. In-distribution classes are oriented
bars; the out-of-distribution pool holds shorter, noisier bars at
angles offset from every class angle, so they share the pixel space
and the visual family but none of the label space.

float32 is the one dtype of Dataset.X, the precision runs train in. The
generators render each block of rows in float64 and round it once into
X, so a set is held at the bytes the model reads and a training batch
enters the model without a cast. Code that needs float64 pixels (noise
injection) widens the rows it works on, which is exact.

Provenance records how each instance entered the training set: drawn
clean, swapped in from the out-of-distribution pool (label kept, truth
gone), or corrupted in place (pixels damaged, original class retained in
true_labels).

Dataset container (version 2), fields after magic+version:
    n u64 | d u64 | num_classes u32 | has_shape u8 | h u32 | w u32
    (has_shape is 1: every Dataset has a grid; any other flag is rejected)
    X float32 row-major [n, d]
    given_labels int32 [n]      (always a class in [0, num_classes))
    provenance uint8 [n]
    true_labels int32 [n]       (-1 for a row from the OOD pool)
Version 1, which held X as float64, is no longer read.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .containers import ContainerReader, ContainerWriter, read_file
from .errors import ContractError, FormatError

DATASET_MAGIC = b"INSCDSET"
DATASET_VERSION = 2

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
    grid_shape: tuple

    def __post_init__(self):
        # any X given is rounded to float32, the one dtype of X
        self.X = np.asarray(self.X, dtype=np.float32)
        self.given_labels = np.asarray(self.given_labels, dtype=np.int32)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int32)
        self.provenance = np.asarray(self.provenance, dtype=np.uint8)
        if self.X.ndim != 2:
            raise ContractError(f"X must be 2-D, got shape {self.X.shape}")
        n = self.X.shape[0]
        for name, arr in (
            ("given_labels", self.given_labels),
            ("true_labels", self.true_labels),
            ("provenance", self.provenance),
        ):
            if arr.shape != (n,):
                raise ContractError(
                    f"{name} shape {arr.shape} does not match {n} instances"
                )
        # a given label is always a class; a true label is NO_LABEL for a
        # row swapped in from the out-of-distribution pool
        for name, arr, low in (("given_labels", self.given_labels, 0),
                               ("true_labels", self.true_labels, NO_LABEL)):
            bad = (arr < low) | (arr >= self.num_classes)
            if bad.any():
                i = int(np.argmax(bad))
                raise ContractError(
                    f"{name}[{i}] = {int(arr[i])} outside [{low}, {self.num_classes})"
                )
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

    def subset(self, indices):
        # indexing with an array already copies
        idx = np.asarray(indices)
        return Dataset(
            self.X[idx],
            self.given_labels[idx],
            self.true_labels[idx],
            self.provenance[idx],
            self.num_classes,
            self.grid_shape,
        )

    def copy(self):
        return self.subset(np.arange(len(self)))

    def grid(self, i):
        """Instance i as a 2-D view."""
        return self.X[i].reshape(self.grid_shape)


# rows rendered per block: larger blocks are no faster and raise peak memory
_BLOCK_ROWS = 64

# bar shapes: class bars, then the pool's, which are shorter and noisier
# and keep 4 to 12 degrees from every class angle
_FG = 0.92
_BG = 0.08
_BAR_WIDTH = 0.8
_BAR_LENGTH = 3.5
_ANGLE_JITTER_DEG = 3.5
_CENTER_JITTER = 0.3
_PIXEL_NOISE = 0.18
_POOL_BAR_LENGTH = 3.0
_POOL_MARGIN_LO_DEG = 4.0
_POOL_MARGIN_HI_DEG = 12.0
_POOL_CENTER_JITTER = 0.9
_POOL_PIXEL_NOISE = 0.2


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
    lab = labels.astype(np.int32)
    return Dataset(
        X, lab, lab.copy(),
        np.full(n, Provenance.CLEAN, dtype=np.uint8),
        num_classes, (height, width),
    )


def check_pool_margins(num_classes):
    """ContractError unless the pool's angle margins fit between the class
    angles: the outer margin may be at most half the class spacing, which
    allows at most 7 classes."""
    if num_classes < 2:
        raise ContractError(f"num_classes must be at least 2, got {num_classes}")
    half_gap = 180.0 / num_classes / 2.0
    if _POOL_MARGIN_HI_DEG > half_gap:
        raise ContractError(
            f"pool bars keep {_POOL_MARGIN_LO_DEG} to {_POOL_MARGIN_HI_DEG} degrees "
            f"from every class angle, but {num_classes} classes leave {half_gap} "
            f"on each side"
        )


def generate_ood_source(n, height=16, width=16, seed=0, num_classes=4, rows=None):
    """Bars at orientations deliberately offset from every class angle, as
    a float32 (len(rows), height * width) array of pixel rows: the pool has
    no labels, and its pixels are all that open-set noise reads.

    Each instance is a bar whose angle sits 4 to 12 degrees away from
    the nearest class orientation: the same visual family as the labeled
    classes, but orientation categories outside the label space. Pool bars are shorter and noisier than
    class bars, so a partially trained classifier stays uncertain about
    them instead of adopting the nearest class early.

    The pool has n rows. rows, distinct indices into it in any order,
    picks the ones returned, in that order (all n when None): the pool
    is drawn whole, since each row draws from the stream after the ones
    before it, but only the picked rows are rendered and held, each with
    the bits it has in the whole pool. With rows=noise.pool_sources(...)
    the result is the pool inject_open_set takes.
    """
    if n < 1:
        raise ContractError(f"n must be positive, got {n}")
    check_pool_margins(num_classes)
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    if (rows.ndim != 1 or np.any((rows < 0) | (rows >= n))
            or np.unique(rows).size != rows.size):
        raise ContractError(f"rows must be distinct indices into a pool of {n}")
    # where[i]: the output row of pool row i, -1 for a row not picked
    where = np.full(n, -1, dtype=np.int64)
    where[rows] = np.arange(rows.size)
    rng = np.random.default_rng(seed)
    spacing = np.pi / num_classes
    # rng.uniform(low, high) computes low + (high - low) * rng.random()
    margin_span = _POOL_MARGIN_HI_DEG - _POOL_MARGIN_LO_DEG
    centre_span = _POOL_CENTER_JITTER - -_POOL_CENTER_JITTER
    middle = np.array([height / 2, width / 2])
    X = np.empty((rows.size, height * width), dtype=np.float32)
    for lo in range(0, n, _BLOCK_ROWS):
        m = min(lo + _BLOCK_ROWS, n) - lo
        k, side = np.empty((2, m), dtype=np.int64)
        u = np.empty(m)
        centre = np.empty((m, 2))
        noise = np.empty((m, height, width))
        # the draws stay per row, in their original order: class, margin,
        # sign ((-1, 1)[integers(2)] is what rng.choice((-1, 1)) draws),
        # centre y and x, pixel noise; scalar integer draws cannot be
        # batched without changing the bits they take from the stream
        for j in range(m):
            k[j] = rng.integers(num_classes)
            u[j] = rng.random()
            side[j] = rng.integers(2)
            rng.random(out=centre[j])
            rng.standard_normal(out=noise[j])
        pos = where[lo:lo + m]
        picked = pos >= 0
        if not picked.any():
            continue
        k, side, u = k[picked], side[picked], u[picked]
        centre, noise = centre[picked], noise[picked]
        off = np.deg2rad(_POOL_MARGIN_LO_DEG + margin_span * u) * (2 * side - 1)
        theta = (k * spacing + off) % np.pi
        cy, cx = (middle + (-_POOL_CENTER_JITTER + centre_span * centre)).T
        img = _bar_image(
            height, width, theta, cy, cx,
            fg=1.0, bg=0.0, bar_width=_BAR_WIDTH, bar_length=_POOL_BAR_LENGTH,
        )
        img *= _FG - _BG
        img += _BG
        # rng.normal(0.0, scale) computes 0.0 + scale * z
        noise *= _POOL_PIXEL_NOISE
        noise += 0.0
        img += noise
        np.clip(img, 0.0, 1.0, out=img)
        # rounded to float32 as the rows land in X
        X[pos[picked]] = img.reshape(len(img), -1)
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
    w = ContainerWriter(DATASET_MAGIC, DATASET_VERSION)
    n, d = ds.X.shape
    w.pack("<QQI", n, d, ds.num_classes)
    w.pack("<BII", 1, *ds.grid_shape)
    w.array(ds.X, np.float32)
    w.array(ds.given_labels, np.int32)
    w.array(ds.provenance, np.uint8)
    w.array(ds.true_labels, np.int32)
    w.save(path)


def load_dataset(path):
    r = ContainerReader(read_file(path), DATASET_MAGIC, DATASET_VERSION)
    n, d, num_classes = r.unpack("<QQI")
    has_shape, h, wdt = r.unpack("<BII")
    if has_shape != 1:
        raise FormatError(f"has_shape flag {has_shape} is not 1: every dataset has a grid")
    X = r.array(np.float32, (int(n), int(d)))
    given = r.array(np.int32, (int(n),))
    prov = r.array(np.uint8, (int(n),))
    true = r.array(np.int32, (int(n),))
    r.finish()
    return Dataset(X, given, true, prov, int(num_classes), (h, wdt))
