"""Synthetic data properties, splits, and container round trips."""

import numpy as np
import pytest

from inscorr.data import (
    NO_LABEL,
    Dataset,
    Provenance,
    generate_ood_source,
    generate_synthetic,
    load_dataset,
    permutation_batches,
    save_dataset,
    split_validation,
)
from inscorr.errors import (
    ChecksumError,
    ContractError,
    LabelError,
    TruncatedError,
)


def linear_probe_accuracy(train, test):
    """One-hot least-squares probe, independent of the package's model stack."""
    n, c = len(train), train.num_classes
    onehot = np.zeros((n, c))
    onehot[np.arange(n), train.given_labels] = 1.0
    A = np.hstack([train.X, np.ones((n, 1))])
    coef, *_ = np.linalg.lstsq(A, onehot, rcond=None)
    At = np.hstack([test.X, np.ones((len(test), 1))])
    pred = np.argmax(At @ coef, axis=1)
    return float(np.mean(pred == test.given_labels))


def test_synthetic_basic_invariants():
    ds = generate_synthetic(200, 4, seed=0)
    assert len(ds) == 200
    assert ds.dim == 256
    assert ds.grid_shape == (16, 16)
    assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0
    assert set(np.unique(ds.given_labels)) <= set(range(4))
    assert np.array_equal(ds.given_labels, ds.true_labels)
    assert np.all(ds.provenance == Provenance.CLEAN)


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(50, 3, seed=5)
    b = generate_synthetic(50, 3, seed=5)
    c = generate_synthetic(50, 3, seed=6)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.given_labels, b.given_labels)
    assert not np.array_equal(a.X, c.X)


def test_synthetic_classes_linearly_separable():
    train = generate_synthetic(1500, 4, seed=1)
    test = generate_synthetic(400, 4, seed=2)
    assert linear_probe_accuracy(train, test) >= 0.92


def test_synthetic_needs_hundreds_of_examples():
    # pixel noise must keep a small-sample fit well below a large-sample
    # fit, otherwise discarding training data would carry no cost
    test = generate_synthetic(800, 4, seed=4)
    small = linear_probe_accuracy(generate_synthetic(250, 4, seed=3), test)
    large = linear_probe_accuracy(generate_synthetic(1000, 4, seed=3), test)
    assert small <= 0.85
    assert large >= 0.99


def test_ood_pool_has_no_labels_and_valid_range():
    pool = generate_ood_source(120, seed=7)
    assert len(pool) == 120
    assert np.all(pool.given_labels == NO_LABEL)
    assert np.all(pool.true_labels == NO_LABEL)
    assert pool.X.min() >= 0.0 and pool.X.max() <= 1.0
    assert pool.num_classes == 0


def _principal_angle_deg(img, grid=(16, 16)):
    """Orientation of the bright mass's principal axis, in [0, 180)."""
    g = img.reshape(grid)
    w = np.clip(g - 0.5, 0.0, None)
    ys, xs = np.mgrid[0: grid[0], 0: grid[1]]
    wy, wx = (w * ys).sum() / w.sum(), (w * xs).sum() / w.sum()
    syy = (w * (ys - wy) ** 2).sum() / w.sum()
    sxx = (w * (xs - wx) ** 2).sum() / w.sum()
    sxy = (w * (ys - wy) * (xs - wx)).sum() / w.sum()
    return np.rad2deg(0.5 * np.arctan2(2 * sxy, sxx - syy)) % 180.0


def test_ood_pool_orientations_avoid_class_angles():
    # the pool contract: bar angles keep a margin from every labeled
    # orientation; measured on noiseless instances where the moment
    # estimator is reliable
    pool = generate_ood_source(200, seed=9, pixel_noise=0.0)
    class_angles = np.array([0.0, 45.0, 90.0, 135.0, 180.0])
    dists = np.array([
        np.min(np.abs(class_angles - _principal_angle_deg(pool.X[i])))
        for i in range(len(pool))
    ])
    # the estimator itself is a few degrees off on short discretized bars,
    # so bound quantiles rather than extremes
    assert np.quantile(dists, 0.1) >= 2.0
    assert np.median(dists) >= 4.0
    assert dists.max() <= 14.5


def test_dataset_label_validation():
    X = np.zeros((3, 4))
    with pytest.raises(LabelError, match=r"given_labels\[1\] = 5"):
        Dataset(X, np.array([0, 5, 1]), np.full(3, -1), np.zeros(3), num_classes=3)
    with pytest.raises(LabelError, match="-2"):
        Dataset(X, np.array([0, 1, 1]), np.array([0, -2, 1]), np.zeros(3), num_classes=3)


def test_subset_is_a_copy():
    ds = generate_synthetic(20, 2, seed=10)
    sub = ds.subset(np.array([0, 1, 2]))
    sub.X[0, 0] = -99.0
    assert ds.X[0, 0] >= 0.0
    assert len(sub) == 3


def test_split_validation_partition():
    ds = generate_synthetic(100, 3, seed=11)
    train, val = split_validation(ds, 0.1, seed=12)
    assert len(val) == 10 and len(train) == 90
    # re-split is identical
    train2, val2 = split_validation(ds, 0.1, seed=12)
    assert np.array_equal(val.X, val2.X)
    # no instance appears on both sides
    seen = {tuple(row) for row in train.X}
    assert not any(tuple(row) in seen for row in val.X)


def test_split_validation_zero_fraction_keeps_everything():
    ds = generate_synthetic(10, 2, seed=13)
    train, val = split_validation(ds, 0.0, seed=0)
    assert len(val) == 0
    assert np.array_equal(train.X, ds.X)
    assert np.array_equal(train.given_labels, ds.given_labels)


def test_split_validation_bad_fraction():
    ds = generate_synthetic(10, 2, seed=13)
    with pytest.raises(ContractError):
        split_validation(ds, -0.1, seed=0)
    with pytest.raises(ContractError):
        split_validation(ds, 1.0, seed=0)
    with pytest.raises(ContractError):
        # rounds to the whole dataset, leaving no training side
        split_validation(ds, 0.99, seed=0)


def test_permutation_batches_cover_exactly_once():
    rng = np.random.default_rng(14)
    batches = permutation_batches(rng, 103, 32)
    assert [len(b) for b in batches] == [32, 32, 32, 7]
    flat = np.concatenate(batches)
    assert np.array_equal(np.sort(flat), np.arange(103))


def test_dataset_round_trip_exact(tmp_path):
    ds = generate_synthetic(40, 4, seed=15)
    ds.provenance[3] = Provenance.OPEN_SET
    ds.true_labels[3] = NO_LABEL
    path = str(tmp_path / "ds.bin")
    save_dataset(path, ds)
    back = load_dataset(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.given_labels, ds.given_labels)
    assert np.array_equal(back.true_labels, ds.true_labels)
    assert np.array_equal(back.provenance, ds.provenance)
    assert back.num_classes == 4
    assert back.grid_shape == (16, 16)


def test_ood_pool_round_trip(tmp_path):
    pool = generate_ood_source(30, seed=16)
    path = str(tmp_path / "pool.bin")
    save_dataset(path, pool)
    back = load_dataset(path)
    assert back.num_classes == 0
    assert np.array_equal(back.X, pool.X)


def test_dataset_file_corruption_detected(tmp_path):
    ds = generate_synthetic(10, 2, seed=17)
    path = tmp_path / "ds.bin"
    save_dataset(str(path), ds)
    raw = path.read_bytes()

    (tmp_path / "trunc.bin").write_bytes(raw[:-40])
    with pytest.raises(TruncatedError):
        load_dataset(str(tmp_path / "trunc.bin"))

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0x01
    (tmp_path / "flip.bin").write_bytes(bytes(flipped))
    with pytest.raises(ChecksumError):
        load_dataset(str(tmp_path / "flip.bin"))

