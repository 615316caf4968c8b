"""Synthetic data properties, splits, and container round trips."""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from inscorr import data
from inscorr.containers import ContainerWriter
from inscorr.data import (
    DATASET_MAGIC,
    DATASET_VERSION,
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
from inscorr.errors import ContractError, FormatError

from helpers import assert_every_damage_is_a_format_error, damaged


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


def _reference_bar(height, width, theta, cy, cx, fg, bg, bar_width, bar_length):
    ys = np.arange(height)[:, None] - cy
    xs = np.arange(width)[None, :] - cx
    perp = np.abs(xs * np.sin(theta) - ys * np.cos(theta))
    longi = xs * np.cos(theta) + ys * np.sin(theta)
    envelope = np.exp(-0.5 * ((perp / bar_width) ** 2 + (longi / bar_length) ** 2))
    return bg + (fg - bg) * envelope


def _reference_synthetic(n, num_classes, height, width, seed):
    """generate_synthetic's pixels drawn and rendered one row at a time."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    X = np.empty((n, height * width))
    for i in range(n):
        theta = np.pi * labels[i] / num_classes + rng.normal(0.0, np.deg2rad(3.5))
        cy = (height - 1) / 2.0 + rng.normal(0.0, 0.3)
        cx = (width - 1) / 2.0 + rng.normal(0.0, 0.3)
        img = _reference_bar(height, width, theta, cy, cx, 0.92, 0.08, 0.8, 3.5)
        img += rng.normal(0.0, 0.18, size=(height, width))
        X[i] = np.clip(img, 0.0, 1.0).ravel()
    # the float64 rows, rounded once to the dtype of Dataset.X
    return X.astype(np.float32), labels


def _reference_ood(n, height, width, seed, num_classes):
    """generate_ood_source's pixels: every row's class, margin, side and
    centre drawn as vectors first, then each row rendered with its pixel
    noise, one row at a time."""
    rng = np.random.default_rng(seed)
    spacing = np.pi / num_classes
    ks = rng.integers(num_classes, size=n)
    offs = np.deg2rad(rng.uniform(4.0, 12.0, size=n)) * np.array((-1, 1))[rng.integers(2, size=n)]
    centres = rng.uniform(-0.9, 0.9, size=(n, 2))
    X = np.empty((n, height * width))
    for i in range(n):
        theta = (ks[i] * spacing + offs[i]) % np.pi
        cy = height / 2 + centres[i, 0]
        cx = width / 2 + centres[i, 1]
        seg = _reference_bar(height, width, theta, cy, cx, 1.0, 0.0, 0.8, 3.0)
        img = 0.08 + (0.92 - 0.08) * seg + rng.normal(0.0, 0.2, size=(height, width))
        X[i] = np.clip(img, 0.0, 1.0).ravel()
    return X.astype(np.float32)


@pytest.mark.parametrize("n, height, width", [
    (1, 16, 16),
    (data._BLOCK_ROWS + 1, 16, 16),
    (70, 12, 20),
])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_generators_match_row_loop_reference_bitwise(n, height, width, seed):
    # block rendering must draw the stream in the original per-row order
    ds = generate_synthetic(n, 4, height, width, seed=seed)
    X, labels = _reference_synthetic(n, 4, height, width, seed)
    assert np.array_equal(ds.X, X)
    assert np.array_equal(ds.given_labels, labels)
    pool = generate_ood_source(n, height, width, seed=seed)
    assert np.array_equal(pool, _reference_ood(n, height, width, seed, 4))


@pytest.mark.parametrize("n, height, width", [
    (data._BLOCK_ROWS + 1, 16, 16),
    (70, 12, 20),
])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("num_classes", [3, 5])
def test_ood_pool_matches_row_loop_reference_at_other_class_counts(
    n, height, width, seed, num_classes
):
    # integers(num_classes) has a bound that is no power of two here, so it
    # may reject draws; the pixel noise must still start where it does in
    # the reference
    pool = generate_ood_source(n, height, width, seed=seed, num_classes=num_classes)
    assert np.array_equal(pool, _reference_ood(n, height, width, seed, num_classes))


def test_ood_rows_do_not_depend_on_the_block_size(monkeypatch):
    # the pixel noise is drawn in row order, however the rows are blocked
    want = generate_ood_source(2 * data._BLOCK_ROWS + 5, 8, 6, seed=4, num_classes=3)
    monkeypatch.setattr(data, "_BLOCK_ROWS", 7)
    assert np.array_equal(generate_ood_source(len(want), 8, 6, seed=4, num_classes=3), want)


def test_ood_source_of_no_rows_is_empty():
    empty = generate_ood_source(0, 8, 6, seed=0)
    assert empty.shape == (0, 8 * 6) and empty.dtype == np.float32
    with pytest.raises(ContractError, match="non-negative"):
        generate_ood_source(-1, 8, 6, seed=0)


def test_ood_pool_has_no_labels_and_valid_range():
    # out-of-distribution rows are bare pixels: no labels, no provenance
    pool = generate_ood_source(120, seed=7)
    assert isinstance(pool, np.ndarray)
    assert pool.shape == (120, 16 * 16) and pool.dtype == np.float32
    assert pool.min() >= 0.0 and pool.max() <= 1.0


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


def test_ood_pool_orientations_avoid_class_angles(monkeypatch):
    # the pool contract: bar angles keep a margin from every labeled
    # orientation; measured on noiseless instances where the moment
    # estimator is reliable
    monkeypatch.setattr(data, "_OOD_PIXEL_NOISE", 0.0)
    pool = generate_ood_source(200, seed=9)
    class_angles = np.array([0.0, 45.0, 90.0, 135.0, 180.0])
    dists = np.array([
        np.min(np.abs(class_angles - _principal_angle_deg(pool[i])))
        for i in range(len(pool))
    ])
    # the estimator itself is a few degrees off on short discretized bars,
    # so bound quantiles rather than extremes
    assert np.quantile(dists, 0.1) >= 2.0
    assert np.median(dists) >= 4.0
    assert dists.max() <= 14.5


def test_dataset_label_validation():
    X = np.zeros((3, 4))
    with pytest.raises(ContractError, match=r"given_labels\[1\] = 5"):
        Dataset(X, np.array([0, 5, 1]), np.zeros(3), 3, (2, 2))


@pytest.mark.parametrize("bad", [len(Provenance), 9, 200])
def test_a_provenance_is_always_a_provenance(bad):
    X = np.zeros((3, 4))
    with pytest.raises(ContractError,
                       match=rf"provenance\[1\] = {bad} is not an integer in \[0, 3\)"):
        Dataset(X, np.array([0, 1, 1]), np.array([0, bad, 1]), 3, (2, 2))


@pytest.mark.parametrize("labels, provenance, match", [
    # int32 would wrap 2**32 to 0, uint8 256 to 0 and -255 to 1
    (np.array([0, 2**32]), np.array([256, -255]), r"given_labels\[1\] = 4294967296 "),
    (np.array([0, 1]), np.array([256, -255]), r"provenance\[0\] = 256 "),
    # a cast would truncate 1.5 to 1
    (np.array([0, 1.5]), np.zeros(2), r"given_labels\[1\] = 1\.5 "),
    (np.array([0, np.nan]), np.zeros(2), r"given_labels\[1\] = nan "),
    (np.zeros(2), np.array([0.0, 1.5]), r"provenance\[1\] = 1\.5 "),
])
def test_labels_and_provenance_are_checked_before_the_cast(labels, provenance, match):
    with pytest.raises(ContractError, match=match + r"is not an integer in \[0, 3\)"):
        Dataset(np.zeros((2, 4)), labels, provenance, 3, (2, 2))


@st.composite
def _label_arrays(draw):
    """(num_classes, given_labels, provenance): integer arrays of one length,
    each of any integer dtype and byte order, holding small values (mostly
    valid) or any value of the dtype, past int32 and uint8 included."""
    n = draw(st.integers(0, 6))
    num_classes = draw(st.sampled_from([2, 3, 7, 2**31]))

    def values():
        dtype = draw(st.one_of(hnp.integer_dtypes(), hnp.unsigned_integer_dtypes()))
        return draw(hnp.arrays(dtype, n, elements=st.one_of(
            st.integers(0, 3), hnp.from_dtype(dtype))))

    return num_classes, values(), values()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=_label_arrays())
# the casts would wrap 2**32 to 0, 256 to 0 and -255 to 1
@example(case=(3, np.array([0, 2**32]), np.array([256, -255])))
@example(case=(3, np.array([0, 1]), np.array([256, -255], dtype=np.int16)))
def test_integer_labels_build_as_given_or_name_their_first_bad_row(case):
    num_classes, labels, provenance = case
    n = len(labels)
    try:
        ds = Dataset(np.zeros((n, 4)), labels, provenance, num_classes, (2, 2))
    except ContractError as error:
        for name, arr, high in (("given_labels", labels, num_classes),
                                ("provenance", provenance, len(Provenance))):
            bad = [i for i, v in enumerate(arr.tolist()) if not 0 <= v < high]
            if bad:
                i = bad[0]
                assert str(error) == (
                    f"{name}[{i}] = {arr.tolist()[i]} is not an integer in [0, {high})")
                break
        else:
            raise AssertionError(f"no row is bad, yet: {error}")
    else:
        assert ds.given_labels.dtype == np.int32 and ds.provenance.dtype == np.uint8
        assert ds.given_labels.tolist() == labels.tolist()
        assert ds.provenance.tolist() == provenance.tolist()


def test_true_labels_derive_from_provenance_and_are_read_only():
    ds = generate_synthetic(6, 3, 2, 2, seed=4)
    ds.provenance[[1, 4]] = Provenance.OPEN_SET
    ds.provenance[2] = Provenance.CORRUPTED
    want = ds.given_labels.copy()
    want[[1, 4]] = NO_LABEL
    assert ds.true_labels.dtype == np.int32
    assert np.array_equal(ds.true_labels, want)
    # an in-place write would change nothing, so it fails instead
    with pytest.raises(ValueError, match="read-only"):
        ds.true_labels[0] = NO_LABEL


def test_a_given_label_is_always_a_class():
    # NO_LABEL marks only the true label of a row from the out-of-distribution pool
    X = np.zeros((3, 4))
    with pytest.raises(ContractError,
                       match=r"given_labels\[2\] = -1 is not an integer in \[0, 3\)"):
        Dataset(X, np.array([0, 1, NO_LABEL]), np.zeros(3), 3, (2, 2))


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


def test_every_dataset_holds_float32_rows():
    # generated sets, their subsets and any X given are float32
    assert generate_synthetic(70, 4, seed=1).X.dtype == np.float32
    assert generate_ood_source(70, seed=1).dtype == np.float32
    wide = np.random.default_rng(2).random((5, 4))
    ds = Dataset(wide, np.zeros(5), np.zeros(5), 2, (2, 2))
    assert ds.X.dtype == np.float32 and np.array_equal(ds.X, wide.astype(np.float32))
    assert ds.subset([4, 1]).X.dtype == np.float32


def test_dataset_round_trip_exact(tmp_path):
    ds = generate_synthetic(40, 4, seed=15)
    ds.provenance[3] = Provenance.OPEN_SET
    ds.provenance[5] = Provenance.CORRUPTED
    path = str(tmp_path / "ds.bin")
    save_dataset(path, ds)
    back = load_dataset(path)
    assert back.X.dtype == np.float32
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.given_labels, ds.given_labels)
    assert np.array_equal(back.provenance, ds.provenance)
    assert back.true_labels[3] == NO_LABEL
    assert np.array_equal(back.true_labels, ds.true_labels)
    assert back.num_classes == 4
    assert back.grid_shape == (16, 16)


def _reference_dataset_bytes(ds):
    """Dataset format v4 written field by field, with struct and zlib alone."""
    out = b"INSCDSET" + struct.pack("<IQIII", 4, len(ds), ds.num_classes, *ds.grid_shape)
    out += b"".join(row.astype("<f4").tobytes() for row in ds.X)
    out += ds.given_labels.astype("<i4").tobytes() + ds.provenance.astype("u1").tobytes()
    return out + struct.pack("<I", zlib.crc32(out))


def test_dataset_file_matches_a_field_by_field_writer(tmp_path):
    ds = generate_synthetic(12, 3, 3, 5, seed=16)
    ds.provenance[[2, 7]] = Provenance.OPEN_SET, Provenance.CORRUPTED
    path = tmp_path / "ds.inscd"
    save_dataset(str(path), ds)
    assert path.read_bytes() == _reference_dataset_bytes(ds)


def test_every_truncation_or_flipped_byte_of_a_dataset_is_a_format_error(tmp_path):
    ds = generate_synthetic(3, 2, 2, 2, seed=16)
    ds.provenance[1] = Provenance.OPEN_SET
    path = tmp_path / "small.inscd"
    save_dataset(str(path), ds)
    assert_every_damage_is_a_format_error(path.read_bytes(), path,
                                          lambda p: load_dataset(str(p)))


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(0, 5), height=st.integers(1, 4), width=st.integers(1, 4),
       num_classes=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), damage=st.data())
def test_any_small_dataset_cut_short_or_with_a_byte_changed_is_a_format_error(
        tmp_path, n, height, width, num_classes, seed, damage):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.random((n, height * width)), rng.integers(num_classes, size=n),
                 rng.integers(len(Provenance), size=n), num_classes, (height, width))
    path = tmp_path / "any.inscd"
    save_dataset(str(path), ds)
    path.write_bytes(damaged(damage, path.read_bytes()))
    with pytest.raises(FormatError):
        load_dataset(str(path))


def test_dataset_file_corruption_detected(tmp_path):
    ds = generate_synthetic(10, 2, seed=17)
    path = tmp_path / "ds.bin"
    save_dataset(str(path), ds)
    raw = path.read_bytes()

    (tmp_path / "trunc.bin").write_bytes(raw[:-40])
    with pytest.raises(FormatError, match="needed"):
        load_dataset(str(tmp_path / "trunc.bin"))

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0x01
    (tmp_path / "flip.bin").write_bytes(bytes(flipped))
    with pytest.raises(FormatError, match="crc mismatch"):
        load_dataset(str(tmp_path / "flip.bin"))


def test_dataset_version_1_is_not_read(tmp_path):
    # version 1 held X as float64
    assert DATASET_VERSION == 4
    path = tmp_path / "ds.bin"
    save_dataset(str(path), generate_synthetic(10, 2, seed=18))
    old = bytearray(path.read_bytes())
    old[8] = 1
    path.write_bytes(bytes(old))
    with pytest.raises(FormatError, match="version 1 is not the supported version 4"):
        load_dataset(str(path))


def test_dataset_version_2_is_not_read(tmp_path):
    # version 2 stored the true labels after the provenance
    ds = generate_synthetic(10, 2, 2, 2, seed=18)
    w = ContainerWriter(DATASET_MAGIC, 2)
    w.pack("<QQI", 10, 4, 2)
    w.pack("<BII", 1, 2, 2)
    w.array(ds.X, np.float32)
    w.array(ds.given_labels, np.int32)
    w.array(ds.provenance, np.uint8)
    w.array(ds.true_labels, np.int32)
    path = tmp_path / "v2.bin"
    w.save(path)
    with pytest.raises(FormatError, match="version 2 is not the supported version 4"):
        load_dataset(str(path))


@pytest.mark.parametrize("n, d", [(2**62, 4), (4, 2**62), (2**64 - 1, 0)])
def test_dataset_header_past_int64_is_truncation(tmp_path, n, d):
    # n * d * 4 bytes overflows int64, where d = h * w is the row width the
    # reader derives; it must still see it as more than the body holds, and
    # so must more rows than int64 holds of width 0
    side = math.isqrt(d)
    w = ContainerWriter(DATASET_MAGIC, DATASET_VERSION)
    w.pack("<QIII", n, 2, side, side)
    w.array(np.zeros(64), np.float32)
    path = tmp_path / "huge.bin"
    w.save(path)
    with pytest.raises(FormatError, match="needed"):
        load_dataset(str(path))


def test_save_dataset_refuses_a_label_changed_out_of_range(tmp_path):
    # a Dataset's arrays can change after it was checked; the writer checks again
    ds = generate_synthetic(10, 4, seed=20)
    ds.given_labels[2] = NO_LABEL
    path = tmp_path / "ds.bin"
    with pytest.raises(ContractError,
                       match=r"given_labels\[2\] = -1 is not an integer in \[0, 4\)"):
        save_dataset(str(path), ds)
    assert not path.exists()


def test_save_dataset_refuses_a_provenance_changed_out_of_range(tmp_path):
    ds = generate_synthetic(10, 4, seed=20)
    ds.provenance[7] = 9
    path = tmp_path / "ds.bin"
    with pytest.raises(ContractError,
                       match=r"provenance\[7\] = 9 is not an integer in \[0, 3\)"):
        save_dataset(str(path), ds)
    assert not path.exists()


def _write_unchecked(path, ds):
    """ds in a well-framed dataset file, without save_dataset's checks."""
    w = ContainerWriter(DATASET_MAGIC, DATASET_VERSION)
    w.pack("<QIII", len(ds), ds.num_classes, *ds.grid_shape)
    w.array(ds.X, np.float32)
    w.array(ds.given_labels, np.int32)
    w.array(ds.provenance, np.uint8)
    w.save(path)


def test_a_well_framed_dataset_with_a_bad_label_is_a_format_error(tmp_path):
    # framing and crc are sound; the content is not a Dataset
    ds = generate_synthetic(10, 4, seed=20)
    ds.given_labels[2] = NO_LABEL
    path = tmp_path / "labels.bin"
    _write_unchecked(path, ds)
    with pytest.raises(FormatError, match=r"labels\.bin: given_labels\[2\] = -1"
                                          r" is not an integer in \[0, 4\)"):
        load_dataset(str(path))


def test_a_well_framed_dataset_with_a_bad_provenance_is_a_format_error(tmp_path):
    ds = generate_synthetic(10, 4, seed=20)
    ds.provenance[2] = 9
    path = tmp_path / "provenance.bin"
    _write_unchecked(path, ds)
    with pytest.raises(FormatError, match=r"provenance\.bin: provenance\[2\] = 9"
                                          r" is not an integer in \[0, 3\)"):
        load_dataset(str(path))


def test_dataset_version_3_is_not_read(tmp_path):
    # version 3 stored the row width beside h and w, and a grid flag that had to be 1
    ds = generate_synthetic(3, 2, 2, 2, seed=19)
    w = ContainerWriter(DATASET_MAGIC, 3)
    w.pack("<QQI", 3, 4, 2)
    w.pack("<BII", 1, 2, 2)
    w.array(ds.X, np.float32)
    w.array(ds.given_labels, np.int32)
    w.array(ds.provenance, np.uint8)
    path = tmp_path / "v3.bin"
    w.save(path)
    with pytest.raises(FormatError, match="version 3 is not the supported version 4"):
        load_dataset(str(path))


@pytest.mark.parametrize("flag", [0, 2])
def test_dataset_without_the_grid_flag_is_rejected(tmp_path, flag):
    # the version-3 body, grid flag and row width included, labelled as the
    # current version: the reader takes no flag, so it reads n, classes, h = 0
    # and w = 2 from the old header and finds the rest of the body left over
    ds = generate_synthetic(3, 2, 2, 2, seed=19)
    w = ContainerWriter(DATASET_MAGIC, DATASET_VERSION)
    w.pack("<QQI", 3, 4, 2)
    w.pack("<BII", flag, 2, 2)
    w.array(ds.X, np.float32)
    w.array(ds.given_labels, np.int32)
    w.array(ds.provenance, np.uint8)
    path = tmp_path / "flag.bin"
    w.save(path)
    with pytest.raises(FormatError, match="57 unexpected trailing bytes in body"):
        load_dataset(str(path))
