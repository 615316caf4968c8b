"""Noise injection invariants and per-kind transform oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inscorr import kernels
from inscorr.data import (
    NO_LABEL,
    Provenance,
    generate_ood_source,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from inscorr.errors import CapacityError, ContractError
from inscorr.noise import (
    ALL_ROUTES,
    NoiseKind,
    NoiseSpec,
    apply_noise,
    corruption_transform,
    inject_corruption,
    inject_open_set,
)

SPEC = NoiseSpec()


def fixed_grid(h=8, w=8, seed=0):
    return np.random.default_rng(seed).random((h, w))


def _half_up(x):
    return int(np.floor(x + 0.5))


def _reference_transform(grid, kind, spec, rng):
    """One (h, w) grid damaged on its own, as the transforms were first
    written; the kernels' stacked forms have loop oracles of their own."""
    h, w = grid.shape
    if kind == NoiseKind.GAUSSIAN:
        out = grid + rng.normal(0.0, spec.gaussian_sigma, size=(h, w))
    elif kind == NoiseKind.OCCLUSION:
        side = np.sqrt(spec.occlusion_fraction)
        rh, rw = _half_up(h * side), _half_up(w * side)
        top = int(rng.integers(0, h - rh + 1))
        left = int(rng.integers(0, w - rw + 1))
        out = grid.copy()
        out[top:top + rh, left:left + rw] = 0.5
    elif kind == NoiseKind.RESOLUTION:
        out = kernels.block_resample(grid, int(spec.resolution_factor))
    elif kind == NoiseKind.FOG:
        rows = np.arange(h, dtype=np.float64)[:, None]
        t = spec.fog_intensity * np.exp(-spec.fog_decay * rows / h)
        out = (1.0 - t) * grid + t * 1.0
    else:
        offsets = np.arange(spec.blur_length, dtype=np.float64) - (spec.blur_length - 1) / 2.0
        theta = np.deg2rad(spec.blur_angle_deg)
        dxs = np.array([_half_up(t * np.cos(theta)) for t in offsets], dtype=np.int64)
        dys = np.array([_half_up(t * np.sin(theta)) for t in offsets], dtype=np.int64)
        out = kernels.line_blur(grid, dys, dxs)
    return np.clip(out, 0.0, 1.0)


def _reference_corruption(ds, kind, rate, spec, seed):
    """inject_corruption one hit row at a time, on the float64 widening
    of the rows; the result is rounded once to the dtype of Dataset.X."""
    k = _half_up(rate * len(ds))
    hit = np.sort(np.random.default_rng([seed, 0]).choice(len(ds), size=k, replace=False))
    rng = np.random.default_rng([seed, 1, int(kind)])
    X, prov = ds.X.astype(np.float64), ds.provenance.copy()
    for i in hit:
        X[i] = _reference_transform(X[i].reshape(ds.grid_shape), kind, spec, rng).ravel()
        prov[i] = Provenance.CORRUPTED
    return X.astype(np.float32), prov


def _reference_open_set(ds, pool, rate, seed):
    """inject_open_set one replaced row at a time: the i-th row of pool
    into the i-th replaced instance."""
    n, c = len(ds), ds.num_classes
    k = _half_up(rate * n)
    which = np.random.default_rng([seed, 2])
    counts = np.full(c, k // c)
    if k % c:
        counts[which.choice(c, size=k % c, replace=False)] += 1
    targets = np.sort(np.concatenate([
        which.choice(np.flatnonzero(ds.given_labels == cls), size=int(counts[cls]),
                     replace=False)
        for cls in range(c)
    ]))
    X, true, prov = ds.X.copy(), ds.true_labels.copy(), ds.provenance.copy()
    for dst, row in zip(targets, pool):
        X[dst] = row
        true[dst] = NO_LABEL
        prov[dst] = Provenance.OPEN_SET
    return X, true, prov


# -- per-kind oracles -------------------------------------------------------

def test_gaussian_matches_re_drawn_noise():
    grid = fixed_grid()
    out = corruption_transform(grid, NoiseKind.GAUSSIAN, SPEC, np.random.default_rng(42))
    draws = np.random.default_rng(42).normal(0.0, SPEC.gaussian_sigma, size=grid.shape)
    assert np.array_equal(out, np.clip(grid + draws, 0.0, 1.0))


def test_occlusion_rectangle_geometry():
    grid = np.zeros((16, 16))
    rng = np.random.default_rng(7)
    spec = NoiseSpec(occlusion_fraction=0.25)
    out = corruption_transform(grid, NoiseKind.OCCLUSION, spec, rng)
    filled = np.argwhere(out == 0.5)
    # fraction 0.25 of a 16x16 grid is an 8x8 rectangle
    assert filled.shape[0] == 64
    ys, xs = filled[:, 0], filled[:, 1]
    assert ys.max() - ys.min() == 7 and xs.max() - xs.min() == 7
    untouched = out != 0.5
    assert np.array_equal(out[untouched], grid[untouched])


def test_occlusion_full_fraction_covers_everything():
    grid = fixed_grid()
    spec = NoiseSpec(occlusion_fraction=1.0)
    out = corruption_transform(grid, NoiseKind.OCCLUSION, spec, np.random.default_rng(0))
    assert np.all(out == 0.5)


def test_resolution_block_means_pixel_oracle():
    grid = fixed_grid(8, 8, seed=3)
    out = corruption_transform(grid, NoiseKind.RESOLUTION, SPEC, np.random.default_rng(0))
    for bi in range(0, 8, 4):
        for bj in range(0, 8, 4):
            acc = 0.0
            for i in range(bi, bi + 4):
                for j in range(bj, bj + 4):
                    acc += grid[i, j]
            assert out[bi:bi + 4, bj:bj + 4] == pytest.approx(acc / 16.0, rel=1e-12)


def test_fog_row_formula_oracle():
    grid = fixed_grid(6, 5, seed=4)
    out = corruption_transform(grid, NoiseKind.FOG, SPEC, np.random.default_rng(0))
    for i in range(6):
        t = SPEC.fog_intensity * np.exp(-SPEC.fog_decay * i / 6.0)
        for j in range(5):
            assert out[i, j] == pytest.approx(
                min(1.0, (1.0 - t) * grid[i, j] + t), rel=1e-12
            )


def test_fog_fades_top_rows_more():
    grid = np.zeros((16, 16))
    out = corruption_transform(grid, NoiseKind.FOG, SPEC, np.random.default_rng(0))
    assert out[0, 0] > out[15, 0]
    assert out[0, 0] == pytest.approx(0.8)


def test_fog_with_a_huge_decay_warns_nothing():
    # decay * row overflows to inf below row 1, where the haze is exp(-inf) = 0
    grid = fixed_grid(6, 5, seed=4)
    spec = NoiseSpec(fog_decay=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = corruption_transform(grid, NoiseKind.FOG, spec, np.random.default_rng(0))
    t = spec.fog_intensity
    assert np.array_equal(out[0], (1.0 - t) * grid[0] + t * 1.0)
    assert np.array_equal(out[1:], grid[1:])


def test_motion_blur_smears_point_along_angle():
    grid = np.zeros((9, 9))
    grid[4, 4] = 0.9
    out = corruption_transform(grid, NoiseKind.MOTION_BLUR, SPEC, np.random.default_rng(0))
    # length 5 at angle 0: five horizontal taps, weight 1/5 each
    assert np.allclose(out[4, 2:7], 0.18)
    assert np.count_nonzero(out) == 5

    vert = NoiseSpec(blur_angle_deg=90.0)
    outv = corruption_transform(grid, NoiseKind.MOTION_BLUR, vert, np.random.default_rng(0))
    assert np.allclose(outv[2:7, 4], 0.18)


def test_degenerate_parameters_are_exact_identities():
    grid = fixed_grid(16, 16, seed=5)
    cases = [
        (NoiseKind.GAUSSIAN, NoiseSpec(gaussian_sigma=0.0)),
        (NoiseKind.OCCLUSION, NoiseSpec(occlusion_fraction=0.0)),
        (NoiseKind.RESOLUTION, NoiseSpec(resolution_factor=1)),
        (NoiseKind.FOG, NoiseSpec(fog_intensity=0.0)),
        (NoiseKind.MOTION_BLUR, NoiseSpec(blur_length=1)),
    ]
    for kind, spec in cases:
        out = corruption_transform(grid, kind, spec, np.random.default_rng(6))
        assert np.array_equal(out, grid), kind


def test_outputs_always_clamped():
    grid = fixed_grid(16, 16, seed=6)
    spec = NoiseSpec(gaussian_sigma=2.0)
    out = corruption_transform(grid, NoiseKind.GAUSSIAN, spec, np.random.default_rng(7))
    assert out.min() >= 0.0 and out.max() <= 1.0


ODD_SPEC = NoiseSpec(gaussian_sigma=0.4, occlusion_fraction=0.3, resolution_factor=3,
                     fog_intensity=0.6, fog_decay=2.0, blur_length=4, blur_angle_deg=30.0)


@pytest.mark.parametrize("kind", list(NoiseKind))
@pytest.mark.parametrize("spec", [SPEC, ODD_SPEC])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_transform_matches_per_grid_reference(kind, spec, seed):
    # a non-square stack spilling past [0, 1] so the clamp acts as well
    grids = np.random.default_rng(seed).uniform(-0.1, 1.1, size=(6, 7, 11))
    out = corruption_transform(grids, kind, spec, np.random.default_rng([seed, 9]))
    rng = np.random.default_rng([seed, 9])
    for g in range(len(grids)):
        assert np.array_equal(out[g], _reference_transform(grids[g], kind, spec, rng))
    # a single grid is a stack of one and keeps its 2-D shape
    single = corruption_transform(grids[0], kind, spec, np.random.default_rng([seed, 9]))
    assert np.array_equal(single, out[0])


def test_transform_rejects_other_ranks():
    with pytest.raises(ContractError, match="2-D grid or a 3-D stack"):
        corruption_transform(np.zeros(16), NoiseKind.FOG, SPEC, np.random.default_rng(0))


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_inject_corruption_matches_row_loop_reference(kind):
    ds = generate_synthetic(90, 3, 12, 20, seed=30)
    out = inject_corruption(ds, kind, 0.4, ODD_SPEC, seed=31)
    X, prov = _reference_corruption(ds, kind, 0.4, ODD_SPEC, seed=31)
    assert np.array_equal(out.X, X)
    assert np.array_equal(out.provenance, prov)


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.45])
def test_inject_open_set_matches_row_loop_reference(rate):
    ds = generate_synthetic(90, 4, 12, 20, seed=32)
    pool = generate_ood_source(_half_up(rate * 90), 12, 20, seed=33)
    out = inject_open_set(ds, pool, rate, seed=34)
    X, true, prov = _reference_open_set(ds, pool, rate, seed=34)
    assert np.array_equal(out.X, X)
    assert np.array_equal(out.true_labels, true)
    assert np.array_equal(out.provenance, prov)


# -- corruption injection ---------------------------------------------------

def test_inject_corruption_counts_and_labels():
    ds = generate_synthetic(100, 4, seed=8)
    out = inject_corruption(ds, NoiseKind.FOG, 0.3, SPEC, seed=9)
    hit = out.provenance == Provenance.CORRUPTED
    assert hit.sum() == 30
    assert np.array_equal(out.given_labels, ds.given_labels)
    assert np.array_equal(out.true_labels, ds.true_labels)
    assert np.array_equal(out.X[~hit], ds.X[~hit])
    assert not np.array_equal(out.X[hit], ds.X[hit])
    assert out.X.min() >= 0.0 and out.X.max() <= 1.0
    # the input is untouched
    assert np.all(ds.provenance == Provenance.CLEAN)


def test_inject_corruption_same_subset_across_kinds():
    ds = generate_synthetic(80, 4, seed=10)
    fog = inject_corruption(ds, NoiseKind.FOG, 0.4, SPEC, seed=11)
    gau = inject_corruption(ds, NoiseKind.GAUSSIAN, 0.4, SPEC, seed=11)
    assert np.array_equal(fog.provenance, gau.provenance)


def test_inject_corruption_deterministic():
    ds = generate_synthetic(60, 3, seed=12)
    a = inject_corruption(ds, NoiseKind.OCCLUSION, 0.5, SPEC, seed=13)
    b = inject_corruption(ds, NoiseKind.OCCLUSION, 0.5, SPEC, seed=13)
    assert np.array_equal(a.X, b.X)


def test_inject_corruption_rate_bounds():
    ds = generate_synthetic(20, 2, seed=14)
    with pytest.raises(ContractError, match=r"rate must lie in \[0, 1\]"):
        inject_corruption(ds, NoiseKind.FOG, -0.1, SPEC, seed=0)
    with pytest.raises(ContractError, match=r"rate must lie in \[0, 1\]"):
        inject_corruption(ds, NoiseKind.FOG, 1.1, SPEC, seed=0)
    zero = inject_corruption(ds, NoiseKind.FOG, 0.0, SPEC, seed=0)
    assert np.array_equal(zero.X, ds.X)
    assert np.all(zero.provenance == Provenance.CLEAN)


@pytest.mark.parametrize("route", ALL_ROUTES)
@pytest.mark.parametrize("rate", [0.0, 0.3, 0.6])
def test_true_labels_follow_provenance_on_every_route(tmp_path, route, rate):
    ds = generate_synthetic(60, 4, 8, 8, seed=44)
    pool = generate_ood_source(_half_up(rate * 60), 8, 8, seed=45)
    out = apply_noise(ds, route, rate, SPEC, seed=46, pool=pool)
    hit = out.provenance != Provenance.CLEAN
    assert hit.sum() == _half_up(rate * 60)
    open_set = out.provenance == Provenance.OPEN_SET
    assert np.array_equal(open_set, hit if route == "open_set" else np.zeros(60, bool))
    # a clean or corrupted row keeps its class; an out-of-distribution row has none
    assert np.array_equal(out.true_labels[~open_set], ds.given_labels[~open_set])
    assert np.all(out.true_labels[open_set] == NO_LABEL)
    path = str(tmp_path / "noisy.inscd")
    save_dataset(path, out)
    back = load_dataset(path)
    for name in ("X", "given_labels", "provenance", "true_labels"):
        assert np.array_equal(getattr(back, name), getattr(out, name)), name


# -- open-set replacement ---------------------------------------------------

def test_inject_open_set_counts_balance_and_truth():
    ds = generate_synthetic(200, 4, seed=15)
    out = inject_open_set(ds, generate_ood_source(80, seed=16), 0.4, seed=17)
    hit = out.provenance == Provenance.OPEN_SET
    assert hit.sum() == 80
    # labels stay put even where the instance was swapped
    assert np.array_equal(out.given_labels, ds.given_labels)
    assert np.all(out.true_labels[hit] == NO_LABEL)
    assert np.all(out.true_labels[~hit] == ds.true_labels[~hit])
    # class-balanced replacement: per-class counts within one of each other
    per_class = [int(np.sum(ds.given_labels[hit] == k)) for k in range(4)]
    assert max(per_class) - min(per_class) <= 1
    assert sum(per_class) == 80


def test_inject_open_set_uses_distinct_pool_rows():
    ds = generate_synthetic(100, 4, seed=18)
    pool = generate_ood_source(50, seed=19)
    out = inject_open_set(ds, pool, 0.5, seed=20)
    hit = np.flatnonzero(out.provenance == Provenance.OPEN_SET)
    # every given row lands once
    assert sorted(tuple(out.X[i]) for i in hit) == sorted(tuple(row) for row in pool)
    assert len({tuple(row) for row in pool}) == 50


@pytest.mark.parametrize("n", [40, 90])
def test_inject_open_set_writes_drawn_rows_as_given(n):
    ds = generate_synthetic(n, 4, seed=35)
    k = _half_up(0.4 * n)
    drawn = generate_ood_source(k, seed=36)
    out = inject_open_set(ds, drawn, 0.4, seed=37)
    # the i-th drawn row lands in the i-th replaced instance
    hit = np.flatnonzero(out.provenance == Provenance.OPEN_SET)
    assert np.array_equal(out.X[hit], drawn)
    for wrong in (drawn[:-1], generate_ood_source(k + 1, seed=36)):
        with pytest.raises(ContractError, match=f"{k} replacement rows, got {len(wrong)}"):
            inject_open_set(ds, wrong, 0.4, seed=37)


def test_inject_open_set_takes_only_rows_of_the_dataset_width():
    ds = generate_synthetic(100, 4, seed=38)
    drawn = generate_ood_source(40, seed=39)
    narrow = generate_ood_source(40, 8, 8, seed=39)
    for pool in (drawn.ravel(), drawn[0], narrow):
        with pytest.raises(ContractError, match="pool must be 2-D rows of dataset width 256"):
            inject_open_set(ds, pool, 0.4, seed=40)


def test_inject_open_set_capacity_errors():
    lopsided = generate_synthetic(40, 4, seed=24)
    lopsided.given_labels[:] = 0
    pool = generate_ood_source(20, seed=25)
    with pytest.raises(CapacityError, match="class 1 has 0 members, cannot replace 5"):
        inject_open_set(lopsided, pool, 0.5, seed=26)


def test_apply_noise_dispatch():
    ds = generate_synthetic(40, 4, seed=27)
    drawn = generate_ood_source(10, seed=28)
    out = apply_noise(ds, "open_set", 0.25, SPEC, seed=29, pool=drawn)
    assert int(np.sum(out.provenance == Provenance.OPEN_SET)) == 10
    out2 = apply_noise(ds, "fog", 0.25, SPEC, seed=29)
    assert int(np.sum(out2.provenance == Provenance.CORRUPTED)) == 10
    with pytest.raises(ContractError, match="pool"):
        apply_noise(ds, "open_set", 0.25, SPEC, seed=29)
    with pytest.raises(ContractError, match="unknown noise route 'saltpepper'"):
        apply_noise(ds, "saltpepper", 0.25, SPEC, seed=29)
    assert "open_set" in ALL_ROUTES and "fog" in ALL_ROUTES
    # 30 rows are not the 10 replaced
    with pytest.raises(ContractError, match="10 replacement rows, got 30"):
        apply_noise(ds, "open_set", 0.25, SPEC, seed=29, pool=generate_ood_source(30, seed=28))
    # a route name is apply_noise's input, not inject_corruption's
    with pytest.raises(ContractError, match="corruption kind 'fog'"):
        inject_corruption(ds, "fog", 0.25, SPEC, seed=29)


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
def test_property_corruption_count_and_label_multiset(rate, seed):
    ds = generate_synthetic(37, 3, seed=999)
    out = inject_corruption(ds, NoiseKind.GAUSSIAN, rate, SPEC, seed=seed)
    assert int(np.sum(out.provenance == Provenance.CORRUPTED)) == int(np.floor(rate * 37 + 0.5))
    assert np.array_equal(
        np.bincount(out.given_labels, minlength=3),
        np.bincount(ds.given_labels, minlength=3),
    )
    assert out.X.min() >= 0.0 and out.X.max() <= 1.0
