"""Oracle and determinism checks for the numpy kernels."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inscorr import kernels as K

from helpers import fd_gradient, max_rel_error, softmax_rows


def _xent_backward_loop(probs, labels, gout):
    b, c = probs.shape
    grad = np.empty((b, c))
    for i in range(b):
        g = gout[i]
        for j in range(c):
            grad[i, j] = probs[i, j] * g
        grad[i, labels[i]] -= g
    return grad


def _adam_update_loop(p, g, m, v, lr, b1, b2, eps, c1, c2):
    one_mb1 = 1.0 - b1
    one_mb2 = 1.0 - b2
    for i in range(p.size):
        gi = g[i]
        mi = b1 * m[i] + one_mb1 * gi
        vi = b2 * v[i] + one_mb2 * (gi * gi)
        m[i] = mi
        v[i] = vi
        p[i] = p[i] - lr * (mi / c1) / (np.sqrt(vi / c2) + eps)


def _reflect(i, n):
    """Reflect-101 index i onto range(n); a one-pixel axis has only index 0."""
    if n == 1:
        return 0
    i = abs(i)
    while i > n - 1:
        i = abs(2 * (n - 1) - i)
    return i


def _line_blur_loop(grid, dys, dxs):
    h, w = grid.shape
    k = dys.size
    wgt = 1.0 / k
    out = np.zeros((h, w))
    for t in range(k):
        for i in range(h):
            yy = _reflect(i + dys[t], h)
            for j in range(w):
                out[i, j] += wgt * grid[yy, _reflect(j + dxs[t], w)]
    return out


def _block_resample_loop(grid, factor):
    """One block of one grid at a time, each averaged with its own mean()."""
    h, w = grid.shape
    out = np.empty((h, w))
    for bi in range(0, h, factor):
        for bj in range(0, w, factor):
            out[bi:bi + factor, bj:bj + factor] = grid[bi:bi + factor, bj:bj + factor].mean()
    return out


def test_softmax_xent_matches_naive_oracle():
    rng = np.random.default_rng(3)
    logits = rng.normal(scale=3.0, size=(32, 7))
    labels = rng.integers(0, 7, size=32).astype(np.int64)
    losses, probs = K.softmax_xent(logits, labels)
    ref_probs = softmax_rows(logits)
    ref_losses = -np.log(ref_probs[np.arange(32), labels])
    assert np.allclose(probs, ref_probs, rtol=1e-12, atol=1e-15)
    assert np.allclose(losses, ref_losses, rtol=1e-12, atol=1e-15)


def test_softmax_xent_row_sum_matches_column_loop_below_eight_classes():
    # numpy sums fewer than eight terms in index order, so the vectorized row
    # sum rounds exactly like an accumulation over the columns
    rng = np.random.default_rng(4)
    for c in range(2, 8):
        logits = rng.normal(scale=5.0, size=(64, c))
        labels = rng.integers(0, c, size=64).astype(np.int64)
        shifted = logits - logits.max(axis=1)[:, None]
        ex = np.exp(shifted)
        s = ex[:, 0].copy()
        for j in range(1, c):
            s += ex[:, j]
        losses, probs = K.softmax_xent(logits, labels)
        assert np.array_equal(losses, np.log(s) - shifted[np.arange(64), labels])
        assert np.array_equal(probs, ex / s[:, None])


def test_softmax_xent_extreme_logits_finite():
    logits = np.array([[800.0, -800.0, 0.0], [-1000.0, -1000.0, -1000.0]])
    labels = np.array([1, 0], dtype=np.int64)
    losses, probs = K.softmax_xent(logits, labels)
    assert np.all(np.isfinite(losses))
    assert np.all(np.isfinite(probs))
    assert losses[0] == pytest.approx(1600.0, rel=1e-12)
    assert losses[1] == pytest.approx(math.log(3.0), rel=1e-12)


def test_xent_backward_matches_loop_oracle():
    rng = np.random.default_rng(5)
    probs = rng.random((16, 6))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 6, size=16).astype(np.int64)
    gout = rng.normal(size=16)
    assert np.array_equal(K.xent_backward(probs, labels, gout),
                          _xent_backward_loop(probs, labels, gout))


def _xent_grad(logits, labels, gout):
    """d(sum_i gout[i] * loss_i)/dlogits through the two kernels."""
    _, probs = K.softmax_xent(logits, labels)
    return K.xent_backward(probs, labels, gout)


def test_xent_grad_vs_fd():
    rng = np.random.default_rng(5)
    z0 = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])

    def f(x):
        p = softmax_rows(x)
        return float(np.mean(-np.log(p[np.arange(4), labels])))

    grad = _xent_grad(z0, labels, np.full(4, 0.25))
    assert max_rel_error(grad, fd_gradient(f, z0)) < 1e-7


@settings(max_examples=30, deadline=None)
@given(b=st.integers(1, 6), c=st.integers(2, 5), data=st.data())
def test_property_xent_grad_matches_closed_form(b, c, data):
    # the gradient of the summed loss is softmax - one-hot
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z0 = rng.normal(scale=2.0, size=(b, c))
    labels = rng.integers(0, c, size=b)
    expected = softmax_rows(z0)
    expected[np.arange(b), labels] -= 1.0
    assert np.allclose(_xent_grad(z0, labels, np.ones(b)), expected,
                       rtol=1e-11, atol=1e-13)


def test_adam_update_matches_loop_oracle():
    rng = np.random.default_rng(6)
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    pa, ma, va = rng.normal(size=257), rng.normal(size=257) ** 2, rng.random(257)
    pb, mb, vb = pa.copy(), ma.copy(), va.copy()
    for step in range(1, 6):
        g = rng.normal(size=257)
        c1, c2 = 1.0 - b1**step, 1.0 - b2**step
        K.adam_update(pa, g, ma, va, lr, b1, b2, eps, c1, c2)
        _adam_update_loop(pb, g, mb, vb, lr, b1, b2, eps, c1, c2)
    assert np.array_equal(pa, pb)
    assert np.array_equal(ma, mb)
    assert np.array_equal(va, vb)


def test_adam_update_first_step_closed_form():
    # with zero state the first step moves each weight by
    # lr * g/|g| / (1 + eps*sqrt(corr)) scaled by bias correction,
    # which reduces to lr * sign(g) as eps -> 0
    p = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.7, 0.0])
    m = np.zeros(3)
    v = np.zeros(3)
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    K.adam_update(p, g, m, v, lr, b1, b2, eps, 1.0 - b1, 1.0 - b2)
    mhat = (1.0 - b1) * g / (1.0 - b1)
    vhat = (1.0 - b2) * g * g / (1.0 - b2)
    expected = np.array([1.0, -2.0, 0.5]) - lr * mhat / (np.sqrt(vhat) + eps)
    assert np.allclose(p, expected, rtol=1e-12)
    assert p[2] == 0.5


def _stepped_against_oracle(dtype, lr, m0, live, steps, seed):
    """Step adam_update and the loop oracle side by side from the same state;
    yield (kernel m, oracle m) after each step, having asserted that p and v
    are bitwise the oracle's. Coordinates outside live get g = 0."""
    rng = np.random.default_rng(seed)
    b1, b2, eps = 0.9, 0.999, 1e-8
    n = m0.size
    pa, ma, va = rng.normal(size=n).astype(dtype), m0.astype(dtype), rng.random(n).astype(dtype)
    pb, mb, vb = pa.copy(), ma.copy(), va.copy()
    for step in range(1, steps + 1):
        g = np.where(live, rng.normal(size=n), 0.0).astype(dtype)
        c1, c2 = 1.0 - b1**step, 1.0 - b2**step
        K.adam_update(pa, g, ma, va, lr, b1, b2, eps, c1, c2)
        _adam_update_loop(pb, g, mb, vb, lr, b1, b2, eps, c1, c2)
        assert np.array_equal(pa, pb)
        assert np.array_equal(va, vb)
        yield ma, mb


def _assert_flushed_below(m, limit):
    """No nonzero |m| lies below limit, and what lies below it is +0."""
    below = np.abs(m.astype(np.float64)) < limit
    assert np.all(m[below] == 0) and not np.any(np.signbit(m[below]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_update_flushes_first_moments_below_tiny_over_lr(dtype):
    """Dead coordinates (g = 0) start with |m| just above tiny / lr and
    decay across it; live ones keep a gradient. Each dead m becomes exactly
    0 once below the limit, and p, v and every m the oracle holds at or
    above the limit stay bitwise the oracle's."""
    lr = 0.001
    limit = float(np.finfo(dtype).tiny) / lr
    rng = np.random.default_rng(8)
    n = 96
    live = np.arange(n) % 3 == 0
    m0 = np.where(live, rng.normal(size=n),
                  limit * (1.0 + 20.0 * rng.random(n)) * rng.choice([-1.0, 1.0], n))
    flushed_at = []
    for ma, mb in _stepped_against_oracle(dtype, lr, m0, live, 40, seed=9):
        _assert_flushed_below(ma, limit)
        kept = np.abs(mb.astype(np.float64)) >= limit
        assert np.array_equal(ma[kept], mb[kept])
        assert np.all(ma[~kept] == 0)
        flushed_at.append(np.count_nonzero(~kept))
    # the dead coordinates crossed over many steps, and all of them did
    assert flushed_at[0] < flushed_at[-1] == np.count_nonzero(~live)
    assert len(set(flushed_at)) > 10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lr", [1e-80, 5e-324])
def test_adam_update_takes_a_tiny_lr_without_overflow(dtype, lr):
    """tiny / lr can lie past the dtype's range (float32 from lr ~ 3.5e-77),
    where a plain comparison with it overflows in the cast."""
    rng = np.random.default_rng(10)
    m0 = rng.normal(size=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ma, _ in _stepped_against_oracle(dtype, lr, m0, np.ones(32, bool), 5, seed=11):
            _assert_flushed_below(ma, float(np.finfo(dtype).tiny) / lr)


def test_line_blur_matches_loop_oracle():
    rng = np.random.default_rng(7)
    grid = rng.random((16, 16))
    # diagonal taps reaching two pixels past the edge
    dys = np.array([-2, -1, 0, 1, 2], dtype=np.int64)
    dxs = np.array([1, 0, 0, 0, -1], dtype=np.int64)
    assert np.array_equal(K.line_blur(grid, dys, dxs),
                          _line_blur_loop(grid, dys, dxs))


# one-pixel axes, and two- and three-pixel ones the taps pass more than once
@pytest.mark.parametrize("shape", [(5, 16, 16), (3, 7, 11), (1, 6, 5), (2, 1, 1), (2, 1, 7),
                                   (2, 6, 1), (2, 2, 3), (2, 3, 2)])
def test_stacked_line_blur_matches_loop_oracle_per_grid(shape):
    rng = np.random.default_rng(sum(shape))
    grids = rng.random(shape)
    dys = np.array([-2, -1, 0, 1, 2, 3], dtype=np.int64)
    dxs = np.array([1, 0, 0, -1, -1, -2], dtype=np.int64)
    out = K.line_blur(grids, dys, dxs)
    assert out.shape == shape
    for g in range(shape[0]):
        assert np.array_equal(out[g], _line_blur_loop(grids[g], dys, dxs))


def test_line_blur_identity_kernel():
    rng = np.random.default_rng(8)
    grid = rng.random((9, 9))
    out = K.line_blur(grid, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    assert np.array_equal(out, grid)


def test_line_blur_reflect_padding_pixel_oracle():
    rng = np.random.default_rng(9)
    grid = rng.random((6, 5))
    dys = np.array([0, 0, 0], dtype=np.int64)
    dxs = np.array([-1, 0, 1], dtype=np.int64)
    out = K.line_blur(grid, dys, dxs)
    for i in range(6):
        for j in range(5):
            acc = 0.0
            for t in range(3):
                acc += grid[_reflect(i + dys[t], 6), _reflect(j + dxs[t], 5)] / 3.0
            assert out[i, j] == pytest.approx(acc, rel=1e-12)


def test_block_resample_constant_within_blocks():
    rng = np.random.default_rng(11)
    grid = rng.random((16, 16))
    out = K.block_resample(grid, 4)
    for bi in range(0, 16, 4):
        for bj in range(0, 16, 4):
            block = out[bi:bi + 4, bj:bj + 4]
            assert np.all(block == block[0, 0])
            assert block[0, 0] == pytest.approx(
                grid[bi:bi + 4, bj:bj + 4].mean(), rel=1e-12
            )


def test_block_resample_partial_edge_blocks():
    rng = np.random.default_rng(12)
    grid = rng.random((7, 7))
    out = K.block_resample(grid, 4)
    # bottom-right partial block is 3x3
    assert out[6, 6] == pytest.approx(grid[4:7, 4:7].mean(), rel=1e-12)
    assert np.all(out[4:7, 4:7] == out[4, 4])


@pytest.mark.parametrize("shape", [(5, 16, 16), (3, 7, 11), (1, 12, 20)])
@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5])
def test_stacked_block_resample_matches_loop_oracle_per_grid(shape, factor):
    rng = np.random.default_rng(sum(shape) + factor)
    grids = rng.random(shape)
    out = K.block_resample(grids, factor)
    assert out.shape == shape
    for g in range(shape[0]):
        assert np.array_equal(out[g], _block_resample_loop(grids[g], factor))
    assert np.array_equal(K.block_resample(grids[0], factor), out[0])


def test_block_resample_factor_one_is_identity():
    rng = np.random.default_rng(13)
    grid = rng.random((8, 8))
    assert np.array_equal(K.block_resample(grid, 1), grid)


def test_kernels_deterministic():
    rng = np.random.default_rng(14)
    logits = rng.normal(size=(32, 5))
    labels = rng.integers(0, 5, size=32).astype(np.int64)
    a = K.softmax_xent(logits, labels)
    b = K.softmax_xent(logits, labels)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    grid = rng.random((16, 16))
    assert np.array_equal(K.block_resample(grid, 4), K.block_resample(grid, 4))
