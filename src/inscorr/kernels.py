"""Hot numeric kernels in numpy.

Every kernel is deterministic: repeated calls on the same inputs are
bit-identical.

Kernels:
    softmax_xent(logits, labels)        -> (losses, probs)
    xent_backward(probs, labels, gout)  -> dL/dlogits
    adam_update(p, g, m, v, ...)        -> in-place fused Adam step
    line_blur(grid, dys, dxs)           -> 1-D line convolution, reflect pad
    block_resample(grid, factor)        -> block-average down + nearest up
"""

import numpy as np

# BACKEND and warmup() stay only because the benchmark (perfbench/run.py)
# records the backend in its environment line and times warmup() in setup_s.
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# softmax cross entropy, forward and backward
# ---------------------------------------------------------------------------

def softmax_xent(logits, labels):
    b = logits.shape[0]
    mx = np.max(logits, axis=1)
    shifted = logits - mx[:, None]
    ex = np.exp(shifted)
    s = ex.sum(axis=1)
    losses = np.log(s) - shifted[np.arange(b), labels]
    probs = ex / s[:, None]
    return losses, probs


def xent_backward(probs, labels, gout):
    b = probs.shape[0]
    grad = probs * gout[:, None]
    grad[np.arange(b), labels] -= gout
    return grad


# ---------------------------------------------------------------------------
# fused Adam update (flat views, in place)
# ---------------------------------------------------------------------------

def adam_update(p, g, m, v, lr, b1, b2, eps, c1, c2):
    one_mb1 = 1.0 - b1
    one_mb2 = 1.0 - b2
    m *= b1
    m += one_mb1 * g
    v *= b2
    v += one_mb2 * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# ---------------------------------------------------------------------------
# line convolution with reflect-101 padding (motion blur)
# ---------------------------------------------------------------------------

def _reflect_index(idx, n):
    idx = np.abs(idx)
    while np.any(idx > n - 1):
        idx = np.where(idx > n - 1, 2 * (n - 1) - idx, idx)
        idx = np.abs(idx)
    return idx


def line_blur(grid, dys, dxs):
    h, w = grid.shape
    k = dys.size
    wgt = 1.0 / k
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    out = np.zeros((h, w))
    for t in range(k):
        yy = _reflect_index(ys + dys[t], h)
        xx = _reflect_index(xs + dxs[t], w)
        out += wgt * grid[yy, xx]
    return out


# ---------------------------------------------------------------------------
# block-average downsample + nearest-neighbor upsample (resolution loss)
# ---------------------------------------------------------------------------

def block_resample(grid, factor):
    h, w = grid.shape
    out = np.empty((h, w))
    for bi in range(0, h, factor):
        i1 = min(bi + factor, h)
        for bj in range(0, w, factor):
            j1 = min(bj + factor, w)
            out[bi:i1, bj:j1] = grid[bi:i1, bj:j1].mean()
    return out


def warmup():
    """Call every kernel once on tiny inputs."""
    logits = np.zeros((2, 3))
    labels = np.zeros(2, dtype=np.int64)
    losses, probs = softmax_xent(logits, labels)
    xent_backward(probs, labels, np.ones(2))
    buf = np.zeros(4)
    adam_update(buf, np.ones(4), np.zeros(4), np.zeros(4),
                0.001, 0.9, 0.999, 1e-8, 0.1, 0.001)
    grid = np.zeros((4, 4))
    line_blur(grid, np.zeros(3, dtype=np.int64), np.arange(-1, 2))
    block_resample(grid, 2)
