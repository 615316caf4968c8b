"""Hot numeric kernels in numpy.

Every kernel is deterministic: repeated calls on the same inputs are
bit-identical.

Kernels:
    softmax_xent(logits, labels)        -> (losses, probs)
    xent_backward(probs, labels, gout)  -> dL/dlogits
    adam_update(p, g, m, v, ...)        -> in-place fused Adam step, with each
                                           first moment below finfo.tiny / lr
                                           set to 0
    line_blur(grids, dys, dxs)          -> 1-D line convolution, reflect pad
    block_resample(grids, factor)       -> block-average down + nearest up

The two image kernels take a (h, w) grid or a stack (..., h, w) of them
and treat every grid on its own, with the same arithmetic either way.
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

def _flush_limit(dtype, lr):
    """The least value of dtype at or above finfo(dtype).tiny / lr, so that
    |m| < limit holds for exactly the m of that dtype below tiny / lr. It is
    inf where tiny / lr is past the dtype's range: every finite m is below."""
    fi = np.finfo(dtype)
    exact = float(fi.tiny) / lr
    if exact > float(fi.max):
        return dtype.type(np.inf)
    limit = dtype.type(exact)
    if float(limit) < exact:
        limit = np.nextafter(limit, dtype.type(np.inf))
    return limit


def adam_update(p, g, m, v, lr, b1, b2, eps, c1, c2):
    one_mb1 = 1.0 - b1
    one_mb2 = 1.0 - b2
    m *= b1
    m += one_mb1 * g
    # A moment whose step lr * |m| is below the smallest normal can no longer
    # move a parameter of normal size. Once a zero gradient (a dead relu
    # unit) has decayed it that far, it turns subnormal and stays so, since
    # 0.9 times a few units of the least subnormal rounds back, and every
    # later pass over it runs about twice as slowly. A limit of tiny alone
    # would leave lr * (m / c1) subnormal for m in [tiny, tiny / lr). Set
    # such moments to +0, so that the step below is exactly 0: the product
    # leaves a negative one at -0.0, and adding +0.0 turns it into +0. (A
    # masked copyto takes twice as long on the scattered entries of dead
    # units.)
    m *= np.abs(m) >= _flush_limit(m.dtype, lr)
    m += 0.0
    v *= b2
    v += one_mb2 * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# ---------------------------------------------------------------------------
# line convolution with reflect-101 padding (motion blur)
# ---------------------------------------------------------------------------

def line_blur(grids, dys, dxs):
    h, w = grids.shape[-2:]
    k = dys.size
    wgt = 1.0 / k
    # numpy's reflect is reflect-101, repeated past the axis; one pixel is copied
    py = int(np.abs(dys).max())
    px = int(np.abs(dxs).max())
    pad = [(0, 0)] * (grids.ndim - 2) + [(py, py), (px, px)]
    padded = np.pad(grids, pad, mode="reflect")
    out = np.zeros(grids.shape)
    for t in range(k):
        y0 = py + int(dys[t])
        x0 = px + int(dxs[t])
        out += padded[..., y0:y0 + h, x0:x0 + w] * wgt
    return out


# ---------------------------------------------------------------------------
# block-average downsample + nearest-neighbor upsample (resolution loss)
# ---------------------------------------------------------------------------

def block_resample(grids, factor):
    h, w = grids.shape[-2:]
    out = np.empty(grids.shape)
    for bi in range(0, h, factor):
        i1 = min(bi + factor, h)
        for bj in range(0, w, factor):
            j1 = min(bj + factor, w)
            out[..., bi:i1, bj:j1] = grids[..., bi:i1, bj:j1].mean(
                axis=(-2, -1), keepdims=True
            )
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
