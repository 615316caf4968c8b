"""Model.backward against a numpy reference backward, bit for bit.

The reference runs the relu MLP's forward graph and its chain rule layer
by layer in plain numpy, sharing only the softmax kernel. The two must
agree on parameter and input gradients for a full batch, for a kept
subset of a batch that reuses the batch's forward pass, and for the
two-term mixed loss, where a weight of 1.0 or 0.0 drops a term.
acceptance.check_gradients checks the same gradients against finite
differences.
"""

import numpy as np
import pytest

from inscorr.kernels import softmax_xent
from inscorr.nn import Model, ModelSpec, cross_entropy
from inscorr.pipeline import mixed_loss

SEEDS = range(12)


def random_case(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 70))
    hidden = tuple(int(rng.integers(3, 40)) for _ in range(seed % 3))
    c = int(rng.integers(2, 6))
    b = int(rng.integers(1, 140))
    model = Model.init(ModelSpec(d, hidden, c), seed=seed)
    for bias in model.biases:
        bias[:] = rng.normal(0.0, 0.1, bias.shape)
    x = rng.uniform(0.0, 1.0, (b, d))
    y = rng.integers(0, c, b).astype(np.int64)
    return rng, model, x, y


def reference_grads(model, x, y, weight=1.0):
    """(loss, flat parameter grad, input grad) of weight * the mean loss
    over the rows of x, by its own forward pass and chain rule."""
    ws, bs = model.weights, model.biases
    hs = [x]
    for i, (w, b) in enumerate(zip(ws, bs)):
        z = hs[-1] @ w + b
        hs.append(z if i == len(ws) - 1 else np.where(z > 0.0, z, 0.0))
    losses, probs = softmax_xent(hs[-1], y)
    n = len(y)
    dloss = np.full(n, weight / n)
    g = probs * dloss[:, None]
    g[np.arange(n), y] -= dloss
    grads = []
    for i in reversed(range(len(ws))):
        grads[:0] = [hs[i].T @ g, g.sum(axis=0)]
        g = g @ ws[i].T
        if i:
            g = g * (hs[i] > 0.0)
    flat = np.concatenate([p.ravel() for p in grads])
    return float(losses.sum() / n * weight), flat, g


def explicit_grads(model, outputs, probs, y):
    n = len(y)
    weights = np.full(n, 1.0 / n)
    model.zero_grads()
    model.backward(outputs, probs, y, weights)
    grad = model.grad
    model.zero_grads()
    grad_x = model.backward(outputs, probs, y, weights, input_grad=True)
    assert model.grad is None
    return grad, grad_x


@pytest.mark.parametrize("seed", SEEDS)
def test_full_batch_matches_graph(seed):
    _, model, x, y = random_case(seed)
    outputs = model.forward(x)
    _, probs = cross_entropy(outputs[-1], y)
    grad, grad_x = explicit_grads(model, outputs, probs, y)
    _, want, want_x = reference_grads(model, x, y)
    assert np.array_equal(grad, want)
    assert np.array_equal(grad_x, want_x)


def kept_rows_case(model, x, y, kept):
    """Explicit grads on the kept rows of the batch forward, the reference
    grads on a forward of those rows alone, and whether the two forwards
    agree on those rows bit for bit."""
    outputs = model.forward(x)
    _, probs = cross_entropy(outputs[-1], y)
    got = explicit_grads(model, [h[kept] for h in outputs[:-1]], probs[kept], y[kept])
    want = reference_grads(model, x[kept], y[kept])[1:]
    alone = model.forward(x[kept])
    same_forward = all(np.array_equal(h[kept], a) for h, a in zip(outputs, alone))
    return got, want, same_forward


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rows", [128, 8])
@pytest.mark.parametrize("keep", [1.0, 0.8, 0.6])
def test_kept_rows_match_graph_bitwise_at_training_shapes(seed, rows, keep):
    # the default model (16x16 input, one hidden layer of 64, 4 classes)
    # on a full and on a short last batch, kept counts from the schedule
    rng = np.random.default_rng(seed)
    model = Model.init(ModelSpec(256, (64,), 4), seed=seed)
    model.biases[0][:] = rng.normal(0.0, 0.1, 64)
    x = rng.uniform(0.0, 1.0, (rows, 256))
    y = rng.integers(0, 4, rows).astype(np.int64)
    kept = np.sort(rng.choice(rows, size=int(np.ceil(keep * rows)), replace=False))
    (grad, grad_x), (want, want_x), same_forward = kept_rows_case(model, x, y, kept)
    assert same_forward
    assert np.array_equal(grad, want)
    assert np.array_equal(grad_x, want_x)


@pytest.mark.parametrize("seed", SEEDS)
def test_kept_rows_of_batch_forward_match_graph_on_those_rows(seed):
    # BLAS may round a row of a matrix product differently with another
    # row count (one row goes through gemv; some narrow outputs take other
    # kernels), so reusing the batch forward is exact only where the two
    # forwards agree; elsewhere it differs by the forward's rounding
    rng, model, x, y = random_case(seed)
    kept = np.sort(rng.choice(len(x), size=int(rng.integers(1, len(x) + 1)),
                              replace=False))
    (grad, grad_x), (want, want_x), same_forward = kept_rows_case(model, x, y, kept)
    if same_forward:
        assert np.array_equal(grad, want)
        assert np.array_equal(grad_x, want_x)
    else:
        for a, b in ((grad, want), (grad_x, want_x)):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lam", [0.3, 0.7, 1.0, 0.0])
def test_mixed_loss_matches_graph(seed, lam):
    rng, model, x, y = random_case(seed)
    rx = rng.uniform(0.0, 1.0, (int(rng.integers(1, 60)), x.shape[1]))
    ry = rng.integers(0, model.spec.num_classes, len(rx)).astype(np.int64)

    model.zero_grads()
    got = mixed_loss(model, x, y, rx, ry, lam)

    # the reference sum of both terms, a zero-weight term left out
    want = want_grad = 0.0
    for xs, ys, weight in ((x, y, lam), (rx, ry, 1.0 - lam)):
        if weight != 0.0:
            loss, grad, _ = reference_grads(model, xs, ys, weight)
            want, want_grad = want + loss, want_grad + grad
    assert got == want
    assert np.array_equal(model.grad, want_grad)
