"""The explicit relu-MLP backward against the reverse-mode Tensor graph.

The graph in inscorr.tensor is the reference: the same network built
from Tensor ops, each parameter a Tensor over the model's view of it,
must give bit-identical parameter and input gradients for a full batch,
for a kept subset of a batch that reuses the batch's forward pass, and
for the two-term mixed loss, where a weight of 1.0 or 0.0 drops a term.
The graph's per-parameter gradients are compared in the flat order of
Model.grad.
"""

import numpy as np
import pytest

from inscorr.nn import Model, ModelSpec, cross_entropy
from inscorr.pipeline import mixed_loss
from inscorr.tensor import Tensor

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


def graph_parameters(model):
    """A Tensor over each of the model's parameter views, W then b per layer."""
    return [Tensor(p, requires_grad=True)
            for pair in zip(model.weights, model.biases) for p in pair]


def graph_logits(params, x):
    """The relu MLP as a Tensor graph over params (from graph_parameters)."""
    h = x
    last = len(params) // 2 - 1
    for i in range(last + 1):
        h = h @ params[2 * i] + params[2 * i + 1]
        if i != last:
            h = h.relu()
    return h


def flat_grad(params):
    """The graph's parameter gradients in Model.grad's flat order."""
    return np.concatenate([p.grad.ravel() for p in params])


def graph_grads(model, x, y):
    """(flat parameter grad, input grad) of the mean loss, through the graph."""
    params = graph_parameters(model)
    xt = Tensor(x, requires_grad=True)
    graph_logits(params, xt).softmax_cross_entropy(y).mean().backward()
    return flat_grad(params), xt.grad


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
    want, want_x = graph_grads(model, x, y)
    assert np.array_equal(grad, want)
    assert np.array_equal(grad_x, want_x)


def kept_rows_case(rng, model, x, y, kept):
    """Explicit grads on the kept rows of the batch forward, the graph's
    grads on a forward of those rows alone, and whether the two forwards
    agree on those rows bit for bit."""
    outputs = model.forward(x)
    losses, probs = cross_entropy(outputs[-1], y)
    got = explicit_grads(model, [h[kept] for h in outputs[:-1]], probs[kept], y[kept])
    want = graph_grads(model, x[kept], y[kept])
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
    (grad, grad_x), (want, want_x), same_forward = kept_rows_case(rng, model, x, y, kept)
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
    (grad, grad_x), (want, want_x), same_forward = kept_rows_case(rng, model, x, y, kept)
    if same_forward:
        assert np.array_equal(grad, want)
        assert np.array_equal(grad_x, want_x)
    else:
        for a, b in ((grad, want), (grad_x, want_x)):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-13)


def graph_mixed_loss(params, cx, cy, rx, ry, lam):
    """The mixed loss as one graph scalar, zero-weight terms left out."""
    total = None
    if lam != 0.0:
        total = graph_logits(params, Tensor(cx)).softmax_cross_entropy(cy).mean() * lam
    if lam != 1.0:
        term = graph_logits(params, Tensor(rx)).softmax_cross_entropy(ry).mean() * (1.0 - lam)
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lam", [0.3, 0.7, 1.0, 0.0])
def test_mixed_loss_matches_graph(seed, lam):
    rng, model, x, y = random_case(seed)
    rx = rng.uniform(0.0, 1.0, (int(rng.integers(1, 60)), x.shape[1]))
    ry = rng.integers(0, model.spec.num_classes, len(rx)).astype(np.int64)

    model.zero_grads()
    got = mixed_loss(model, x, y, rx, ry, lam)

    params = graph_parameters(model)
    total = graph_mixed_loss(params, x, y, rx, ry, lam)
    total.backward()
    assert got == float(total.data)
    assert np.array_equal(model.grad, flat_grad(params))
