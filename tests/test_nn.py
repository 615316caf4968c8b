"""Model init, forward paths, optimizers, and checkpoint round trips."""

import numpy as np
import pytest

from inscorr.errors import (
    ChecksumError,
    ContractError,
    DimensionError,
    FormatError,
    TruncatedError,
    VersionError,
)
from inscorr.nn import (
    Adam,
    Model,
    ModelSpec,
    Sgd,
    cross_entropy,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)
from inscorr.tensor import Tensor

SPEC = ModelSpec(8, (16,), 3)


class _ParamHolder:
    """Minimal stand-in exposing parameters() for optimizer unit tests."""

    def __init__(self, *tensors):
        self._params = list(tensors)

    def parameters(self):
        return self._params


def test_spec_validation():
    with pytest.raises(ContractError, match="input_dim"):
        ModelSpec(0, (4,), 2)
    with pytest.raises(ContractError, match="num_classes"):
        ModelSpec(4, (4,), 1)
    with pytest.raises(ContractError, match="hidden"):
        ModelSpec(4, (4, 0), 2)


def test_init_deterministic_per_seed():
    m1 = Model.init(SPEC, seed=7)
    m2 = Model.init(SPEC, seed=7)
    m3 = Model.init(SPEC, seed=8)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)
    assert not np.array_equal(m1.weights[0].data, m3.weights[0].data)


def test_init_he_scale_and_zero_biases():
    wide = Model.init(ModelSpec(64, (512,), 4), seed=0)
    w = wide.weights[0].data
    assert w.std() == pytest.approx(np.sqrt(2.0 / 64), rel=0.05)
    for b in wide.biases:
        assert np.all(b.data == 0.0)


def test_forward_graph_matches_infer_path_exactly():
    rng = np.random.default_rng(1)
    model = Model.init(SPEC, seed=2)
    x = rng.normal(size=(10, 8))
    (w0, w1), (b0, b1) = [p.data for p in model.weights], [p.data for p in model.biases]
    logits = model.forward(x)[-1]
    assert np.array_equal(logits, np.maximum(x @ w0 + b0, 0.0) @ w1 + b1)
    assert np.array_equal(model.predict(x), np.argmax(logits, axis=1))

    # a NaN weight reaches training, evaluation and the attack alike
    nan_net = Model.init(ModelSpec(4, (3,), 2), seed=3)
    nan_net.weights[0].data[0, 0] = np.nan
    x = rng.random((6, 4))
    labels = np.zeros(6, dtype=int)
    assert np.all(np.isnan(nan_net.forward(x)[-1]))
    assert np.all(np.isnan(nan_net.per_example_losses(x, labels)))
    assert np.isnan(nan_net.loss_and_grads(x, labels))


def test_forward_rejects_wrong_width():
    model = Model.init(SPEC, seed=2)
    with pytest.raises(DimensionError, match=r"\(3, 5\)"):
        model.predict(np.zeros((3, 5)))


def test_per_example_losses_match_graph_losses():
    rng = np.random.default_rng(4)
    model = Model.init(SPEC, seed=5)
    x = rng.normal(size=(9, 8))
    labels = rng.integers(0, 3, size=9)
    fast = model.per_example_losses(x, labels)
    graph, _ = cross_entropy(model.forward(x)[-1], labels)
    assert np.array_equal(fast, graph)


def test_forward_non_trainable_leaves_param_grads_alone():
    rng = np.random.default_rng(5)
    model = Model.init(SPEC, seed=6)
    labels = np.zeros(4, dtype=int)
    outputs = model.forward(rng.normal(size=(4, 8)))
    _, probs = cross_entropy(outputs[-1], labels)
    grad_x = model.backward(outputs, probs, labels, np.full(4, 0.25), input_grad=True)
    assert grad_x is not None and grad_x.shape == (4, 8)
    for p in model.parameters():
        assert p.grad is None


def test_sgd_step_moves_against_gradient():
    p = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    p.grad = np.array([0.5, -0.25])
    Sgd(lr=0.1).step(_ParamHolder(p))
    assert np.allclose(p.data, [0.95, -0.975])


def test_step_without_gradient_raises():
    p = Tensor(np.array([1.0]), requires_grad=True)
    holder = _ParamHolder(p)
    with pytest.raises(ContractError, match="no gradient"):
        Sgd().step(holder)
    with pytest.raises(ContractError, match="no gradient"):
        Adam().step(holder)


def test_adam_converges_on_scalar_quadratic():
    # minimize (w - 3)^2 from w = 0; the oracle is the known minimum
    w = Tensor(np.array([0.0]), requires_grad=True)
    holder = _ParamHolder(w)
    opt = Adam(lr=0.1)
    for _ in range(400):
        w.zero_grad()
        w.grad = 2.0 * (w.data - 3.0)
        opt.step(holder)
    assert w.data[0] == pytest.approx(3.0, abs=1e-3)


def test_adam_first_step_size_near_lr():
    w = Tensor(np.array([5.0, -2.0]), requires_grad=True)
    w.grad = np.array([0.3, -40.0])
    Adam(lr=0.01).step(_ParamHolder(w))
    # bias-corrected first step is lr * sign(g) up to the eps term
    assert w.data[0] == pytest.approx(5.0 - 0.01, abs=1e-6)
    assert w.data[1] == pytest.approx(-2.0 + 0.01, abs=1e-6)


def test_make_optimizer():
    assert isinstance(make_optimizer("sgd", 0.1), Sgd)
    assert isinstance(make_optimizer("adam", 0.1), Adam)
    with pytest.raises(ContractError):
        make_optimizer("lbfgs", 0.1)


def _train_steps(model, opt, x, labels, steps):
    for _ in range(steps):
        model.zero_grads()
        model.loss_and_grads(x, labels)
        opt.step(model)


def test_training_reduces_loss_to_separation():
    rng = np.random.default_rng(6)
    x = np.concatenate([
        rng.normal(-2.0, 0.5, size=(30, 8)),
        rng.normal(2.0, 0.5, size=(30, 8)),
    ])
    labels = np.array([0] * 30 + [1] * 30)
    model = Model.init(ModelSpec(8, (16,), 2), seed=7)
    opt = Adam(lr=0.01)
    before = model.per_example_losses(x, labels).mean()
    _train_steps(model, opt, x, labels, 150)
    after = model.per_example_losses(x, labels).mean()
    assert after < before * 0.1
    assert np.array_equal(model.predict(x), labels)


def test_checkpoint_round_trip_exact():
    rng = np.random.default_rng(8)
    model = Model.init(SPEC, seed=9)
    opt = Adam(lr=0.005)
    x = rng.normal(size=(12, 8))
    labels = rng.integers(0, 3, size=12)
    _train_steps(model, opt, x, labels, 5)

    path = "/tmp/ckpt_roundtrip.bin"
    save_checkpoint(path, model, opt, epoch=5, seed=123)
    model2, opt2, epoch, seed = load_checkpoint(path)

    assert epoch == 5 and seed == 123
    assert model2.spec == SPEC
    for a, b in zip(model.parameters(), model2.parameters()):
        assert np.array_equal(a.data, b.data)
    assert isinstance(opt2, Adam)
    assert opt2.step_count == opt.step_count
    assert (opt2.lr, opt2.beta1, opt2.beta2, opt2.eps) == (opt.lr, opt.beta1, opt.beta2, opt.eps)
    for a, b in zip(opt._m + opt._v, opt2._m + opt2._v):
        assert np.array_equal(a, b)


def test_checkpoint_resume_matches_uninterrupted_run():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 8))
    labels = rng.integers(0, 3, size=20)

    straight = Model.init(SPEC, seed=10)
    opt_s = Adam(lr=0.01)
    _train_steps(straight, opt_s, x, labels, 6)

    half = Model.init(SPEC, seed=10)
    opt_h = Adam(lr=0.01)
    _train_steps(half, opt_h, x, labels, 3)
    path = "/tmp/ckpt_resume.bin"
    save_checkpoint(path, half, opt_h, epoch=3, seed=10)
    resumed, opt_r, _, _ = load_checkpoint(path)
    _train_steps(resumed, opt_r, x, labels, 3)

    for a, b in zip(straight.parameters(), resumed.parameters()):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_sgd_round_trip():
    model = Model.init(SPEC, seed=11)
    path = "/tmp/ckpt_sgd.bin"
    save_checkpoint(path, model, Sgd(lr=0.02), epoch=0, seed=1)
    _, opt, _, _ = load_checkpoint(path)
    assert isinstance(opt, Sgd)
    assert opt.lr == 0.02


def test_checkpoint_error_cases():
    model = Model.init(SPEC, seed=12)
    path = "/tmp/ckpt_errs.bin"
    save_checkpoint(path, model, Sgd(), epoch=1, seed=2)
    raw = open(path, "rb").read()

    bad_magic = b"XXXXXXXX" + raw[8:]
    open("/tmp/ckpt_badmagic.bin", "wb").write(bad_magic)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint("/tmp/ckpt_badmagic.bin")

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF
    open("/tmp/ckpt_flip.bin", "wb").write(bytes(flipped))
    with pytest.raises(ChecksumError, match="crc"):
        load_checkpoint("/tmp/ckpt_flip.bin")

    open("/tmp/ckpt_trunc.bin", "wb").write(raw[: len(raw) // 2])
    with pytest.raises(TruncatedError):
        load_checkpoint("/tmp/ckpt_trunc.bin")

    future = bytearray(raw)
    future[8] = 99
    open("/tmp/ckpt_future.bin", "wb").write(bytes(future))
    with pytest.raises(VersionError, match="99"):
        load_checkpoint("/tmp/ckpt_future.bin")
