"""Model init, forward paths, optimizers, and checkpoint round trips."""

import struct
import zlib

import numpy as np
import pytest

from inscorr import kernels
from inscorr.containers import ContainerWriter
from inscorr.errors import ContractError, FormatError
from inscorr.nn import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Adam,
    Model,
    ModelSpec,
    Sgd,
    cross_entropy,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)

from helpers import assert_every_damage_is_a_format_error

SPEC = ModelSpec(8, (16,), 3)


def _bare_model(values):
    """A one-input, two-class model without hidden layers (W then b: four
    parameters) whose flat vector holds values."""
    return Model(ModelSpec(1, (), 2), np.array(values, dtype=np.float64))


def _values(model):
    """Each parameter's view, in flat order: per layer, W then b."""
    return [p for pair in zip(model.weights, model.biases) for p in pair]


def _grads(model):
    """model.grad cut into one array per parameter, in flat order."""
    values = _values(model)
    cuts = np.cumsum([p.size for p in values])[:-1]
    return [g.reshape(p.shape) for g, p in zip(np.split(model.grad, cuts), values)]


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
    assert np.array_equal(m1.flat, m2.flat)
    assert not np.array_equal(m1.weights[0], m3.weights[0])


def test_init_he_scale_and_zero_biases():
    wide = Model.init(ModelSpec(64, (512,), 4), seed=0)
    w = wide.weights[0]
    assert w.std() == pytest.approx(np.sqrt(2.0 / 64), rel=0.05)
    for b in wide.biases:
        assert np.all(b == 0.0)


def test_forward_graph_matches_infer_path_exactly():
    rng = np.random.default_rng(1)
    model = Model.init(SPEC, seed=2)
    x = rng.normal(size=(10, 8))
    (w0, w1), (b0, b1) = model.weights, model.biases
    logits = model.forward(x)[-1]
    assert np.array_equal(logits, np.maximum(x @ w0 + b0, 0.0) @ w1 + b1)
    assert np.array_equal(model.predict(x), np.argmax(logits, axis=1))

    # a NaN weight reaches training, evaluation and the attack alike
    nan_net = Model.init(ModelSpec(4, (3,), 2), seed=3)
    nan_net.weights[0][0, 0] = np.nan
    x = rng.random((6, 4))
    labels = np.zeros(6, dtype=int)
    assert np.all(np.isnan(nan_net.forward(x)[-1]))
    assert np.all(np.isnan(nan_net.per_example_losses(x, labels)))
    assert np.isnan(nan_net.loss_and_grads(x, labels))


def test_a_float32_model_computes_in_float32():
    """Input rows are cast to the parameters' dtype; every layer output,
    loss, probability and gradient follows it."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 8))
    labels = rng.integers(0, 3, size=10)
    wide, narrow = Model.init(DEEP, seed=2), Model.init(DEEP, seed=2, dtype=np.float32)
    assert np.array_equal(narrow.flat, wide.flat.astype(np.float32))
    outputs = narrow.forward(x)
    assert np.array_equal(outputs[0], x.astype(np.float32))
    losses, probs = cross_entropy(outputs[-1], labels)
    assert {a.dtype for a in (*outputs, losses, probs)} == {np.dtype(np.float32)}
    grad_x = narrow.backward(outputs, probs, labels, np.full(10, 0.1), input_grad=True)
    assert grad_x.dtype == np.float32
    narrow.loss_and_grads(x, labels)
    assert narrow.grad.dtype == np.float32
    # the float32 pass tracks the float64 one to float32 rounding
    assert np.allclose(narrow.per_example_losses(x, labels),
                       wide.per_example_losses(x, labels), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_takes_rows_of_its_dtype_without_a_copy(dtype):
    # a run's float32 model reads the float32 rows of a Dataset in place
    x = np.random.default_rng(4).random((6, 8)).astype(dtype)
    assert np.shares_memory(Model.init(DEEP, seed=2, dtype=dtype).forward(x)[0], x)


def test_forward_rejects_wrong_width():
    model = Model.init(SPEC, seed=2)
    with pytest.raises(ContractError, match=r"\(3, 5\)"):
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
    assert model.grad is None


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ContractError, match=r"label 3 at index 1 outside \[0, 3\)"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ContractError, match=r"label -1 at index 0 outside \[0, 3\)"):
        cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))


@pytest.mark.parametrize("shape,labels,message", [
    ((2, 3), [0, 1, 2], r"labels shape \(3,\) does not match batch 2"),
    ((2, 3), [[0], [1]], r"labels shape \(2, 1\) does not match batch 2"),
    ((3,), [0], r"expected 2-D logits, got shape \(3,\)"),
], ids=["labels-longer", "labels-2d", "logits-1d"])
def test_cross_entropy_shape_errors(shape, labels, message):
    with pytest.raises(ContractError, match=message):
        cross_entropy(np.zeros(shape), labels)


def test_sgd_step_moves_against_gradient():
    model = _bare_model([1.0, -1.0, 1.0, -1.0])
    model.grad = np.array([0.5, -0.25, 0.5, -0.25])
    Sgd(lr=0.1).step(model)
    assert np.allclose(model.flat, [0.95, -0.975, 0.95, -0.975])


def test_step_without_gradient_raises():
    model = _bare_model([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ContractError, match="no gradient"):
        Sgd().step(model)
    with pytest.raises(ContractError, match="no gradient"):
        Adam().step(model)
    assert np.array_equal(model.flat, [1.0, 1.0, 1.0, 1.0])


def test_adam_converges_on_scalar_quadratic():
    # minimize (w - 3)^2 from w = 0 in every coordinate; the oracle is the
    # known minimum
    model = _bare_model([0.0, 0.0, 0.0, 0.0])
    opt = Adam(lr=0.1)
    for _ in range(400):
        model.zero_grads()
        model.grad = 2.0 * (model.flat - 3.0)
        opt.step(model)
    assert model.flat == pytest.approx([3.0] * 4, abs=1e-3)


def test_adam_first_step_size_near_lr():
    model = _bare_model([5.0, -2.0, 5.0, -2.0])
    model.grad = np.array([0.3, -40.0, 0.3, -40.0])
    Adam(lr=0.01).step(model)
    # bias-corrected first step is lr * sign(g) up to the eps term
    assert model.flat == pytest.approx([5.0 - 0.01, -2.0 + 0.01] * 2, abs=1e-6)


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


DEEP = ModelSpec(8, (16, 8), 3)


class _PerParameterAdam:
    """Adam stepped one parameter at a time: the reference for the fused
    step over the flat vector."""

    kind = "adam"

    def __init__(self, lr):
        self.lr, self.beta1, self.beta2, self.eps = lr, 0.9, 0.999, 1e-8
        self.step_count = 0
        self.m = self.v = None

    def step(self, model):
        params = _values(model)
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for p, g, m, v in zip(params, _grads(model), self.m, self.v):
            kernels.adam_update(
                p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1),
                self.lr, self.beta1, self.beta2, self.eps, c1, c2,
            )


class _PerParameterSgd:
    kind = "sgd"

    def __init__(self, lr):
        self.lr = lr

    def step(self, model):
        for p, g in zip(_values(model), _grads(model)):
            p -= self.lr * g


def _reference_checkpoint_bytes(model, opt):
    """Checkpoint format v3 written field by field, with struct and zlib
    alone, from per-parameter arrays and a per-parameter optimizer."""
    spec = model.spec
    out = b"INSCCKPT" + struct.pack("<IQI", 3, spec.input_dim, len(spec.hidden))
    out += b"".join(struct.pack("<Q", h) for h in spec.hidden)
    dtype_code = {np.float32: 1, np.float64: 2}[model.flat.dtype.type]
    out += struct.pack("<IB", spec.num_classes, dtype_code)
    out += b"".join(p.tobytes() for p in _values(model))
    out += struct.pack("<Bd", {"sgd": 1, "adam": 2}[opt.kind], opt.lr)
    if opt.kind == "adam":
        # each moment whole: the per-parameter arrays one after another
        out += struct.pack("<Q", opt.step_count)
        out += b"".join(m.tobytes() for m in opt.m) + b"".join(v.tobytes() for v in opt.v)
    return out + struct.pack("<I", zlib.crc32(out))


def _deep_problem():
    rng = np.random.default_rng(21)
    return rng.normal(size=(24, 8)), rng.integers(0, 3, size=24)


def test_model_parameters_are_views_of_one_flat_vector(tmp_path):
    model = Model.init(DEEP, seed=3)
    params = _values(model)
    assert [p.shape for p in params] == DEEP.shapes()
    assert model.flat.size == sum(p.size for p in params)
    assert np.array_equal(model.flat, np.concatenate([p.ravel() for p in params]))
    for p in params:
        assert np.shares_memory(p, model.flat)
    save_checkpoint(tmp_path / "ckpt.bin", model, Adam())
    loaded, opt = load_checkpoint(tmp_path / "ckpt.bin")
    assert np.array_equal(loaded.flat, model.flat) and loaded.grad is None
    for p in _values(loaded):
        assert np.shares_memory(p, loaded.flat)
    assert opt._m.shape == opt._v.shape == loaded.flat.shape


def test_flat_adam_matches_per_parameter_steps_bitwise(tmp_path):
    x, labels = _deep_problem()
    for dtype in (np.float64, np.float32):
        fused = Model.init(DEEP, seed=4, dtype=dtype)
        reference = Model.init(DEEP, seed=4, dtype=dtype)
        opt, ref_opt = Adam(lr=0.01), _PerParameterAdam(lr=0.01)
        _train_steps(fused, opt, x, labels, 5)
        _train_steps(reference, ref_opt, x, labels, 5)
        assert fused.flat.dtype == fused.grad.dtype == opt._m.dtype == opt._v.dtype == dtype
        assert np.array_equal(fused.flat, reference.flat)
        for flat, per_parameter in ((opt._m, ref_opt.m), (opt._v, ref_opt.v)):
            assert np.array_equal(flat, np.concatenate([a.ravel() for a in per_parameter]))

        # checkpoint format v3: same bytes as the field-by-field writer
        path = tmp_path / "fused.ckpt"
        save_checkpoint(path, fused, opt)
        assert path.read_bytes() == _reference_checkpoint_bytes(reference, ref_opt)


def test_flat_sgd_matches_per_parameter_steps_bitwise(tmp_path):
    x, labels = _deep_problem()
    for dtype in (np.float64, np.float32):
        fused = Model.init(DEEP, seed=5, dtype=dtype)
        reference = Model.init(DEEP, seed=5, dtype=dtype)
        opt, ref_opt = Sgd(lr=0.05), _PerParameterSgd(0.05)
        _train_steps(fused, opt, x, labels, 5)
        _train_steps(reference, ref_opt, x, labels, 5)
        assert np.array_equal(fused.flat, reference.flat)
        path = tmp_path / "fused.ckpt"
        save_checkpoint(path, fused, opt)
        assert path.read_bytes() == _reference_checkpoint_bytes(reference, ref_opt)


def test_adam_calls_the_kernel_once_per_step(monkeypatch):
    calls = []
    fused_kernel = kernels.adam_update

    def counted(*args):
        calls.append(args[0].size)
        fused_kernel(*args)

    monkeypatch.setattr(kernels, "adam_update", counted)
    x, labels = _deep_problem()
    model = Model.init(DEEP, seed=6)
    _train_steps(model, Adam(), x, labels, 4)
    assert calls == [model.flat.size] * 4


def _unflushed_adam_update(p, g, m, v, lr, b1, b2, eps, c1, c2):
    """kernels.adam_update as it was before it flushed first moments."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _dead_unit_trajectory(steps):
    """Train a float32 model whose hidden unit 0 is killed after 20 steps of
    nonzero gradients (its W1 column and bias set negative, the inputs are
    nonnegative); return its parameters and first moments after each step,
    the unit's activations at the end and the mask of its parameters."""
    unit = Model(SPEC, dtype=np.float32)
    unit.weights[0][:, 0] = unit.biases[0][0] = unit.weights[1][0] = 1
    unit = unit.flat == 1
    rng = np.random.default_rng(22)
    x = rng.random((24, 8)).astype(np.float32)
    labels = rng.integers(0, 3, size=24)
    model, opt = Model.init(SPEC, seed=8, dtype=np.float32), Adam(lr=0.01)
    _train_steps(model, opt, x, labels, 20)
    assert np.all(opt._m[unit] != 0)
    model.weights[0][:, 0] = -np.abs(model.weights[0][:, 0])
    model.biases[0][0] = -5.0
    flats, moments = [], []
    for _ in range(steps):
        _train_steps(model, opt, x, labels, 1)
        flats.append(model.flat.copy())
        moments.append(opt._m.copy())
    return flats, moments, model.forward(x)[1][:, 0], unit


def test_a_dead_unit_leaves_no_subnormal_first_moment(monkeypatch):
    """Its zero gradients decay its moments by 0.9 a step; the flushed
    kernel sets them to 0 before they turn subnormal, and moves every
    parameter bitwise as the unflushed kernel does."""
    flats, moments, dead, unit = _dead_unit_trajectory(900)
    assert np.all(dead == 0)
    tiny = np.finfo(np.float32).tiny
    for m in moments:
        assert not np.any((m != 0) & (np.abs(m) < tiny))
    assert np.all(moments[-1][unit] == 0)

    monkeypatch.setattr(kernels, "adam_update", _unflushed_adam_update)
    unflushed_flats, unflushed_moments, _, _ = _dead_unit_trajectory(900)
    assert any(np.any((m != 0) & (np.abs(m) < tiny)) for m in unflushed_moments)
    for flat, unflushed in zip(flats, unflushed_flats):
        assert np.array_equal(flat, unflushed)


def test_adam_rejects_a_model_with_another_parameter_count():
    """Or with as many parameters of other shapes; the model is left alone."""
    x, labels = _deep_problem()
    for spec, match in (
        (DEEP, "holds state for 4 parameters, model has 6"),
        (ModelSpec(8, (32,), 3), r"state shapes \[\(8, 16\), \(16,\), \(16, 3\), \(3,\)\], "
                                 r"parameter shapes \[\(8, 32\), \(32,\), \(32, 3\), \(3,\)\]"),
    ):
        opt, first = Adam(), Model.init(SPEC, seed=7)
        first.loss_and_grads(x, labels)
        opt.step(first)
        moments = opt._m.copy(), opt._v.copy()
        model = Model.init(spec, seed=7)
        model.loss_and_grads(x, labels)
        before = model.flat.copy()
        with pytest.raises(ContractError, match=match):
            opt.step(model)
        assert opt.step_count == 1 and np.array_equal(model.flat, before)
        assert np.array_equal(opt._m, moments[0]) and np.array_equal(opt._v, moments[1])


def _checkpoint_bytes(tmp_path, model, opt):
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, model, opt)
    return path.read_bytes()


def test_clone_keeps_the_flat_views_and_steps_like_the_original(tmp_path):
    x, labels = _deep_problem()
    model, opt = Model.init(DEEP, seed=8), Adam(lr=0.01)
    _train_steps(model, opt, x, labels, 3)
    twin, twin_opt = model.clone(), opt.clone()

    for p, q in zip(_values(twin), _values(model)):
        assert np.shares_memory(p, twin.flat) and not np.shares_memory(p, model.flat)
        assert np.array_equal(p, q)
    assert twin.grad is None
    assert np.array_equal(twin_opt._m, opt._m) and np.array_equal(twin_opt._v, opt._v)
    assert not np.shares_memory(twin_opt._m, opt._m) and not np.shares_memory(twin_opt._v, opt._v)
    assert twin_opt.step_count == opt.step_count == 3

    before = _checkpoint_bytes(tmp_path, model, opt)
    assert _checkpoint_bytes(tmp_path, twin, twin_opt) == before
    _train_steps(twin, twin_opt, x, labels, 1)
    # the step moved the clone through its flat vectors, and only the clone
    assert not np.array_equal(twin.flat, model.flat)
    assert _checkpoint_bytes(tmp_path, model, opt) == before
    _train_steps(model, opt, x, labels, 1)
    assert np.array_equal(twin.flat, model.flat)
    assert _checkpoint_bytes(tmp_path, twin, twin_opt) == _checkpoint_bytes(tmp_path, model, opt)


def test_sgd_clone_steps_like_the_original():
    x, labels = _deep_problem()
    model, opt = Model.init(DEEP, seed=9), Sgd(lr=0.05)
    _train_steps(model, opt, x, labels, 2)
    twin, twin_opt = model.clone(), opt.clone()
    _train_steps(twin, twin_opt, x, labels, 2)
    _train_steps(model, opt, x, labels, 2)
    assert twin_opt.lr == opt.lr and np.array_equal(twin.flat, model.flat)


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


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(12, 8))
    labels = rng.integers(0, 3, size=12)
    for dtype in (np.float64, np.float32):
        model = Model.init(SPEC, seed=9, dtype=dtype)
        opt = Adam(lr=0.005)
        _train_steps(model, opt, x, labels, 5)

        path = tmp_path / "ckpt_roundtrip.bin"
        save_checkpoint(path, model, opt)
        model2, opt2 = load_checkpoint(path)

        assert model2.spec == SPEC
        assert model2.flat.dtype == opt2._m.dtype == opt2._v.dtype == dtype
        assert np.array_equal(model.flat, model2.flat)
        assert isinstance(opt2, Adam)
        assert (opt2.lr, opt2.step_count) == (opt.lr, opt.step_count)
        assert np.array_equal(opt._m, opt2._m) and np.array_equal(opt._v, opt2._v)


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 8))
    labels = rng.integers(0, 3, size=20)

    straight = Model.init(SPEC, seed=10)
    opt_s = Adam(lr=0.01)
    _train_steps(straight, opt_s, x, labels, 6)

    half = Model.init(SPEC, seed=10)
    opt_h = Adam(lr=0.01)
    _train_steps(half, opt_h, x, labels, 3)
    path = tmp_path / "ckpt_resume.bin"
    save_checkpoint(path, half, opt_h)
    resumed, opt_r = load_checkpoint(path)
    _train_steps(resumed, opt_r, x, labels, 3)

    assert np.array_equal(straight.flat, resumed.flat)


def test_checkpoint_sgd_round_trip(tmp_path):
    model = Model.init(SPEC, seed=11)
    path = tmp_path / "ckpt_sgd.bin"
    save_checkpoint(path, model, Sgd(lr=0.02))
    _, opt = load_checkpoint(path)
    assert isinstance(opt, Sgd)
    assert opt.lr == 0.02


def test_checkpoint_error_cases(tmp_path):
    model = Model.init(SPEC, seed=12)
    path = tmp_path / "ckpt_errs.bin"
    save_checkpoint(path, model, Sgd())
    raw = open(path, "rb").read()

    bad_magic = b"XXXXXXXX" + raw[8:]
    open(tmp_path / "ckpt_badmagic.bin", "wb").write(bad_magic)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(tmp_path / "ckpt_badmagic.bin")

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF
    open(tmp_path / "ckpt_flip.bin", "wb").write(bytes(flipped))
    with pytest.raises(FormatError, match="crc mismatch"):
        load_checkpoint(tmp_path / "ckpt_flip.bin")

    open(tmp_path / "ckpt_trunc.bin", "wb").write(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="needed"):
        load_checkpoint(tmp_path / "ckpt_trunc.bin")

    future = bytearray(raw)
    future[8] = 99
    open(tmp_path / "ckpt_future.bin", "wb").write(bytes(future))
    with pytest.raises(FormatError, match="container version 99 "):
        load_checkpoint(tmp_path / "ckpt_future.bin")

    # version 1 held float64 without a dtype code, version 2 Adam's
    # constants and an epoch/seed trailer; neither is read any more
    assert CHECKPOINT_VERSION == 3
    for version in (1, 2):
        old = bytearray(raw)
        old[8] = version
        open(tmp_path / "ckpt_old.bin", "wb").write(bytes(old))
        with pytest.raises(FormatError,
                           match=f"version {version} is not the supported version 3"):
            load_checkpoint(tmp_path / "ckpt_old.bin")

    # parameter counts the body cannot hold fail before any allocation,
    # even when the count overflows int64
    for hidden in (2**40, 2**62):
        huge = ContainerWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        huge.pack("<QIQIB", 8, 1, hidden, 3, 1)
        huge.array(np.zeros(64), np.float32)
        huge.save(tmp_path / "ckpt_huge.bin")
        with pytest.raises(FormatError, match="needed"):
            load_checkpoint(tmp_path / "ckpt_huge.bin")

    bad_dtype = ContainerWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    bad_dtype.pack("<QIIB", 8, 0, 3, 7)
    bad_dtype.save(tmp_path / "ckpt_dtype.bin")
    with pytest.raises(FormatError, match="dtype code 7"):
        load_checkpoint(tmp_path / "ckpt_dtype.bin")


def test_a_well_framed_checkpoint_of_an_invalid_model_is_a_format_error(tmp_path):
    # one class, with the crc recomputed: the reader's fault, not a caller's
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, Model.init(SPEC, seed=12), Sgd())
    raw = bytearray(path.read_bytes()[:-4])
    # magic, version, input width, hidden count, one hidden width, then classes
    struct.pack_into("<I", raw, 8 + 4 + 8 + 4 + 8, 1)
    path.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(raw)))
    with pytest.raises(FormatError, match=r"ckpt\.bin: num_classes must be at least 2, got 1"):
        load_checkpoint(path)


def test_every_truncation_or_flipped_byte_of_a_checkpoint_is_a_format_error(tmp_path):
    x, labels = np.random.default_rng(23).random((6, 4)), np.array([0, 1] * 3)
    model, opt = Model.init(ModelSpec(4, (3,), 2), seed=13, dtype=np.float32), Adam(lr=0.01)
    _train_steps(model, opt, x, labels, 2)
    path = tmp_path / "small.ckpt"
    assert_every_damage_is_a_format_error(save_checkpoint(path, model, opt), path,
                                          load_checkpoint)
