"""Fully connected relu networks, optimizers, and checkpointing.

A Model owns its parameters as persistent Tensors (.data, .grad) so
optimizer state stays attached across epochs. All of its weights and
biases live in one contiguous float64 vector, Model.flat, and each .data
is a reshaped view of it, so an optimizer updates every parameter in one
call per step. The model is always a relu MLP under a softmax
cross-entropy loss, so gradients are written out by
hand rather than taken from a general autodiff engine: forward() returns
every layer's output, and backward() walks those cached outputs once in
reverse, adding the row-weighted loss's gradient into each parameter's
.grad or, on request, returning the input gradient instead. Callers may
pass backward() the same rows of each cached output (a kept subset of a
batch) without running forward again. Evaluation (predict,
per_example_losses) takes the logits from the same forward().

Checkpoint container (version 1), fields in order after magic+version:
    input_dim u64 | n_hidden u32 | hidden widths u64 each | num_classes u32
    per layer, input to output: W float64 row-major, then b float64
    optimizer kind u8 (1 = sgd, 2 = adam) | learning rate f64
    adam only: beta1 f64 | beta2 f64 | eps f64 | step count u64
               then per parameter (same order as layers, W before b):
               first-moment float64 array, second-moment float64 array
    epoch u64 | experiment seed i64
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .containers import ContainerReader, ContainerWriter, read_file
from .errors import ContractError, DimensionError, LabelError
from .tensor import Tensor

CHECKPOINT_MAGIC = b"INSCCKPT"
CHECKPOINT_VERSION = 1

_OPT_KIND_CODE = {"sgd": 1, "adam": 2}
_OPT_CODE_KIND = {v: k for k, v in _OPT_KIND_CODE.items()}


@dataclass(frozen=True)
class ModelSpec:
    input_dim: int
    hidden: tuple
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1:
            raise ContractError(f"input_dim must be positive, got {self.input_dim}")
        if self.num_classes < 2:
            raise ContractError(f"num_classes must be at least 2, got {self.num_classes}")
        if any(h < 1 for h in self.hidden):
            raise ContractError(f"hidden widths must be positive, got {self.hidden}")

    def layer_dims(self):
        dims = (self.input_dim, *self.hidden, self.num_classes)
        return list(zip(dims[:-1], dims[1:]))


def _views(flat, shapes):
    """Consecutive slices of flat, each reshaped to the next of shapes."""
    out, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        out.append(flat[lo:hi].reshape(shape))
        lo = hi
    return out


def _pack_parameters(params):
    """Copy the params' .data, in order, into one new contiguous float64
    vector and make each .data a view of it; returns the vector."""
    flat = np.empty(sum(p.data.size for p in params))
    for p, view in zip(params, _views(flat, [p.data.shape for p in params])):
        view[...] = p.data
        p.data = view
    return flat


class Model:
    def __init__(self, spec, weights, biases):
        self.spec = spec
        self.weights = weights
        self.biases = biases
        self.flat = _pack_parameters(self.parameters())

    @classmethod
    def init(cls, spec, seed):
        """He-normal weights, zero biases; layer draws in input-to-output order."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in spec.layer_dims():
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            weights.append(Tensor(w, requires_grad=True))
            biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
        return cls(spec, weights, biases)

    def clone(self):
        """An independent copy without gradients: Model() copies the
        parameters into a flat vector of its own."""
        weights = [Tensor(w.data, requires_grad=True) for w in self.weights]
        biases = [Tensor(b.data, requires_grad=True) for b in self.biases]
        return Model(self.spec, weights, biases)

    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def zero_grads(self):
        for p in self.parameters():
            p.zero_grad()

    def _check_input(self, x):
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise DimensionError(
                f"input shape {x.shape} does not match (n, {self.spec.input_dim})"
            )

    def forward(self, x):
        """Every layer's output for the rows of x: the input first, then
        each hidden layer after its relu, the logits last. No graph is kept."""
        h = np.asarray(x, dtype=np.float64)
        self._check_input(h)
        outputs = [h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.data + b.data
            if i != last:
                # relu with subgradient 0 at the kink; NaN propagates
                h = np.maximum(h, 0.0)
            outputs.append(h)
        return outputs

    def backward(self, outputs, probs, labels, row_weights, input_grad=False):
        """Backpropagate sum_i row_weights[i] * loss_i through forward's outputs.

        outputs is forward's list, or the same rows of each of its entries;
        its last entry, the logits, is not read and may be left out. probs
        are the softmax probabilities of those rows (from cross_entropy).
        Each parameter's gradient is added into its .grad. With
        input_grad=True the parameters are left alone and the gradient with
        respect to the input rows is returned instead.
        """
        labels = np.asarray(labels, dtype=np.int64)
        g = kernels.xent_backward(probs, labels, np.asarray(row_weights, dtype=np.float64))
        for i in reversed(range(len(self.weights))):
            if not input_grad:
                _accumulate(self.biases[i], g.sum(axis=0))
                _accumulate(self.weights[i], outputs[i].T @ g)
            if i:
                g = g @ self.weights[i].data.T
                # a hidden output is positive exactly where its relu passed
                g *= outputs[i] > 0.0
        return g @ self.weights[0].data.T if input_grad else None

    def loss_and_grads(self, x, labels, weight=1.0):
        """Add the gradients of weight * (mean loss over the rows of x) into
        the parameters' .grad; returns that weighted loss as a float."""
        outputs = self.forward(x)
        losses, probs = cross_entropy(outputs[-1], labels)
        n = len(losses)
        self.backward(outputs, probs, labels, np.full(n, weight / n))
        return float(losses.sum() / n * weight)

    def predict(self, x):
        # argmax breaks ties toward the lower class index
        return np.argmax(self.forward(x)[-1], axis=1)

    def per_example_losses(self, x, labels):
        """Cross-entropy loss of each row."""
        losses, _ = cross_entropy(self.forward(x)[-1], labels)
        return losses


def cross_entropy(logits, labels):
    """(per-row losses, softmax probabilities) of 2-D logits against labels."""
    if logits.ndim != 2:
        raise DimensionError(f"cross entropy: expected 2-D logits, got shape {logits.shape}")
    b, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise DimensionError(
            f"cross entropy: labels shape {labels.shape} does not match batch {b}"
        )
    bad = (labels < 0) | (labels >= c)
    if bad.any():
        i = int(np.argmax(bad))
        raise LabelError(f"label {int(labels[i])} at index {i} outside [0, {c})")
    return kernels.softmax_xent(np.ascontiguousarray(logits), labels)


def _accumulate(param, grad):
    if param.grad is None:
        param.grad = grad
    else:
        param.grad += grad


class _FlatStep:
    """The model's parameters as one flat vector, and their gradients
    gathered into one preallocated flat buffer of the same layout."""

    _grad = None

    def _flat_pair(self, model):
        params = model.parameters()
        if any(p.grad is None for p in params):
            raise ContractError("optimizer step before backward: a parameter has no gradient")
        # a bare parameter holder has no .flat: pack its parameters on the spot
        flat = getattr(model, "flat", None)
        if flat is None:
            flat = _pack_parameters(params)
        if self._grad is None or self._grad.size != flat.size:
            self._grad = np.empty(flat.size)
        np.concatenate([p.grad.reshape(-1) for p in params], out=self._grad)
        return flat, self._grad


class Sgd(_FlatStep):
    kind = "sgd"

    def __init__(self, lr=0.001):
        self.lr = float(lr)

    def attach(self, model):
        return self

    def clone(self):
        return Sgd(self.lr)

    def step(self, model):
        flat, grad = self._flat_pair(model)
        flat -= self.lr * grad


class Adam(_FlatStep):
    """Adam over the flat parameter vector. The moments are flat vectors
    too; _m and _v hold their per-parameter views, in parameter order."""

    kind = "adam"

    def __init__(self, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._m = self._v = self._m_flat = self._v_flat = None

    def attach(self, model):
        if self._m is None:
            shapes = [p.data.shape for p in model.parameters()]
            self._m_flat, self._v_flat = np.zeros((2, sum(math.prod(s) for s in shapes)))
            self._m = _views(self._m_flat, shapes)
            self._v = _views(self._v_flat, shapes)
        return self

    def clone(self):
        """An independent copy: its moments are flat vectors of their own,
        with per-parameter views into them, as attach() lays them out."""
        twin = Adam(self.lr, self.beta1, self.beta2, self.eps)
        twin.step_count = self.step_count
        if self._m is not None:
            shapes = [m.shape for m in self._m]
            twin._m_flat, twin._v_flat = self._m_flat.copy(), self._v_flat.copy()
            twin._m = _views(twin._m_flat, shapes)
            twin._v = _views(twin._v_flat, shapes)
        return twin

    def step(self, model):
        params = model.parameters()
        if self._m is None:
            self.attach(model)
        state_shapes = [m.shape for m in self._m]
        param_shapes = [p.data.shape for p in params]
        if state_shapes != param_shapes:
            raise ContractError(
                f"optimizer holds state for {len(self._m)} parameters, model has "
                f"{len(params)}: state shapes {state_shapes}, parameter shapes {param_shapes}"
            )
        flat, grad = self._flat_pair(model)
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        # one call over every parameter: Adam is per coordinate
        kernels.adam_update(
            flat, grad, self._m_flat, self._v_flat,
            self.lr, self.beta1, self.beta2, self.eps, c1, c2,
        )


def make_optimizer(kind, lr):
    if kind == "sgd":
        return Sgd(lr)
    if kind == "adam":
        return Adam(lr)
    raise ContractError(f"unknown optimizer kind {kind!r}")


def save_checkpoint(path, model, optimizer, epoch, seed):
    w = ContainerWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    spec = model.spec
    w.pack("<Q", spec.input_dim)
    w.pack("<I", len(spec.hidden))
    for h in spec.hidden:
        w.pack("<Q", h)
    w.pack("<I", spec.num_classes)
    for wt, bt in zip(model.weights, model.biases):
        w.array(wt.data, np.float64)
        w.array(bt.data, np.float64)
    w.pack("<B", _OPT_KIND_CODE[optimizer.kind])
    w.pack("<d", optimizer.lr)
    if optimizer.kind == "adam":
        optimizer.attach(model)
        w.pack("<ddd", optimizer.beta1, optimizer.beta2, optimizer.eps)
        w.pack("<Q", optimizer.step_count)
        for m, v in zip(optimizer._m, optimizer._v):
            w.array(m, np.float64)
            w.array(v, np.float64)
    w.pack("<Q", epoch)
    w.pack("<q", seed)
    w.save(path)


def load_checkpoint(path):
    """Returns (model, optimizer, epoch, seed)."""
    r = ContainerReader(read_file(path), CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    (input_dim,) = r.unpack("<Q")
    (n_hidden,) = r.unpack("<I")
    hidden = tuple(r.unpack("<Q")[0] for _ in range(n_hidden))
    (num_classes,) = r.unpack("<I")
    spec = ModelSpec(int(input_dim), hidden, int(num_classes))
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims():
        weights.append(Tensor(r.array(np.float64, (fan_in, fan_out)), requires_grad=True))
        biases.append(Tensor(r.array(np.float64, (fan_out,)), requires_grad=True))
    model = Model(spec, weights, biases)
    (kind_code,) = r.unpack("<B")
    kind = _OPT_CODE_KIND.get(kind_code)
    if kind is None:
        raise ContractError(f"unknown optimizer code {kind_code} in checkpoint")
    (lr,) = r.unpack("<d")
    if kind == "adam":
        beta1, beta2, eps = r.unpack("<ddd")
        opt = Adam(lr, beta1, beta2, eps).attach(model)
        (opt.step_count,) = r.unpack("<Q")
        for m, v in zip(opt._m, opt._v):
            m[...] = r.array(np.float64, m.shape)
            v[...] = r.array(np.float64, v.shape)
    else:
        opt = Sgd(lr)
    (epoch,) = r.unpack("<Q")
    (seed,) = r.unpack("<q")
    r.finish()
    return model, opt, int(epoch), int(seed)
