"""Fully connected relu networks, optimizers, and checkpointing.

A Model owns its state as two vectors of one float dtype, float64 by
default (pipeline.init_model builds a run's model in float32).
Model.flat holds every weight and bias, and Model.weights /
Model.biases are reshaped views of it, so an optimizer updates every
parameter in one call per step. Model.grad is the gradient over the
same layout: None until a backward writes to it, and None again after
zero_grads(). Everything the model computes follows the dtype of
Model.flat: forward() casts its input rows to it (no copy for a run's
float32 model, whose data are float32 too), and the losses,
probabilities, gradients and Adam moments come out in it.

The model is always a relu MLP under a softmax cross-entropy loss, so
gradients are written out by hand rather than taken from a general
autodiff engine: forward() returns every layer's output, and backward()
walks those cached outputs once in reverse, adding the row-weighted
loss's gradient into views of Model.grad or, on request, returning the
input gradient instead. Callers may pass backward() the same rows of
each cached output (a kept subset of a batch) without running forward
again. Evaluation (predict, per_example_losses) takes the logits from
the same forward().

Checkpoint container (version 3), fields in order after magic+version:
    input_dim u64 | n_hidden u32 | hidden widths u64 each | num_classes u32
    parameter dtype u8 (1 = float32, 2 = float64)
    Model.flat: per layer, input to output, W row-major, then b, in that dtype
    optimizer kind u8 (1 = sgd, 2 = adam) | learning rate f64
    adam only: step count u64 | first-moment vector | second-moment vector,
               each laid out as Model.flat, in that dtype
Adam's betas and eps are constants of the class, so no file stores them.
Version 1 (float64 without a dtype code) and version 2 (with Adam's
constants, per-parameter interleaved moments and an epoch/seed trailer)
are no longer read.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .containers import ContainerReader, ContainerWriter, read_file
from .errors import ContractError, FormatError

CHECKPOINT_MAGIC = b"INSCCKPT"
CHECKPOINT_VERSION = 3

_DTYPE_CODE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_CODE_DTYPE = {v: k for k, v in _DTYPE_CODE.items()}

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

    def shapes(self):
        """Parameter shapes in Model.flat order: each layer's W, then its b."""
        dims = (self.input_dim, *self.hidden, self.num_classes)
        return [s for n_in, n_out in zip(dims[:-1], dims[1:]) for s in ((n_in, n_out), (n_out,))]

    def param_count(self):
        """The length of Model.flat: every weight and bias."""
        return sum(math.prod(s) for s in self.shapes())


def _views(flat, shapes):
    """Consecutive slices of flat, each reshaped to the next of shapes."""
    out, lo = [], 0
    for shape in shapes:
        hi = lo + math.prod(shape)
        out.append(flat[lo:hi].reshape(shape))
        lo = hi
    return out


class Model:
    def __init__(self, spec, flat=None, dtype=np.float64):
        """flat, the parameter vector the model takes over, defaults to
        zeros of dtype; a given flat keeps its own dtype."""
        self.spec = spec
        self.shapes = spec.shapes()
        if flat is None:
            flat = np.zeros(spec.param_count(), dtype=dtype)
        self.flat = flat
        views = _views(flat, self.shapes)
        self.weights, self.biases = views[0::2], views[1::2]
        self.grad = None

    @classmethod
    def init(cls, spec, seed, dtype=np.float64):
        """He-normal weights, zero biases; layer draws in input-to-output
        order, made in float64 and rounded to dtype."""
        rng = np.random.default_rng(seed)
        model = cls(spec, dtype=dtype)
        for w in model.weights:
            w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)
        return model

    def clone(self):
        """An independent copy without a gradient."""
        return Model(self.spec, self.flat.copy())

    def zero_grads(self):
        self.grad = None

    def _check_input(self, x):
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ContractError(
                f"input shape {x.shape} does not match (n, {self.spec.input_dim})"
            )

    def forward(self, x):
        """Every layer's output for the rows of x: the input first, cast
        to the parameters' dtype (x itself when it already has it), then
        each hidden layer after its relu, the logits last. No graph is
        kept."""
        h = np.asarray(x, dtype=self.flat.dtype)
        self._check_input(h)
        outputs = [h]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b
            if i != last:
                # relu with subgradient 0 at the kink; NaN propagates
                np.maximum(h, 0.0, out=h)
            outputs.append(h)
        return outputs

    def backward(self, outputs, probs, labels, row_weights, input_grad=False):
        """Backpropagate sum_i row_weights[i] * loss_i through forward's outputs.

        outputs is forward's list, or the same rows of each of its entries;
        its last entry, the logits, is not read and may be left out. probs
        are the softmax probabilities of those rows (from cross_entropy).
        The parameters' gradient is added into self.grad, which starts
        from zeros when it is None. With input_grad=True self.grad is left
        alone and the gradient with respect to the input rows is returned
        instead.
        """
        labels = np.asarray(labels, dtype=np.int64)
        dtype = self.flat.dtype
        g = kernels.xent_backward(probs, labels, np.asarray(row_weights, dtype=dtype))
        if not input_grad:
            if self.grad is None:
                self.grad = np.zeros(self.flat.size, dtype=dtype)
            grads = _views(self.grad, self.shapes)
        for i in reversed(range(len(self.weights))):
            if not input_grad:
                grads[2 * i + 1] += g.sum(axis=0)
                grads[2 * i] += outputs[i].T @ g
            if i:
                g = g @ self.weights[i].T
                # a hidden output is positive exactly where its relu passed
                g *= outputs[i] > 0.0
        return g @ self.weights[0].T if input_grad else None

    def loss_and_grads(self, x, labels, weight=1.0):
        """Add the gradient of weight * (mean loss over the rows of x) into
        self.grad; returns that weighted loss as a float."""
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
    """(per-row losses, softmax probabilities) of 2-D logits against
    labels, in the logits' dtype."""
    if logits.ndim != 2:
        raise ContractError(f"cross entropy: expected 2-D logits, got shape {logits.shape}")
    b, c = logits.shape
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (b,):
        raise ContractError(
            f"cross entropy: labels shape {labels.shape} does not match batch {b}"
        )
    bad = (labels < 0) | (labels >= c)
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(f"label {int(labels[i])} at index {i} outside [0, {c})")
    return kernels.softmax_xent(np.ascontiguousarray(logits), labels)


def _grad(model):
    if model.grad is None:
        raise ContractError("optimizer step before backward: the model has no gradient")
    return model.grad


class Sgd:
    kind = "sgd"

    def __init__(self, lr=0.001):
        self.lr = float(lr)

    def clone(self):
        return Sgd(self.lr)

    def step(self, model):
        model.flat -= self.lr * _grad(model)


class Adam:
    """Adam over the flat parameter vector, with the constants below for
    every run. Its moments are flat vectors too, allocated in the
    parameters' dtype at the first step or save for the parameter shapes of
    that model; a model of other shapes is refused from then on. The
    kernel sets a first moment to 0 once its step lr * |m| falls below the
    dtype's smallest normal, so the moments hold no subnormals. The step
    that flush skips could move only a parameter within about 2e-22 of 0
    (float32, eps 1e-8); every other parameter moves bitwise as without
    it."""

    kind = "adam"
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr=0.001):
        self.lr = float(lr)
        self.step_count = 0
        self._shapes = self._m = self._v = None

    def clone(self):
        """An independent copy, with moment vectors of its own."""
        twin = Adam(self.lr)
        twin.step_count = self.step_count
        if self._m is not None:
            twin._shapes, twin._m, twin._v = self._shapes, self._m.copy(), self._v.copy()
        return twin

    def _moments(self, model):
        """(first, second) moment vectors for model, zeros at first use."""
        shapes = model.shapes
        if self._m is None:
            self._shapes = shapes
            self._m, self._v = np.zeros((2, model.flat.size), dtype=model.flat.dtype)
        elif shapes != self._shapes:
            raise ContractError(
                f"optimizer holds state for {len(self._shapes)} parameters, model has "
                f"{len(shapes)}: state shapes {self._shapes}, parameter shapes {shapes}"
            )
        return self._m, self._v

    def step(self, model):
        m, v = self._moments(model)
        grad = _grad(model)
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        # one call over every parameter: Adam is per coordinate
        kernels.adam_update(
            model.flat, grad, m, v,
            self.lr, self.beta1, self.beta2, self.eps, c1, c2,
        )


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}


def make_optimizer(kind, lr):
    if kind not in OPTIMIZERS:
        raise ContractError(f"unknown optimizer kind {kind!r}")
    return OPTIMIZERS[kind](lr)


def save_checkpoint(path, model, optimizer):
    w = ContainerWriter(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    spec = model.spec
    w.pack("<Q", spec.input_dim)
    w.pack("<I", len(spec.hidden))
    for h in spec.hidden:
        w.pack("<Q", h)
    w.pack("<I", spec.num_classes)
    dtype = model.flat.dtype
    w.pack("<B", _DTYPE_CODE[dtype])
    w.array(model.flat, dtype)
    w.pack("<B", _OPT_KIND_CODE[optimizer.kind])
    w.pack("<d", optimizer.lr)
    if optimizer.kind == "adam":
        m, v = optimizer._moments(model)
        w.pack("<Q", optimizer.step_count)
        w.array(m, dtype)
        w.array(v, dtype)
    return w.save(path)


def load_checkpoint(path):
    """Returns (model, optimizer), the model's parameters and the
    optimizer's moments in the dtype the checkpoint records."""
    r = ContainerReader(read_file(path), CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    (input_dim,) = r.unpack("<Q")
    (n_hidden,) = r.unpack("<I")
    hidden = tuple(r.unpack("<Q")[0] for _ in range(n_hidden))
    (num_classes,) = r.unpack("<I")
    try:
        spec = ModelSpec(int(input_dim), hidden, int(num_classes))
    except ContractError as error:
        raise FormatError(f"{path}: {error}") from error
    (dtype_code,) = r.unpack("<B")
    dtype = _CODE_DTYPE.get(dtype_code)
    if dtype is None:
        raise FormatError(f"unknown parameter dtype code {dtype_code} in checkpoint")
    # the parameters are read, size-checked against the body, before
    # anything of the declared shape is allocated
    shape = (spec.param_count(),)
    model = Model(spec, r.array(dtype, shape))
    (kind_code,) = r.unpack("<B")
    kind = _OPT_CODE_KIND.get(kind_code)
    if kind is None:
        raise FormatError(f"unknown optimizer code {kind_code} in checkpoint")
    (lr,) = r.unpack("<d")
    opt = OPTIMIZERS[kind](lr)
    if kind == "adam":
        (opt.step_count,) = r.unpack("<Q")
        opt._shapes = model.shapes
        opt._m, opt._v = r.array(dtype, shape), r.array(dtype, shape)
    r.finish()
    return model, opt
