"""Shared oracles and checks for the test suite.

The oracles are deliberately naive reference implementations (python
loops, central differences) kept independent of the package internals so
they can serve as ground truth.
"""

import numpy as np
import pytest

from inscorr.errors import FormatError


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, one coordinate at a time."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(a, b, floor=1e-6):
    """Largest elementwise |a-b| / max(floor, |a|+|b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def softmax_rows(z):
    """Row softmax computed the obvious way, for oracle use."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    for i in range(z.shape[0]):
        row = z[i] - z[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def assert_every_damage_is_a_format_error(raw, path, load):
    """load(path) raises FormatError, and nothing else, for raw cut short at
    every offset and for raw with any one byte flipped (XOR 0xFF)."""
    damaged = [raw[:cut] for cut in range(len(raw))]
    for i in range(len(raw)):
        flipped = bytearray(raw)
        flipped[i] ^= 0xFF
        damaged.append(bytes(flipped))
    for blob in damaged:
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            load(path)
