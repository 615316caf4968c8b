"""Shared oracles and checks for the test suite.

The oracles are deliberately naive reference implementations (python
loops, central differences) kept independent of the package internals so
they can serve as ground truth.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from inscorr.errors import FormatError


# JSON values of every kind, leaning to the ones a config key refuses:
# huge and negative integers, floats (non-finite and subnormal ones
# included), strings, lists, sections and null
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8),
    st.integers(), st.integers(min_value=2**31), st.integers(max_value=-1),
    st.sampled_from([2**63, 2**64, 10**39, 10**400, -2**63 - 1]),
    st.floats(), st.sampled_from([float("inf"), float("-inf"), float("nan"), 5e-324]),
)
JSON_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


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


def damaged(data, raw):
    """raw cut short at an offset drawn from data (hypothesis st.data()), or
    with one drawn byte XORed by a drawn nonzero mask."""
    if data.draw(st.booleans(), label="truncate"):
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    out = bytearray(raw)
    out[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
        st.integers(1, 255), label="mask")
    return bytes(out)
