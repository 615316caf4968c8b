"""Placeholder left where the autodiff graph was; no module in src/ imports it.

perfbench/layers.py imports inscorr.tensor and wraps Tensor.backward, which
nothing calls (tensor.backward_calls is always 0), like kernels.BACKEND and
warmup(); this module goes with the benchmark's tensor.* metrics."""


class Tensor:
    def backward(self):
        """Never called: Model.backward is the one gradient path."""
