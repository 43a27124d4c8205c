"""Adam on named parameter lists, with no weight decay: no route uses it.
The optimizer keeps the name ``AdamW`` because benchmarks trace
``optim.AdamW.step`` by that name."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

# Adam's moment decay rates and denominator guard (arXiv 1412.6980)
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8


class AdamW:
    """Deterministic Adam (AdamW without weight decay) over (name, Tensor)
    pairs.

    Only parameters with ``requires_grad`` at construction time are stepped,
    so frozen backbones stay bit-identical. Each step takes the gradients of
    all of them by name and updates the moments in place; the moments, like
    the step's arithmetic, take each parameter's dtype. State serializes
    to named arrays for checkpoints: ``state_arrays()`` copies them,
    ``state_views()`` hands out the live moments."""

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 1e-3):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = [(name, p) for name, p in named_params if p.requires_grad]
        self.lr = lr
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Update every stepped parameter from ``grads[name]``; a missing
        name raises KeyError before anything changes."""
        gs = [grads[name] for name, _ in self.params]
        self.step_count += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for (name, p), g in zip(self.params, gs):
            # in place, in the order of m*b1 + (1-b1)*g, v*b2 + (1-b2)*(g*g), p - lr*((m/bc1) / (sqrt(v/bc2) + eps))
            m, v, scratch = self._m[name], self._v[name], g * (1.0 - b1)
            np.add(np.multiply(m, b1, out=m), scratch, out=m)
            np.multiply(np.multiply(g, g, out=scratch), 1.0 - b2, out=scratch)
            np.add(np.multiply(v, b2, out=v), scratch, out=v)
            den = np.divide(v, bc2)
            np.add(np.sqrt(den, out=den), _EPS, out=den)
            np.multiply(np.divide(np.divide(m, bc1, out=scratch), den, out=scratch), self.lr, out=scratch)
            p.data = np.subtract(p.data, scratch, out=den)

    # ---- checkpoint support ----

    def state_views(self) -> dict[str, np.ndarray]:
        """The step count and the live moments (the next step changes them) by name."""
        out = {"opt.step": np.array([float(self.step_count)])}
        for name, _ in self.params:
            out[f"opt.m.{name}"] = self._m[name]
            out[f"opt.v.{name}"] = self._v[name]
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: value.copy() for name, value in self.state_views().items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Take the step count and adopt the moment arrays in their
        parameters' dtype, without a copy where they have it already: the
        next step changes them in place."""
        self.step_count = int(arrays["opt.step"][0])
        for name, p in self.params:
            self._m[name] = arrays[f"opt.m.{name}"].astype(p.data.dtype, copy=False)
            self._v[name] = arrays[f"opt.v.{name}"].astype(p.data.dtype, copy=False)
