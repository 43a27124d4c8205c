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
    all of them by name. State serializes to named arrays for inclusion in
    checkpoints.
    """

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
            m = self._m[name] = b1 * self._m[name] + (1.0 - b1) * g
            v = self._v[name] = b2 * self._v[name] + (1.0 - b2) * (g * g)
            p.data = p.data - self.lr * ((m / bc1) / (np.sqrt(v / bc2) + _EPS))

    # ---- checkpoint support ----

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"opt.step": np.array([float(self.step_count)])}
        for name, _ in self.params:
            out[f"opt.m.{name}"] = self._m[name].copy()
            out[f"opt.v.{name}"] = self._v[name].copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        self.step_count = int(arrays["opt.step"][0])
        for name, _ in self.params:
            self._m[name] = np.array(arrays[f"opt.m.{name}"])
            self._v[name] = np.array(arrays[f"opt.v.{name}"])
