"""Adam on named parameter lists, with no weight decay: no route uses it.
The optimizer keeps the name ``AdamW`` because benchmarks trace
``optim.AdamW.step`` by that name.

Each moment, and the step's gradient, is one contiguous buffer over the
stepped parameters, with a view per name, so each of Adam's elementwise
passes is one numpy call per block of ``_BLOCK`` values, not one per
parameter; only the final subtraction from each parameter runs per name."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

# Adam's moment decay rates and denominator guard (arXiv 1412.6980)
_BETA1, _BETA2 = 0.9, 0.999
_EPS = 1e-8
# values per pass: a block of each of the four arrays a pass reads (512 KB in float32) stays in cache
_BLOCK = 1 << 15


class AdamW:
    """Deterministic Adam (AdamW without weight decay) over (name, Tensor)
    pairs.

    Only parameters with ``requires_grad`` at construction time are stepped,
    so frozen backbones stay bit-identical. They must share one dtype,
    which the moments, the gradient buffer and the step's arithmetic take.
    ``grad`` is the step's gradient as one flat array and ``grad_views``
    the same memory by name; ``fill_grad`` fills it from losses. State
    serializes to named arrays for checkpoints: ``state_arrays()`` copies
    them, ``state_views()`` hands out the live moments, each a view of one
    buffer."""

    def __init__(self, named_params: list[tuple[str, ad.Tensor]], lr: float = 1e-3):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = [(name, p) for name, p in named_params if p.requires_grad]
        first_in = {}  # dtype -> the first stepped parameter in it
        for name, p in self.params:
            first_in.setdefault(p.data.dtype, name)
        if len(first_in) > 1:
            found = ", ".join(f"'{name}' is {dtype}" for dtype, name in first_in.items())
            raise ValueError(f"AdamW steps parameters of one dtype: {found}")
        dtype = next(iter(first_in), np.dtype(np.float64))
        size = sum(p.data.size for _, p in self.params)
        self.lr = lr
        self.step_count = 0
        # rows: the first moment, the second, the step's gradient (which the step turns into its update)
        self._buffer = np.zeros((3, size), dtype)
        self._scratch = np.empty(min(size, _BLOCK), dtype)
        self.grad = self._buffer[2]
        self._m, self._v, self.grad_views = (self._views(row) for row in self._buffer)
        self._into = {id(p): self.grad_views[name] for name, p in self.params}  # backward's sink, by leaf id

    def _views(self, row: np.ndarray) -> dict[str, np.ndarray]:
        views, lo = {}, 0
        for name, p in self.params:
            views[name] = row[lo : lo + p.data.size].reshape(p.data.shape)
            lo += p.data.size
        return views

    def fill_grad(self, losses) -> None:
        """Set ``grad`` to the sum of the gradients of the scalar losses that
        the callables ``losses`` build, in order: each backward adds into
        ``grad`` before the next loss is built. A parameter no loss reaches
        gets zeros. In checked mode each running sum is tested after its
        backward, and a non-finite one raises NonFiniteError naming it."""
        reached: set[int] = set()
        self.grad.fill(-0.0)  # -0.0 + x is x for every x, +0.0 included, so the first loss's gradients land bit for bit
        for build in losses:
            reached.update(ad.backward(build(), self._into))
            if ad.checked_enabled():
                for name, g in self.grad_views.items():
                    if not np.isfinite(g).all():
                        raise ad.NonFiniteError(f"non-finite gradient of '{name}', which checked mode does not trap")
        for name, p in self.params:
            if id(p) not in reached:
                self.grad_views[name].fill(0.0)

    def step(self) -> None:
        """Update every stepped parameter, in place, from ``grad``, and leave
        the update it subtracted in ``grad``."""
        self.step_count += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for lo in range(0, self.grad.size, _BLOCK):
            m, v, g = self._buffer[:, lo : lo + _BLOCK]
            den = self._scratch[: g.size]
            # in place, in the order of m*b1 + (1-b1)*g, v*b2 + (1-b2)*(g*g), lr*((m/bc1) / (sqrt(v/bc2) + eps))
            np.add(np.multiply(m, b1, out=m), np.multiply(g, 1.0 - b1, out=den), out=m)
            np.multiply(np.multiply(g, g, out=g), 1.0 - b2, out=g)
            np.add(np.multiply(v, b2, out=v), g, out=v)
            np.add(np.sqrt(np.divide(v, bc2, out=den), out=den), _EPS, out=den)
            np.multiply(np.divide(np.divide(m, bc1, out=g), den, out=g), self.lr, out=g)
        for name, p in self.params:
            np.subtract(p.data, self.grad_views[name], out=p.data)

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
        """Take the step count, and copy each moment into the optimizer's
        buffer, cast to its dtype."""
        self.step_count = int(arrays["opt.step"][0])
        for name, _ in self.params:
            np.copyto(self._m[name], arrays[f"opt.m.{name}"])
            np.copyto(self._v[name], arrays[f"opt.v.{name}"])
