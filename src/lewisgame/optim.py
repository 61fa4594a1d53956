"""Plain SGD and Adam updates plus global gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from .params import FormatError, ParameterSet, is_count
from .tensor import F32

# slack keeps a second clip call from rescaling by one ulp
_CLIP_SLACK = 1e-6


def grad_global_norm(params: ParameterSet) -> float:
    """L2 norm over every populated gradient in the set."""
    total = 0.0
    for _, t in params.items():
        if t.grad is not None:
            total += float(np.dot(t.grad, t.grad))
    return math.sqrt(total)


def clip_global_norm(params: ParameterSet, max_norm: float,
                     norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most ``max_norm``.

    ``norm`` is that joint norm as ``grad_global_norm`` computes it, so a
    caller that has already taken it need not take it again. Returns the
    scale applied (1.0 when no clipping was needed). The comparison
    carries a tiny slack so clipping is idempotent.
    """
    if max_norm <= 0:
        raise ValueError("clip_global_norm: max_norm must be positive")
    if norm <= max_norm * (1.0 + _CLIP_SLACK):
        return 1.0
    scale = F32(max_norm / norm)
    for _, t in params.items():
        if t.grad is not None:
            t.grad *= scale
    return float(scale)


class Sgd:
    """Vanilla stochastic gradient descent; it keeps no state."""

    def __init__(self, lr: float):
        self.lr = float(lr)

    def step(self, params: ParameterSet) -> None:
        lr = F32(self.lr)
        for _, t in params.items():
            if t.grad is not None:
                t.data -= lr * t.grad


class Adam:
    """Adam (Kingma & Ba, 2015) with bias-corrected moments. Every
    parameter of ``params`` holds zeroed moments from construction on, so
    each ``step`` needs a gradient for every parameter and
    ``state_arrays`` always holds the same keys."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, params: ParameterSet):
        self.lr = float(lr)
        self.t = 0
        self._m = {name: np.zeros(t.size, F32) for name, t in params.items()}
        self._v = {name: np.zeros(t.size, F32) for name, t in params.items()}

    def step(self, params: ParameterSet) -> None:
        self.t += 1
        b1, b2 = F32(self.beta1), F32(self.beta2)
        one = F32(1)
        c1 = F32(1.0 - self.beta1 ** self.t)
        c2 = F32(1.0 - self.beta2 ** self.t)
        lr, eps = F32(self.lr), F32(self.eps)
        for name, t in params.items():
            g, m, v = t.grad, self._m[name], self._v[name]
            m *= b1
            m += (one - b1) * g
            v *= b2
            v += (one - b2) * g * g
            t.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

    def state_arrays(self) -> dict:
        return {"t": np.array([self.t], F32),
                **{f"m.{name}": m for name, m in self._m.items()},
                **{f"v.{name}": v for name, v in self._v.items()}}

    def load_state_arrays(self, arrays: dict) -> None:
        """Restore ``state_arrays`` output. All of ``arrays`` is checked
        before any of it is taken: unless it holds exactly the keys of
        ``state_arrays``, each moment at its parameter's size and ``t`` a
        whole number >= 0, ``FormatError`` names the first entry at fault
        and the optimizer is left as it was."""
        own = self.state_arrays()
        for key in sorted(own.keys() | arrays.keys()):
            if not (key in own and key in arrays
                    and arrays[key].shape == own[key].shape
                    and (key != "t" or is_count(arrays[key]))):
                raise FormatError(f"bad optimizer state entry {key!r}")
        self.t = int(arrays["t"][0])
        self._m = {name: arrays[f"m.{name}"].astype(F32, copy=True)
                   for name in self._m}
        self._v = {name: arrays[f"v.{name}"].astype(F32, copy=True)
                   for name in self._v}
