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


def clip_global_norm(params: ParameterSet, max_norm: float) -> float:
    """Scale all grads so their joint L2 norm is at most ``max_norm``.

    Returns the scale applied (1.0 when no clipping was needed). The
    comparison carries a tiny slack so clipping is idempotent.
    """
    if max_norm <= 0:
        raise ValueError("clip_global_norm: max_norm must be positive")
    norm = grad_global_norm(params)
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
    """Adam with bias-corrected first/second moments.

    Moment buffers appear lazily per parameter name, starting at zero.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: ParameterSet) -> None:
        self.t += 1
        b1, b2 = F32(self.beta1), F32(self.beta2)
        one = F32(1)
        c1 = F32(1.0 - self.beta1 ** self.t)
        c2 = F32(1.0 - self.beta2 ** self.t)
        lr, eps = F32(self.lr), F32(self.eps)
        for name, t in params.items():
            g = t.grad
            if g is None:
                continue
            if name not in self._m:
                self._m[name] = np.zeros(t.size, F32)
                self._v[name] = np.zeros(t.size, F32)
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (one - b1) * g
            v *= b2
            v += (one - b2) * g * g
            t.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)

    def state_arrays(self) -> dict:
        out = {"t": np.array([self.t], F32)}
        for name in self._m:
            out[f"m.{name}"] = self._m[name]
            out[f"v.{name}"] = self._v[name]
        return out

    def load_state_arrays(self, arrays: dict, params: ParameterSet) -> None:
        """Restore ``state_arrays`` output kept for ``params``.

        All of ``arrays`` is checked before any of it is taken: an
        unknown key, a step count that is not a whole number >= 0, or
        moments that are not one m and one v of a parameter's size raise
        ``FormatError`` and leave the optimizer as it was.
        """
        for key, arr in arrays.items():
            kind, _, name = key.partition(".")
            if key == "t":
                ok = is_count(arr)
            else:
                ok = (kind in ("m", "v") and name in params
                      and arr.shape == (params[name].size,)
                      and f"{'v' if kind == 'm' else 'm'}.{name}" in arrays)
            if not ok:
                raise FormatError(f"bad optimizer state entry {key!r}")
        self.t = int(arrays["t"][0]) if "t" in arrays else 0
        self._m = {k[2:]: a.astype(F32, copy=True)
                   for k, a in arrays.items() if k.startswith("m.")}
        self._v = {k[2:]: a.astype(F32, copy=True)
                   for k, a in arrays.items() if k.startswith("v.")}
