"""Plain SGD and Adam updates plus global gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from .params import ParameterSet
from .tensor import F32, Tensor

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
    """Adam (Kingma & Ba, 2015) with bias-corrected moments.

    ``m`` and ``v`` hold one flat zeroed float32 moment per parameter of
    ``params`` from construction on, so each ``step`` needs a gradient
    for every parameter. ``step`` updates the moments in place; a trainer
    checkpoints them, and the step count ``t``, as parts of its state."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, params: ParameterSet):
        self.lr = float(lr)
        self.t = 0
        self.m, self.v = ParameterSet(), ParameterSet()
        for name, t in params.items():
            self.m.add(name, Tensor(np.zeros(t.size, F32)))
            self.v.add(name, Tensor(np.zeros(t.size, F32)))

    def step(self, params: ParameterSet) -> None:
        self.t += 1
        b1, b2 = F32(self.beta1), F32(self.beta2)
        one = F32(1)
        c1 = F32(1.0 - self.beta1 ** self.t)
        c2 = F32(1.0 - self.beta2 ** self.t)
        lr, eps = F32(self.lr), F32(self.eps)
        for name, t in params.items():
            g, m, v = t.grad, self.m[name].data, self.v[name].data
            m *= b1
            m += (one - b1) * g
            v *= b2
            v += (one - b2) * g * g
            t.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
