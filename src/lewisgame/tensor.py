"""Dense float32 tensors with tape-based reverse-mode differentiation.

A tensor is its numpy array: ``data`` holds the values at the tensor's
shape, a tuple of positive ints. Ops validate shapes eagerly, compute
with numpy, and build their output through one helper, ``_node``: the
output requires gradients when an input does, and then (when a Tape is
supplied) its backward rule is recorded on the tape. A rule returns one
gradient per input, constants included. Backward replays the tape in
exact reverse order, so two runs on identical inputs produce
bitwise-equal gradients. Gradients accumulate additively until
explicitly zeroed.

Passing ``tape=None`` to any op runs it in inference mode: same numpy
computation, nothing recorded.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

F32 = np.float32


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested op."""


class Tensor:
    """A C-contiguous float32 array ``data`` with an optional gradient.

    A scalar is stored at shape (1,); ``shape``, ``size`` and ``ndim``
    are those of ``data``, and a populated ``grad`` is an array of the
    same shape. Leaf tensors created with ``requires_grad=True`` receive
    gradients during backward; constants do not.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        # ascontiguousarray gives a 0-d input shape (1,)
        self.data = np.ascontiguousarray(values, dtype=F32)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has shape {self.shape}, not scalar")
        return self.data.item()

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), self.requires_grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Execution-ordered op record; backward replays it exactly reversed.

    A tape and the tensors on it belong to a single worker; nothing here
    locks. Call :func:`backward` once per recorded graph.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple, rule) -> None:
        self._nodes.append((out, inputs, rule))


def _accum(t: Tensor, g: np.ndarray) -> None:
    g = g.reshape(t.shape)
    if t.grad is None:
        t.grad = g.astype(F32, copy=False)
    else:
        t.grad += g


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate grads of every reachable gradient-requiring tensor.

    ``loss`` must be a scalar produced on this tape. Every node was made
    by ``_node``, and its rule returns one gradient per input; a rule
    that returns another count raises ValueError. Only inputs that
    require gradients take theirs, added into existing buffers, so
    shared parameters accumulate contributions from every use.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    _accum(loss, np.ones(1, F32))
    for out, inputs, rule in reversed(tape._nodes):
        g = out.grad
        if g is None:
            continue
        for inp, gi in zip(inputs, rule(g), strict=True):
            if inp.requires_grad:
                _accum(inp, gi)


# ---------------------------------------------------------------------------
# ops


_requires_grad = attrgetter("requires_grad")


def _node(tape, values, inputs: tuple, rule) -> Tensor:
    """An op's output: ``values``, needing a gradient when any input
    does, and then recorded on ``tape`` (if given) with its ``rule``."""
    # map over an attrgetter tests the inputs in C, without a generator
    out = Tensor(values, any(map(_requires_grad, inputs)))
    if out.requires_grad and tape is not None:
        tape.record(out, inputs, rule)
    return out


def matmul(tape, a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    A, B = a.data, b.data

    def rule(g):
        # np.matmul multiplies a one-row A's (k, 1) transpose without
        # BLAS, 5-10x slower than np.dot, which gives the same bits
        return g @ B.T, np.dot(A.T, g) if len(A) == 1 else A.T @ g
    return _node(tape, A @ B, (a, b), rule)


def inner(tape, a: Tensor, b: Tensor) -> Tensor:
    """Inner products of every row of a (m, d) with every row of b (k, d):
    (m, k) with out[i, j] = a[i] . b[j]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"inner: incompatible shapes {a.shape} and {b.shape}")
    A, B = a.data, b.data

    def rule(g):
        return g @ B, g.T @ A
    return _node(tape, A @ B.T, (a, b), rule)


def add(tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a + b; b has a's shape or is a row over a's rows."""
    row = a.ndim == 2 and b.shape == (a.shape[1],)
    if b.shape != a.shape and not row:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def rule(g):
        return g.copy(), g.sum(axis=0, dtype=F32) if row else g
    return _node(tape, a.data + b.data, (a, b), rule)


def mul(tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    A, B = a.data, b.data

    def rule(g):
        return g * B, g * A
    return _node(tape, A * B, (a, b), rule)


def mean(tape, a: Tensor, m: int) -> Tensor:
    """Mean of each run of m rows of a rank-2 tensor, (n·m, d) -> (n, d)."""
    if a.ndim != 2 or a.shape[0] % m:
        raise ShapeError(f"mean: cannot pool {a.shape} in runs of {m} rows")

    def rule(g):
        return (np.repeat(g / F32(m), m, axis=0),)
    return _node(tape, a.data.reshape(-1, m, a.shape[1]).mean(
        axis=1, dtype=F32), (a,), rule)


def tsum(tape, a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    def rule(g):
        return (np.full(a.shape, g[0], F32),)
    return _node(tape, a.data.sum(dtype=F32), (a,), rule)


def _scatter_rows(shape, idx, rows: np.ndarray) -> np.ndarray:
    """A zero array of ``shape`` with each row ``rows[i]`` added into row
    ``idx[i]``: the gradient of gathering rows by ``idx``.

    Computed as one product, a one-hot (shape[0], len(idx)) float32
    matrix times ``rows``, which costs less than ``numpy.add.at`` for the
    tables here (a vocabulary, or a step's message summaries). BLAS sums
    in its own order: within one block of its inner dimension that is
    index order, as ``numpy.add.at`` sums, so results match it bitwise
    for short index lists (up to about 384 indices at 128 columns with
    OpenBLAS 0.3.31's SkylakeX kernels on 2 cores), and beyond that
    differ from it by float32 round-off. A non-finite entry of ``rows``
    makes its whole column of the result NaN, since 0 · inf is NaN.
    """
    n = len(idx)
    onehot = np.zeros((shape[0], n), F32)
    onehot[idx, np.arange(n)] = F32(1)
    return onehot @ rows.reshape(n, shape[1])


def check_index(name: str, idx: np.ndarray, n: int) -> None:
    """Refuse an integer array holding an index outside [0, n)."""
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise IndexError(f"{name}: index {bad} out of range [0, {n})")


def embedding(tape, table: Tensor, ids) -> Tensor:
    """Gather rows of a rank-2 tensor by integer index."""
    if table.ndim != 2:
        raise ShapeError(f"embedding: table must be rank 2, got {table.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"embedding: indices must be 1-D, got shape {idx.shape}")
    check_index("embedding", idx, table.shape[0])

    def rule(g):
        return (_scatter_rows(table.shape, idx, g),)
    return _node(tape, table.data[idx], (table,), rule)


def take_cols(tape, a: Tensor, cols) -> Tensor:
    """Row i's columns ``cols[i]`` of a rank-2 tensor: (n, m) and integer
    (n, k) give (n, k). The backward writes into zeros, so a row that
    repeats a column, whose gradients would have to add, is refused."""
    idx = np.asarray(cols, dtype=np.intp)
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"take_cols: columns {idx.shape} for {a.shape}")
    check_index("take_cols", idx, a.shape[1])
    if (np.diff(np.sort(idx, axis=1), axis=1) == 0).any():
        raise ValueError("take_cols: a row repeats a column")

    def rule(g):
        G = np.zeros(a.shape, F32)
        np.put_along_axis(G, idx, g, 1)
        return (G,)
    return _node(tape, np.take_along_axis(a.data, idx, 1), (a,), rule)


def reshape(tape, a: Tensor, shape) -> Tensor:
    """The same values, row-major, at a new shape (copies, no views)."""
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")

    def rule(g):
        return (g.copy(),)
    return _node(tape, a.data.reshape(shape).copy(), (a,), rule)


def tanh(tape, a: Tensor) -> Tensor:
    out_nd = np.tanh(a.data)

    def rule(g):
        return (g * (F32(1) - out_nd * out_nd),)
    return _node(tape, out_nd, (a,), rule)


def _log_softmax_rows(X: np.ndarray, out=None) -> np.ndarray:
    """Log-softmax of each row of a rank-2 array, into ``out`` if given."""
    shifted = X - X.max(axis=1, keepdims=True)
    return np.subtract(shifted, np.log(np.exp(shifted).sum(
        axis=1, keepdims=True)), out=out)


def log_softmax(tape, a: Tensor) -> Tensor:
    """Log-softmax of each row of a rank-2 tensor."""
    if a.ndim != 2:
        raise ShapeError(f"log_softmax: needs rank 2, got shape {a.shape}")
    out_nd = _log_softmax_rows(a.data)

    def rule(g):
        return (g - np.exp(out_nd) * g.sum(axis=1, keepdims=True),)
    return _node(tape, out_nd, (a,), rule)
