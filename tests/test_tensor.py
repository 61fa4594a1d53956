import numpy as np
import pytest

import reference
from reference import EvaluationError, gradcheck

from lewisgame import tensor as T
from lewisgame.params import ParameterSet
from lewisgame.tensor import F32, ShapeError, Tape, Tensor, backward


def test_tensor_stores_its_array_at_its_shape():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float32
    assert t.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert (t.shape, t.size, t.ndim) == ((2, 2), 4, 2)
    # a Python scalar is stored as one element at shape (1,)
    s = Tensor(2.5)
    assert s.data.tolist() == [2.5]
    assert (s.shape, s.size, s.ndim) == ((1,), 1, 1)
    # shape, size and ndim are read from data
    t.data = np.zeros((3, 1, 2), np.float32)
    assert (t.shape, t.size, t.ndim) == ((3, 1, 2), 6, 3)


def test_softmax_uniform_on_equal_logits():
    out = reference.softmax(None, Tensor([[0.0, 0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, 0.25, atol=1e-7)


def test_softmax_direct_evaluation():
    out = reference.softmax(None, Tensor([[0.0, np.log(2.0)]]))
    assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-6)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0, 3, (5, 7)).astype(np.float32))
    out = reference.softmax(None, x)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(0, 2, (4, 6)).astype(np.float32))
    ls = T.log_softmax(None, x)
    s = reference.softmax(None, x)
    assert np.allclose(ls.data, np.log(s.data), atol=1e-5)


def test_log_softmax_normalises_each_row():
    out = T.log_softmax(None, Tensor(np.zeros((4, 3), np.float32)))
    assert out.shape == (4, 3)
    assert np.allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-6)


def test_log_softmax_refuses_ranks_other_than_two():
    for shape in [(3,), (2, 2, 3)]:
        with pytest.raises(ShapeError, match="log_softmax"):
            T.log_softmax(None, Tensor(np.zeros(shape, np.float32)))


def test_add_and_mul_refuse_mismatched_operands():
    a = Tensor(np.zeros((2, 3), np.float32))
    # add takes a's shape or a row over a's rows; mul only a's shape
    for b in [(2,), (1, 3), (3, 2), (1,)]:
        with pytest.raises(ShapeError, match="add"):
            T.add(None, a, Tensor(np.zeros(b, np.float32)))
    for b in [(3,), (1, 3), (3, 2), (1,)]:
        with pytest.raises(ShapeError, match="mul"):
            T.mul(None, a, Tensor(np.zeros(b, np.float32)))


def test_matmul_identity():
    a = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4))
    eye = Tensor(np.eye(3, dtype=np.float32))
    out = T.matmul(None, eye, a)
    assert out.data.tolist() == a.data.tolist()


def test_matmul_one_row_weight_gradient_is_the_product_bitwise():
    # a one-row left operand takes another numpy call for the right
    # operand's gradient; zeros in it must still give +0.0, as A.T @ G does
    rng = np.random.default_rng(0)
    a = Tensor(np.array([[0.0, 1.5, -2.0, 0.0]], np.float32), True)
    b = Tensor(rng.normal(0, 1, (4, 3)).astype(np.float32), True)
    g = rng.normal(0, 1, (1, 3)).astype(np.float32)
    tape = Tape()
    backward(tape, T.tsum(tape, T.mul(tape, T.matmul(tape, a, b),
                                      Tensor(g))))
    assert b.grad.tobytes() == (a.data.T @ g).tobytes()


def test_matmul_shape_error_names_op():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(None, Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))


def test_inner_value_and_shape_error():
    a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    b = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
    out = T.inner(None, a, b)
    want = np.einsum("md,kd->mk", a.data, b.data)
    assert out.shape == (2, 4)
    assert out.data.tolist() == want.tolist()
    with pytest.raises(ShapeError, match="inner"):
        T.inner(None, a, Tensor(np.zeros((4, 2), np.float32)))


def test_take_cols_backward_matches_one_hot_reference():
    # each row's columns are distinct and in any order; the gradient of
    # the take is the one-hot matrix of each row's columns times g
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(0, 1, (5, 9)).astype(np.float32), True)
    cols = np.stack([rng.permutation(9)[:4] for _ in range(5)])
    g = rng.normal(0, 1, (5, 4)).astype(np.float32)
    tape = Tape()
    out = T.take_cols(tape, a, cols)
    assert out.data.tolist() == np.take_along_axis(a.data, cols, 1).tolist()
    backward(tape, T.tsum(tape, T.mul(tape, out, Tensor(g))))
    onehot = np.arange(9) == cols[:, :, None]  # (5, 4, 9)
    want = (g[:, :, None] * onehot).sum(axis=1)
    assert a.grad.tolist() == want.tolist()


def test_take_cols_refuses_repeated_columns_and_bad_shapes():
    a = Tensor(np.zeros((2, 5), np.float32))
    with pytest.raises(ValueError, match="repeats a column"):
        T.take_cols(None, a, [[0, 1], [3, 3]])
    with pytest.raises(IndexError, match="take_cols"):
        T.take_cols(None, a, [[0, 5], [1, 2]])
    with pytest.raises(ShapeError, match="take_cols"):
        T.take_cols(None, a, [[0, 1]])


def test_embedding_out_of_bounds():
    table = Tensor(np.zeros((3, 2), np.float32))
    with pytest.raises(IndexError, match="out of range"):
        T.embedding(None, table, [3])


def _embedding_grad(n_rows, idx, g):
    """The table gradient ``embedding``'s rule gives for output grad ``g``."""
    table = Tensor(np.zeros((n_rows, g.shape[1]), F32), requires_grad=True)
    tape = Tape()
    out = T.embedding(tape, table, idx)
    backward(tape, T.tsum(tape, T.mul(tape, out, Tensor(g))))
    return table.grad


def _add_at(n_rows, idx, g):
    want = np.zeros((n_rows, g.shape[1]), F32)
    np.add.at(want, idx, g)
    return want


def test_embedding_backward_matches_add_at_bitwise_on_short_index_lists():
    # 100 indices, within one block of BLAS's inner dimension: the product
    # adds each table row's gradients in index order, as np.add.at does
    rng = np.random.default_rng(0)
    idx = rng.integers(1, 9, 100)  # repeats; rows 0 and 9 never hit
    g = rng.normal(0, 1, (100, 128)).astype(F32)
    got = _embedding_grad(10, idx, g)
    assert got.tobytes() == _add_at(10, idx, g).tobytes()
    assert not got[[0, 9]].any()


def test_embedding_backward_matches_add_at_on_long_index_lists():
    # 1000 indices at d=128 span several BLAS blocks, which sum in another
    # order: each row may differ from np.add.at by the two sums' worst
    # float32 round-off, 2·γ_n·Σ|g| over the n rows summed into it
    rng = np.random.default_rng(1)
    idx = rng.integers(0, 20, 1000) * 2  # odd rows never hit
    g = rng.normal(0, 1, (1000, 128)).astype(F32)
    got = _embedding_grad(40, idx, g)
    want = _add_at(40, idx, g)
    n = np.bincount(idx, minlength=40)[:, None]
    u = np.finfo(F32).eps / 2
    bound = 2 * (n * u / (1 - n * u)) * _add_at(40, idx, np.abs(g))
    assert (np.abs(got - want) <= bound).all()
    assert not got[1::2].any()


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    tape = Tape()
    loss = T.tsum(tape, x)
    backward(tape, loss)
    assert x.grad.tolist() == [1.0, 1.0, 1.0]


def test_backward_elementwise_square():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    tape = Tape()
    loss = T.tsum(tape, T.mul(tape, x, x))
    backward(tape, loss)
    assert x.grad.tolist() == [2.0, 4.0, 6.0]


def test_backward_cross_entropy_gradient():
    # d/dz of -log_softmax(z)[k] is softmax(z) - onehot(k)
    rng = np.random.default_rng(2)
    z = Tensor(rng.normal(0, 1, (1, 5)).astype(np.float32),
               requires_grad=True)
    k = 3
    tape = Tape()
    node = T.embedding(tape, T.reshape(tape, T.log_softmax(tape, z), (5, 1)),
                       [k])
    loss = T.mul(tape, T.reshape(tape, node, (1,)), Tensor([-1.0]))
    backward(tape, loss)
    expected = reference.softmax(None, z).data.copy()
    expected[0, k] -= 1.0
    assert np.allclose(z.grad, expected, atol=1e-6)


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tape = Tape()
    y = T.mul(tape, x, x)
    with pytest.raises(ShapeError, match="scalar"):
        backward(tape, y)


def test_backward_accumulates_across_shared_use():
    x = Tensor([2.0], requires_grad=True)
    tape = Tape()
    loss = T.tsum(tape, T.add(tape, x, x))
    backward(tape, loss)
    assert x.grad.tolist() == [2.0]


def test_backward_bitwise_deterministic():
    rng = np.random.default_rng(3)
    grads = []
    for _ in range(2):
        x = Tensor(rng.normal(0, 1, (3, 4)).astype(np.float32),
                   requires_grad=True)
        # identical inputs
        x.data = np.arange(12, dtype=np.float32).reshape(3, 4) / 7
        tape = Tape()
        h = T.tanh(tape, T.matmul(tape, x.copy() if False else x,
                                  Tensor(np.ones((4, 2), np.float32))))
        loss = T.tsum(tape, T.mul(tape, h, h))
        x.grad = None
        backward(tape, loss)
        grads.append(x.grad.tobytes())
    assert grads[0] == grads[1]


def _single_param(name, arr):
    ps = ParameterSet()
    ps.add(name, Tensor(arr, requires_grad=True))
    return ps


def test_gradcheck_quadratic_form():
    # central differences have zero truncation error on quadratics, so a
    # generous eps keeps float32 roundoff below the bound
    rng = np.random.default_rng(4)
    A = Tensor(rng.normal(0, 0.3, (4, 4)).astype(np.float32))
    ps = _single_param("x", rng.normal(0, 0.3, (1, 4)).astype(np.float32))

    def f(params, tape):
        x = params["x"]
        return T.tsum(tape, T.mul(tape, T.matmul(tape, x, A), x))

    assert gradcheck(f, ps, eps=0.125, n_coords=4, seed=0) < 1e-5


def test_gradcheck_constant_function():
    ps = _single_param("x", np.ones(3, np.float32))

    def f(params, tape):
        return T.tsum(tape, Tensor([5.0]))

    assert gradcheck(f, ps) == 0.0


def test_gradcheck_rejects_nonfinite():
    ps = _single_param("x", np.ones(2, np.float32))

    def f(params, tape):
        return T.tsum(tape, Tensor([np.inf]))

    with pytest.raises(EvaluationError):
        gradcheck(f, ps)


def _check_op(build, shapes, seed, eps=1e-3, tol=1e-3, offset=0.0):
    rng = np.random.default_rng(seed)
    ps = ParameterSet()
    for i, shape in enumerate(shapes):
        arr = rng.normal(0, 1, shape).astype(np.float32) + F32(offset)
        ps.add(f"p{i}", Tensor(arr, requires_grad=True))
    err = gradcheck(build, ps, eps=eps, n_coords=3, seed=seed)
    assert err < tol, f"gradcheck error {err}"
    for _, p in ps.items():
        assert p.grad.shape == p.shape


OP_CASES = {
    "matmul": (lambda p, t: T.tsum(t, T.tanh(t, T.matmul(t, p["p0"], p["p1"]))),
               [(3, 4), (4, 2)]),
    "matmul_one_row": (lambda p, t: T.tsum(t, T.tanh(
        t, T.matmul(t, p["p0"], p["p1"]))), [(1, 4), (4, 2)]),
    "add": (lambda p, t: T.tsum(t, T.tanh(t, T.add(t, p["p0"], p["p1"]))),
            [(3, 4), (4,)]),
    "mul": (lambda p, t: T.tsum(t, T.mul(t, p["p0"], p["p1"])),
            [(3, 4), (3, 4)]),
    "concat": (lambda p, t: T.tsum(t, T.tanh(
        t, reference.concat(t, [p["p0"], p["p1"]], axis=1))),
        [(2, 3), (2, 2)]),
    "mean_axis1": (lambda p, t: T.tsum(t, T.tanh(t, T.mul(
        t, T.mean(t, p["p0"]), p["p1"]))), [(3, 4, 2), (3, 2)]),
    "inner": (lambda p, t: T.tsum(t, T.tanh(t, T.inner(t, p["p0"], p["p1"]))),
              [(3, 4), (5, 4)]),
    "take_cols": (lambda p, t: T.tsum(t, T.tanh(t, T.take_cols(
        t, p["p0"], [[2, 0], [1, 3], [3, 2]]))), [(3, 4)]),
    "tsum": (lambda p, t: T.tsum(t, T.mul(t, p["p0"], p["p0"])), [(5,)]),
    "embedding": (lambda p, t: T.tsum(t, T.tanh(
        t, T.embedding(t, p["p0"], [0, 2, 2]))), [(4, 3)]),
    "reshape": (lambda p, t: T.tsum(t, T.tanh(
        t, T.reshape(t, p["p0"], (2, 6)))), [(3, 4)]),
    "tanh": (lambda p, t: T.tsum(t, T.tanh(t, p["p0"])), [(3, 4)]),
    "softmax": (lambda p, t: T.tsum(t, T.mul(
        t, reference.softmax(t, p["p0"]), p["p1"])), [(3, 5), (3, 5)]),
    "log_softmax": (lambda p, t: T.tsum(t, T.mul(
        t, T.log_softmax(t, p["p0"]), p["p1"])), [(3, 5), (3, 5)]),
    "gru_cell": (lambda p, t: T.tsum(t, reference.gru_cell(
        t, p["p0"], p["p1"], p["p2"], p["p3"])),
        [(2, 3), (2, 4), (7, 12), (12,)]),
    "gru_cell_split": (lambda p, t: T.tsum(t, reference.gru_cell_split(
        t, p["p0"], p["p1"], p["p2"])),
        [(2, 12), (2, 4), (4, 12)]),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradcheck_each_op(name):
    build, shapes = OP_CASES[name]
    for seed in range(3):
        _check_op(build, shapes, seed=seed)
