import numpy as np

from lewisgame.optim import Adam, Sgd, clip_global_norm, grad_global_norm
from lewisgame.params import ParameterSet
from lewisgame.tensor import Tensor


def _params(**named):
    ps = ParameterSet()
    for name, (data, grad) in named.items():
        t = Tensor(data, requires_grad=True)
        if grad is not None:
            t.grad = np.asarray(grad, np.float32)
        ps.add(name, t)
    return ps


def test_sgd_basic_step():
    ps = _params(w=([1.0], [2.0]))
    Sgd(0.1).step(ps)
    assert np.allclose(ps["w"].data, [0.8], atol=1e-7)


def test_sgd_zero_gradient_leaves_params():
    ps = _params(w=([1.5], [0.0]))
    before = ps["w"].data.tobytes()
    Sgd(0.1).step(ps)
    assert ps["w"].data.tobytes() == before


def test_sgd_zero_lr_bitwise_noop():
    ps = _params(w=([1.5, -2.5], [0.3, -0.7]))
    before = ps["w"].data.tobytes()
    Sgd(0.0).step(ps)
    assert ps["w"].data.tobytes() == before


def test_adam_first_step_unit_update():
    # bias correction at t=1 makes the step -lr * g/(|g| + eps)
    ps = _params(w=([0.0], [1.0]))
    Adam(0.1, ps).step(ps)
    assert abs(float(ps["w"].data[0]) + 0.1 / (1 + 1e-8)) < 1e-6


def test_fresh_adam_holds_zero_moments_for_every_parameter():
    ps = _params(a=([0.5], [1.0]), b=([0.0, 1.0, 2.0], None))
    opt = Adam(0.01, ps)
    assert opt.t == 0
    for moments in (opt.m, opt.v):
        assert moments.names() == ["a", "b"]
        for name, size in (("a", 1), ("b", 3)):
            t = moments[name]
            assert t.shape == (size,) and t.data.dtype == np.float32
            assert t.data.tolist() == [0.0] * size


def _clip(ps, max_norm):
    return clip_global_norm(ps, max_norm, grad_global_norm(ps))


def test_clip_noop_below_max():
    ps = _params(w=([0.3, 0.4], [0.3, 0.4]))  # norm 0.5
    scale = _clip(ps, 1.0)
    assert scale == 1.0
    assert np.allclose(ps["w"].grad, [0.3, 0.4])


def test_clip_scales_to_max():
    ps = _params(w=([0.0, 0.0], [3.0, 4.0]))  # norm 5
    scale = _clip(ps, 1.0)
    assert abs(scale - 0.2) < 1e-6
    assert np.allclose(ps["w"].grad, [0.6, 0.8], atol=1e-6)


def test_clip_postcondition_norm_bounded():
    rng = np.random.default_rng(0)
    for seed in range(20):
        g = rng.normal(0, 3, 17).astype(np.float32)
        ps = _params(w=(np.zeros(17, np.float32), g))
        _clip(ps, 1.0)
        assert grad_global_norm(ps) <= 1.0 + 1e-6


def test_clip_idempotent():
    rng = np.random.default_rng(1)
    g = rng.normal(0, 5, 33).astype(np.float32)
    ps = _params(w=(np.zeros(33, np.float32), g))
    _clip(ps, 1.0)
    once = ps["w"].grad.tobytes()
    scale2 = _clip(ps, 1.0)
    assert scale2 == 1.0
    assert ps["w"].grad.tobytes() == once


def test_clip_empty_grads_scale_one():
    ps = _params(w=([1.0], None))
    assert _clip(ps, 1.0) == 1.0


def test_clip_scales_by_the_norm_it_is_given():
    # the caller's norm is taken as is, not recomputed from the grads
    ps = _params(w=([0.0, 0.0], [0.3, 0.4]))  # norm 0.5
    assert clip_global_norm(ps, 1.0, 0.5) == 1.0
    scale = clip_global_norm(ps, 1.0, 4.0)
    assert scale == np.float32(0.25)
    assert ps["w"].grad.tolist() == (np.float32([0.3, 0.4])
                                     * np.float32(0.25)).tolist()
