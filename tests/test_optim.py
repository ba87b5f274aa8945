import math

import numpy as np
import pytest

from dualda.errors import ContractError
from dualda.optim import SGD, Schedule, lambda_at, lr_at

from oracles import sgd_two_step_unrolled


def test_lr_at_endpoints():
    s = Schedule()
    assert lr_at(s, 0.0) == 0.002
    # direct evaluation of 0.002 / 11**0.75
    assert lr_at(s, 1.0) == pytest.approx(0.00033112005215234035, abs=1e-12)


def test_lr_at_constant_when_alpha_zero():
    s = Schedule(alpha=0.0)
    assert all(lr_at(s, p) == 0.002 for p in (0.0, 0.3, 1.0))


def test_lr_at_strictly_decreasing():
    s = Schedule()
    grid = np.linspace(0, 1, 101)
    values = [lr_at(s, p) for p in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lr_at_rejects_out_of_range():
    s = Schedule()
    with pytest.raises(ContractError):
        lr_at(s, -0.01)
    with pytest.raises(ContractError):
        lr_at(s, 1.01)


def test_lr_at_is_zero_where_the_power_overflows():
    """eta0 / inf = 0.0 where (1 + alpha*p)^beta overflows float64; the
    same expression, and so the same bits, everywhere else."""
    steep = Schedule(beta=1000.0)
    assert lr_at(steep, 1.0) == 0.0
    assert lr_at(Schedule(alpha=1e308, beta=2.0), 1.0) == 0.0
    assert lr_at(steep, 0.0) == steep.eta0
    assert lr_at(steep, 0.01) == steep.eta0 / (1.0 + 10.0 * 0.01) ** 1000.0
    assert lr_at(steep, 0.01) > 0.0
    values = [lr_at(steep, p) for p in np.linspace(0, 1, 101)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_lambda_at_values():
    s = Schedule()
    assert lambda_at(s, 0.0) == 0.0
    # direct evaluation of 2/(1+exp(-5)) - 1
    assert lambda_at(s, 0.5) == pytest.approx(0.9866142981514305, abs=1e-12)


def test_lambda_at_monotone_and_bounded():
    s = Schedule()
    grid = np.linspace(0, 1, 1001)
    values = [lambda_at(s, p) for p in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == 0.0
    assert all(0.0 <= v < 1.0 for v in values)


def test_schedule_validation():
    with pytest.raises(ContractError):
        Schedule(eta0=0.0)
    with pytest.raises(ContractError):
        Schedule(momentum=1.0)
    with pytest.raises(ContractError):
        Schedule(alpha=-1.0)
    for name in ("eta0", "alpha", "beta", "gamma", "momentum"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ContractError, match=f"{name} must be finite"):
                Schedule(**{name: bad})


def _on_buffer(*values):
    """One flat buffer holding the values one after another, and each
    value's view of it: the parameters of one SGD."""
    values = [np.asarray(v, dtype=np.float64) for v in values]
    buffer = np.concatenate([v.ravel() for v in values])
    views, offset = [], 0
    for v in values:
        views.append(buffer[offset:offset + v.size].reshape(v.shape))
        offset += v.size
    return buffer, views


def _step(sgd, named, lr):
    """Write each (slice names, parameter, gradient) item's gradient into
    sgd's gradient store, then step the items as one block."""
    for names, param, grad in named:
        sgd.grad_view(names, param)[...] = grad
    sgd.step([sgd.block([(names, param) for names, param, _ in named])], lr)


def test_sgd_vanilla():
    buffer, (param,) = _on_buffer([1.0])
    _step(SGD(buffer, momentum=0.0), [(("p",), param, [2.0])], lr=0.1)
    assert param[0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_takes_a_0d_lr_as_one_lr_bytewise():
    rng = np.random.default_rng(4)
    base, grads = rng.standard_normal(5), rng.standard_normal((2, 5))
    stepped = []
    for lr in (0.1, np.array(0.1), np.float64(0.1)):
        buffer, (param,) = _on_buffer(base)
        opt = SGD(buffer, momentum=0.9)
        for g in grads:
            _step(opt, [(("p",), param, g)], lr)
        stepped.append(param.tobytes())
    assert stepped[0] != base.tobytes()
    assert stepped[1] == stepped[0] and stepped[2] == stepped[0]


def test_sgd_zero_grad_no_change():
    buffer, (param,) = _on_buffer([1.5, -2.0])
    opt = SGD(buffer, momentum=0.9)
    for _ in range(2):
        _step(opt, [(("p",), param, np.zeros(2))], lr=0.5)
    assert np.array_equal(param, [1.5, -2.0])


def test_sgd_two_steps_match_hand_unrolled_oracle():
    rng = np.random.default_rng(0)
    param = rng.standard_normal(4)
    g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
    expected = sgd_two_step_unrolled(param.copy(), g1, g2, lr=0.1, momentum=0.9)

    buffer, (live,) = _on_buffer(param)
    opt = SGD(buffer, momentum=0.9)
    _step(opt, [(("p",), live, g1)], lr=0.1)
    _step(opt, [(("p",), live, g2)], lr=0.1)
    assert np.allclose(live, expected, atol=1e-12)


def test_sgd_momentum_zero_is_affine_in_grads():
    rng = np.random.default_rng(1)
    base = rng.standard_normal(5)
    grad = rng.standard_normal(5)

    def stepped(g):
        buffer, (param,) = _on_buffer(base)
        _step(SGD(buffer, momentum=0.0), [(("p",), param, g)], lr=0.2)
        return param

    # with momentum 0 the update is param -= lr*grad, so scaling grads by a
    # power of two scales the applied step exactly
    assert np.array_equal(stepped(grad.copy()), base - 0.2 * grad)
    assert np.array_equal(stepped(4.0 * grad), base - 4.0 * (0.2 * grad))
    assert np.allclose(stepped(3.0 * grad), base - 3.0 * (0.2 * grad),
                       rtol=1e-14, atol=0.0)


def test_sgd_names_the_parameter_that_stops_being_finite():
    buffer, (ok, bad) = _on_buffer(np.ones(2), [1.0, 1e308])
    with np.errstate(over="ignore"), \
            pytest.raises(ContractError, match=r"sgd: parameter layer\.bias "):
        _step(SGD(buffer, 0.0), [(("layer.weight",), ok, np.ones(2)),
                                 (("layer.bias",), bad, [0.0, -1e308])], 10.0)
    assert np.array_equal(ok, [-9.0, -9.0])


def test_sgd_on_a_stacked_array_equals_one_step_per_slice_bytewise():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((2, 3, 4))
    grads = [rng.standard_normal((2, 3, 4)) for _ in range(3)]
    buffer, (param,) = _on_buffer(base)
    slices_buffer, per_slice = _on_buffer(base[0], base[1])
    stacked = SGD(buffer, momentum=0.9)
    single = SGD(slices_buffer, momentum=0.9)
    names = ("invariant.w", "discriminative.w")
    for g in grads:
        _step(stacked, [(names, param, g)], [0.1, 0.03])
        for m, lr in enumerate((0.1, 0.03)):
            _step(single, [((names[m],), per_slice[m], g[m])], lr)
    for m in range(2):
        assert param[m].tobytes() == per_slice[m].tobytes()


def test_sgd_names_the_slice_that_stops_being_finite():
    buffer, (param,) = _on_buffer(np.ones((2, 2)))
    grad = np.array([[0.0, 0.0], [0.0, -1e308]])
    with np.errstate(over="ignore"), pytest.raises(
            ContractError, match=r"parameter discriminative\.w is no longer "
                                 r"finite after an update with lr 10;"):
        _step(SGD(buffer, 0.0),
              [(("invariant.w", "discriminative.w"), param, grad)], [1.0, 10.0])

