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


def test_sgd_vanilla():
    param = np.array([1.0])
    SGD(momentum=0.0).step([("p", param, np.array([2.0]))], lr=0.1)
    assert param[0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_takes_a_0d_lr_as_one_lr_bytewise():
    rng = np.random.default_rng(4)
    base, grads = rng.standard_normal(5), rng.standard_normal((2, 5))
    stepped = []
    for lr in (0.1, np.array(0.1), np.float64(0.1)):
        param, opt = base.copy(), SGD(momentum=0.9)
        for g in grads:
            opt.step([("p", param, g.copy())], lr)
        stepped.append(param.tobytes())
    assert stepped[0] != base.tobytes()
    assert stepped[1] == stepped[0] and stepped[2] == stepped[0]


def test_sgd_zero_grad_no_change():
    param = np.array([1.5, -2.0])
    opt = SGD(momentum=0.9)
    for _ in range(2):
        opt.step([("p", param, np.zeros(2))], lr=0.5)
    assert np.array_equal(param, [1.5, -2.0])


def test_sgd_missing_grad_is_contract_error():
    with pytest.raises(ContractError, match="missing gradient for p"):
        SGD(momentum=0.0).step([("p", np.ones(2), None)], lr=0.1)


def test_sgd_two_steps_match_hand_unrolled_oracle():
    rng = np.random.default_rng(0)
    param = rng.standard_normal(4)
    g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
    expected = sgd_two_step_unrolled(param.copy(), g1, g2, lr=0.1, momentum=0.9)

    live = param.copy()
    opt = SGD(momentum=0.9)
    opt.step([("p", live, g1.copy())], lr=0.1)
    opt.step([("p", live, g2.copy())], lr=0.1)
    assert np.allclose(live, expected, atol=1e-12)


def test_sgd_momentum_zero_is_affine_in_grads():
    rng = np.random.default_rng(1)
    base = rng.standard_normal(5)
    grad = rng.standard_normal(5)

    def stepped(g):
        param = base.copy()
        SGD(momentum=0.0).step([("p", param, g)], lr=0.2)
        return param

    # with momentum 0 the update is param -= lr*grad, so scaling grads by a
    # power of two scales the applied step exactly
    assert np.array_equal(stepped(grad.copy()), base - 0.2 * grad)
    assert np.array_equal(stepped(4.0 * grad), base - 4.0 * (0.2 * grad))
    assert np.allclose(stepped(3.0 * grad), base - 3.0 * (0.2 * grad),
                       rtol=1e-14, atol=0.0)


def test_sgd_names_the_parameter_that_stops_being_finite():
    ok, bad = np.ones(2), np.array([1.0, 1e308])
    with np.errstate(over="ignore"), \
            pytest.raises(ContractError, match=r"sgd: parameter layer\.bias "):
        SGD(0.0).step([("layer.weight", ok, np.ones(2)),
                       ("layer.bias", bad, np.array([0.0, -1e308]))], 10.0)
    assert np.array_equal(ok, [-9.0, -9.0])


def test_sgd_on_a_stacked_array_equals_one_step_per_slice_bytewise():
    rng = np.random.default_rng(2)
    param = rng.standard_normal((2, 3, 4))
    grads = [rng.standard_normal((2, 3, 4)) for _ in range(3)]
    per_slice = [param[m].copy() for m in range(2)]
    stacked, single = SGD(momentum=0.9), SGD(momentum=0.9)
    names = ("invariant.w", "discriminative.w")
    for g in grads:
        stacked.step([(names, param, g)], [0.1, 0.03])
        for m, lr in enumerate((0.1, 0.03)):
            single.step([(names[m], per_slice[m], g[m].copy())], lr)
    for m in range(2):
        assert param[m].tobytes() == per_slice[m].tobytes()


def test_sgd_names_the_slice_that_stops_being_finite():
    param = np.ones((2, 2))
    grad = np.array([[0.0, 0.0], [0.0, -1e308]])
    with np.errstate(over="ignore"), pytest.raises(
            ContractError, match=r"parameter discriminative\.w is no longer "
                                 r"finite after an update with lr 10;"):
        SGD(0.0).step([(("invariant.w", "discriminative.w"), param, grad)],
                      [1.0, 10.0])


def test_a_tuple_of_items_stepped_again_reads_its_gradients_again():
    """Only items whose gradients are the store's own views skip the copy
    when the same tuple is stepped again; a plain gradient array may have
    changed in place."""
    param, grad = np.zeros(3), np.ones(3)
    items = (("p", param, grad),)
    sgd = SGD(momentum=0.0)
    sgd.step(items, 1.0)
    grad[...] = 2.0
    sgd.step(items, 1.0)
    assert param.tolist() == [-3.0, -3.0, -3.0]
    view = sgd.grad_view("p", param)
    view[...] = 4.0
    stored = ((("p",), param, view),)
    sgd.step(stored, 1.0)
    view[...] = 8.0
    sgd.step(stored, 1.0)
    assert param.tolist() == [-15.0, -15.0, -15.0]
