import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualda.autodiff as ad
from dualda.errors import ContractError, DimensionError, DomainError

from oracles import (FD_TOL, cross_entropy_values_reduce, every_node,
                     fd_gradient, fd_rel_err, reference_backward, softmax_rows)


def leaf(data):
    tape = ad.Tape()
    return tape, tape.leaf(data)


def test_softmax_equal_logits():
    _, x = leaf([[0.0, 0.0]])
    assert np.allclose(ad.softmax(x).data, [[0.5, 0.5]])


def test_relu_definition():
    _, x = leaf([[-1.0, 2.0]])
    assert np.array_equal(ad.relu(x).data, [[0.0, 2.0]])


def test_matmul_identity():
    tape = ad.Tape()
    a = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
    eye = tape.leaf([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(ad.matmul(a, eye).data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_shape_error_names_op_and_shapes():
    tape = ad.Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((2, 4)))
    with pytest.raises(DimensionError, match=r"matmul.*2, 3.*2, 4"):
        ad.matmul(a, b)


def test_log_softmax_empty_row_domain_error():
    tape = ad.Tape()
    x = tape.leaf(np.zeros((2, 0)))
    with pytest.raises(DomainError):
        ad.log_softmax(x)


def test_leaf_rejects_nonfinite():
    tape = ad.Tape()
    with pytest.raises(ContractError):
        tape.leaf([np.inf, 1.0])


def test_backward_sum_is_ones():
    tape, x = leaf([1.0, -2.0, 3.0])
    grads = ad.backward(tape, ad.tensor_sum(x), [x])
    assert len(grads) == 1 and np.array_equal(grads[0], [1.0, 1.0, 1.0])


def test_backward_mean_relu_subgradient():
    tape, x = leaf([-1.0, 2.0])
    (grad,) = ad.backward(tape, ad.mean(ad.relu(x)), [x])
    assert np.array_equal(grad, [0.0, 0.5])


def test_relu_and_abs_subgradient_at_exact_zero_is_zero():
    tape, x = leaf([0.0, 1.0])
    (grad,) = ad.backward(tape, ad.tensor_sum(ad.relu(x)), [x])
    assert np.array_equal(grad, [0.0, 1.0])

    tape, x = leaf([0.0, -2.0])
    (grad,) = ad.backward(tape, ad.tensor_sum(ad.tensor_abs(x)), [x])
    assert np.array_equal(grad, [0.0, -1.0])


def test_backward_requires_scalar_loss():
    tape, x = leaf([[1.0, 2.0]])
    with pytest.raises(ContractError):
        ad.backward(tape, ad.relu(x), [x])


def test_unreachable_node_gets_zeros():
    """A record output that the loss does not reach, named in wrt beside a
    reached leaf, gets zeros."""
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    orphan = ad.softmax(tape.leaf([[5.0, 4.0]]))
    grads = ad.backward(tape, ad.tensor_sum(x), [orphan, x])
    assert np.array_equal(grads[0], np.zeros((1, 2)))
    assert np.array_equal(grads[1], [1.0, 1.0])


def test_fanout_gradients_accumulate():
    tape, x = leaf([[1.0, 2.0]])
    loss = ad.tensor_sum(ad.add(x, x))
    (grad,) = ad.backward(tape, loss, [x])
    assert np.array_equal(grad, [[2.0, 2.0]])


def test_select_columns_forward_and_range_check():
    tape, x = leaf([[1.0, 2.0], [3.0, 4.0]])
    picked = ad.select_columns(x, np.array([1, 0]))
    assert np.array_equal(picked.data, [[2.0], [3.0]])
    with pytest.raises(ContractError):
        ad.select_columns(x, np.array([2, 0]))


def test_records_topologically_ordered():
    tape = ad.Tape()
    x = tape.leaf(np.ones((2, 2)))
    y = ad.softmax(ad.relu(ad.scalar_mul(x, 3.0)))
    ad.backward(tape, ad.mean(y), [x])
    for rec in tape.records:
        assert all(i < rec.output_id for i in rec.input_ids)


# --- gradient reversal ----------------------------------------------------

def test_grad_reverse_forward_bit_identical():
    tape, x = leaf([1.0, 2.0])
    out = ad.grad_reverse(x, 0.5)
    assert out.data.tobytes() == x.data.tobytes()


def test_grad_reverse_backward_scales_by_minus_lambda():
    tape, x = leaf([3.0, -1.0])
    (grad,) = ad.backward(tape, ad.tensor_sum(ad.grad_reverse(x, 0.5)), [x])
    assert np.array_equal(grad, [-0.5, -0.5])


def test_grad_reverse_lambda_zero_blocks_gradient():
    tape, x = leaf([3.0, -1.0])
    (grad,) = ad.backward(tape, ad.tensor_sum(ad.grad_reverse(x, 0.0)), [x])
    assert np.array_equal(grad, [0.0, 0.0])


def test_grad_reverse_rejects_negative_lambda():
    tape, x = leaf([1.0])
    with pytest.raises(ContractError):
        ad.grad_reverse(x, -0.1)
    tape, x = leaf(np.ones((4, 2)))
    with pytest.raises(ContractError, match="lambda must be >= 0"):
        ad.grad_reverse(x, [0.5, -0.1])


@pytest.mark.parametrize("lam", [0.5, [0.5, None], [0.5, 0.25]])
def test_grad_reverse_checks_each_lambda_once(monkeypatch, lam):
    calls = []
    monkeypatch.setattr(ad, "_checked_lambda",
                        lambda v, _f=ad._checked_lambda: calls.append(v) or _f(v))
    tape, x = leaf(np.ones((4, 2)))
    ad.grad_reverse(x, lam)
    assert calls == (lam if isinstance(lam, list) else [lam])


def test_an_empty_batch_is_a_domain_error_naming_the_loss():
    tape = ad.Tape()
    logits = tape.leaf(np.zeros((0, 3)))
    with pytest.raises(DomainError, match="cross_entropy: the batch is empty"):
        ad.cross_entropy(logits, np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("pair", [False, True])
def test_an_empty_batch_is_a_domain_error_naming_the_discrepancy(pair):
    tape = ad.Tape()
    w = tape.param(np.ones((2, 3, 4)))
    probs = ad.softmax(ad.matmul(tape.leaf(np.zeros((0, 4))), w))
    with pytest.raises(DomainError,
                       match="mean_abs_diff: the operands are empty"):
        ad.mean_abs_diff(probs) if pair else ad.mean_abs_diff(probs, probs)


def test_grad_reverse_equals_minus_lambda_times_identity_gradient():
    rng = np.random.default_rng(3)
    data = rng.uniform(-2, 2, (4, 3))
    lam = 0.73

    tape1, x1 = leaf(data)
    (reversed_grad,) = ad.backward(
        tape1, ad.mean(ad.softmax(ad.grad_reverse(x1, lam))), [x1])
    tape2, x2 = leaf(data)
    (grad,) = ad.backward(tape2, ad.mean(ad.softmax(x2)), [x2])
    assert np.array_equal(reversed_grad, -lam * grad)


# --- determinism and confinement -------------------------------------------

def _random_graph_grads(seed):
    rng = np.random.default_rng(seed)
    tape = ad.Tape()
    x = tape.leaf(rng.uniform(-2, 2, (4, 3)))
    w = tape.leaf(rng.uniform(-2, 2, (5, 3)))
    h = ad.relu(ad.matmul(x, w))
    loss = ad.mean(ad.tensor_abs(ad.log_softmax(h)))
    return tuple(g.tobytes() for g in ad.backward(tape, loss, [x, w]))


def test_backward_bitwise_deterministic():
    assert _random_graph_grads(11) == _random_graph_grads(11)


def test_independent_tapes_run_on_threads():
    results = {}

    def work(seed):
        results[seed] = _random_graph_grads(seed)

    threads = [threading.Thread(target=work, args=(s,)) for s in (1, 2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for s in (1, 2, 3):
        assert results[s] == _random_graph_grads(s)


# --- softmax invariants -----------------------------------------------------

def test_softmax_rows_sum_to_one_and_open_interval():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows, cols = rng.integers(1, 6), rng.integers(2, 7)
        tape = ad.Tape()
        s = ad.softmax(tape.leaf(rng.uniform(-8, 8, (rows, cols)))).data
        assert np.all(np.abs(s.sum(axis=1) - 1.0) < 1e-12)
        assert np.all((s > 0.0) & (s < 1.0))


# --- finite differences over every primitive --------------------------------

def _fd_check_case(build, arrs, n_checks=None):
    """Compare analytic grads of scalarized build(arrs) against FD."""
    def value():
        tape = ad.Tape()
        ts = [tape.leaf(a) for a in arrs]
        return float(_scalarize(build(ts)).data[0])

    tape = ad.Tape()
    ts = [tape.leaf(a) for a in arrs]
    grads = ad.backward(tape, _scalarize(build(ts)), ts)
    worst = 0.0
    for arr, grad in zip(arrs, grads):
        for i in range(arr.size):
            numeric = fd_gradient(value, arr, i)
            worst = max(worst, fd_rel_err(grad.reshape(-1)[i], numeric))
    return worst


def _scalarize(t):
    if t.size == 1:
        return t
    idx = np.arange(t.shape[0]) % t.shape[1]
    return ad.add(ad.mean(t), ad.mean(ad.select_columns(t, idx)))


def _away_from_zero(rng, shape, margin=1e-3):
    arr = rng.uniform(-2, 2, shape)
    while np.any(np.abs(arr) < margin):
        arr = rng.uniform(-2, 2, shape)
    return arr


def _dense_clear_of_kink(rng, m, k, n, margin=1e-3):
    while True:
        x, w, b = (rng.uniform(-2, 2, s) for s in ((m, k), (n, k), (n,)))
        if np.abs(x @ w.T + b).min() >= margin:
            return [x, w, b]


def _pair_apart(rng, m, n):
    a = rng.uniform(-2, 2, (m, n))
    return [a, a + _away_from_zero(rng, (m, n))]


OP_CASES = {
    "matmul_t": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (n, k))],
        lambda t: ad.matmul(t[0], t[1])),
    "matmul_bias": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (n, k)),
         rng.uniform(-2, 2, (n,))],
        lambda t: ad.matmul(t[0], t[1], bias=t[2])),
    "matmul_relu": lambda rng, m, k, n: (
        _dense_clear_of_kink(rng, m, k, n),
        lambda t: ad.matmul(t[0], t[1], bias=t[2], relu=True)),
    "add": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n)), rng.uniform(-2, 2, (m, n))],
        lambda t: ad.add(t[0], t[1])),
    "sub": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n)), rng.uniform(-2, 2, (m, n))],
        lambda t: ad.sub(t[0], t[1])),
    "scalar_mul": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n))],
        lambda t: ad.scalar_mul(t[0], 1.37)),
    "relu": lambda rng, m, k, n: (
        [_away_from_zero(rng, (m, n))],
        lambda t: ad.relu(t[0])),
    "abs": lambda rng, m, k, n: (
        [_away_from_zero(rng, (m, n))],
        lambda t: ad.tensor_abs(t[0])),
    "softmax": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n))],
        lambda t: ad.softmax(t[0])),
    "log_softmax": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n))],
        lambda t: ad.log_softmax(t[0])),
    "mean": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n))], lambda t: ad.mean(t[0])),
    "sum": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n))], lambda t: ad.tensor_sum(t[0])),
    "select_columns": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n))],
        lambda t: ad.select_columns(t[0], np.arange(m) % n)),
    "cross_entropy": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n))],
        lambda t: ad.cross_entropy(t[0], (np.arange(m) * 7 + 1) % n)),
    "mean_abs_diff": lambda rng, m, k, n: (
        _pair_apart(rng, m, n),
        lambda t: ad.mean_abs_diff(t[0], t[1])),
}


@pytest.mark.parametrize("kind", sorted(OP_CASES))
def test_primitive_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    worst = 0.0
    for _ in range(30):
        m, k, n = rng.integers(2, 5, size=3)
        arrs, build = OP_CASES[kind](rng, m, k, n)
        worst = max(worst, _fd_check_case(build, arrs))
    assert worst < FD_TOL, f"{kind}: worst rel err {worst:.3e}"


@pytest.mark.parametrize("kind", sorted(OP_CASES))
def test_grad_reverse_composed_with_primitives(kind):
    """Analytic gradient through grl+op equals -lambda x FD of the plain op
    (grad_reverse is identity in the forward pass)."""
    lam = 0.8
    rng = np.random.default_rng(hash(kind) % 2**31)
    worst = 0.0
    for _ in range(10):
        m, k, n = rng.integers(2, 5, size=3)
        arrs, build = OP_CASES[kind](rng, m, k, n)

        def value():
            tape = ad.Tape()
            ts = [tape.leaf(a) for a in arrs]
            return float(_scalarize(build(ts)).data[0])

        tape = ad.Tape()
        ts = [tape.leaf(a) for a in arrs]
        wrapped = [ad.grad_reverse(t, lam) for t in ts]
        grads = ad.backward(tape, _scalarize(build(wrapped)), ts)
        for arr, grad in zip(arrs, grads):
            for i in range(arr.size):
                numeric = -lam * fd_gradient(value, arr, i)
                worst = max(worst, fd_rel_err(grad.reshape(-1)[i], numeric))
    assert worst < FD_TOL, f"grl+{kind}: worst rel err {worst:.3e}"


# --- dense-layer matmul and pruned backward -----------------------------------

def test_matmul_bias_is_one_record_equal_to_matmul_then_add():
    """The fused bias against an add of the bias repeated on every row,
    whose gradient rows then sum as the fused record sums them."""
    rng = np.random.default_rng(5)
    x, w, b = (rng.uniform(-2, 2, s) for s in ((4, 3), (5, 3), (5,)))
    tape = ad.Tape()
    fused_leaves = [tape.leaf(a) for a in (x, w, b)]
    fused = ad.matmul(*fused_leaves[:2], bias=fused_leaves[2])
    assert [r.kind for r in tape.records] == ["matmul"]
    fused_grads = ad.backward(tape, ad.mean(ad.relu(fused)), fused_leaves)

    tape2 = ad.Tape()
    leaves = [tape2.leaf(a) for a in (x, w, np.tile(b, (4, 1)))]
    unfused = ad.add(ad.matmul(*leaves[:2]), leaves[2])
    gx, gw, g_rows = ad.backward(tape2, ad.mean(ad.relu(unfused)), leaves)
    assert fused.data.tobytes() == unfused.data.tobytes()
    assert [g.tobytes() for g in fused_grads] == \
        [g.tobytes() for g in (gx, gw, np.add.reduce(g_rows, 0))]


def _sweep_source(tape, loss, wrt):
    """The generated source of the sweep that backward(tape, loss, wrt)
    runs."""
    sweep = tape._sweeps[(loss.node_id, tuple(t.node_id for t in wrt))]
    return next(src for src, fn in ad._COMPILED.items() if fn is sweep)


def test_a_later_contribution_to_a_gradient_is_added_whole():
    """A node that two cross-entropies read gets the second contribution,
    a difference, added as one term, g + (a - b), as the per-record
    formulas add it; (g + a) - b rounds otherwise."""
    rng = np.random.default_rng(1)
    x, labels = rng.standard_normal((6, 3)), rng.integers(0, 4, 6)
    tape = ad.Tape()
    w = tape.param(rng.standard_normal((4, 3)))
    z = ad.matmul(tape.leaf(x), w)
    loss = ad.add(ad.cross_entropy(z, labels), ad.cross_entropy(z, labels))
    got, = ad.backward(tape, loss, [w])
    want, = reference_backward(tape, loss, [w])
    assert got.tobytes() == want.tobytes()


def test_matmul_without_bias_returns_no_bias_gradient():
    tape = ad.Tape()
    x, w = tape.leaf(np.ones((2, 3))), tape.leaf(np.full((4, 3), 2.0))
    loss = ad.tensor_sum(ad.matmul(x, w))
    nodes = every_node(tape)  # x, w, the product, the loss
    grads = ad.backward(tape, loss, nodes)
    assert len(grads) == 4
    assert np.array_equal(grads[0], np.full((2, 3), 8.0))
    assert np.array_equal(grads[1], np.full((4, 3), 2.0))
    # the sweep sums no gradient over rows, as a bias gradient would
    assert "np.add.reduce" not in _sweep_source(tape, loss, nodes)


@pytest.mark.parametrize("shape", [(4,), (3,), (1, 5), (5, 1)])
def test_matmul_bias_of_wrong_shape_is_dimension_error(shape):
    tape = ad.Tape()
    x, w = tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((5, 3)))
    with pytest.raises(DimensionError, match="bias"):
        ad.matmul(x, w, bias=tape.leaf(np.ones(shape)))


def test_param_wraps_the_array_without_a_copy():
    arr = np.ones((2, 2))
    assert ad.Tape().param(arr).data is arr


def _two_branch_graph(data):
    """x -> relu(x @ w.T + b) used twice, plus an orphan leaf; returns the
    tape, the loss and the leaves."""
    tape = ad.Tape()
    x, w, b, orphan = (tape.leaf(a) for a in data)
    h = ad.relu(ad.matmul(x, w, bias=b))
    s = ad.softmax(h)
    loss = ad.add(ad.mean(ad.tensor_abs(ad.sub(s, ad.grad_reverse(s, 0.3)))),
                  ad.mean(ad.log_softmax(ad.add(h, h))))
    return tape, loss, (x, w, b, orphan)


@pytest.mark.parametrize("pick", [(1,), (1, 2), (0,), (0, 1, 2), (2, 3)])
def test_backward_wrt_matches_full_sweep_bytewise(pick):
    """A pruned sweep against the sweep that visits every record, with
    every node of the tape as wrt."""
    rng = np.random.default_rng(17)
    data = [rng.uniform(-2, 2, s) for s in ((4, 3), (5, 3), (5,), (2, 2))]
    tape, loss, leaves = _two_branch_graph(data)
    full = ad.backward(tape, loss, every_node(tape))
    tape2, loss2, leaves2 = _two_branch_graph(data)
    got = ad.backward(tape2, loss2, wrt=[leaves2[i] for i in pick])
    assert [g.tobytes() for g in got] == \
        [full[leaves[i].node_id].tobytes() for i in pick]


def test_backward_wrt_unreached_leaf_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    orphan = tape.leaf([[5.0, 5.0]])
    grads = ad.backward(tape, ad.tensor_sum(x), wrt=[orphan])
    assert len(grads) == 1
    assert np.array_equal(grads[0], np.zeros((1, 2)))


def test_backward_wrt_rejects_a_tensor_of_another_tape():
    tape, x = leaf([1.0, 2.0])
    _, other = leaf([1.0, 2.0])
    with pytest.raises(ContractError):
        ad.backward(tape, ad.tensor_sum(x), wrt=[other])


# --- fused records equal their unfused compositions, bit for bit ------------

def _fusion_data():
    """Leaves of a dense layer and a head, with pre-activations and
    probability differences that are exactly 0 in places."""
    rng = np.random.default_rng(23)
    x = rng.uniform(-2, 2, (5, 3))
    w = rng.uniform(-2, 2, (4, 3))
    b = rng.uniform(-2, 2, (4,))
    w[1], b[1] = 0.0, 0.0          # unit 1: pre-activation exactly 0
    x[2] = 0.0
    b[3] = 0.0                     # row 2, unit 3: exactly 0 as well
    w2 = rng.uniform(-2, 2, (3, 4))
    b2 = rng.uniform(-2, 2, (3,))
    w2b = w2.copy()
    w2b[:, 0] += 0.5               # a second head that agrees on some rows
    return [x, w, b, w2, b2, w2b]


def _head_graph(data, fused):
    """CE of a head on relu(x @ w.T + b) plus the mean abs difference of two
    heads' softmax, fused or as the old chains of records."""
    tape = ad.Tape()
    x, w, b, w2, b2, w2b = leaves = [tape.leaf(a) for a in data]
    labels = np.array([0, 2, 1, 1, 0])
    if fused:
        h = ad.matmul(x, w, bias=b, relu=True)
    else:
        h = ad.relu(ad.matmul(x, w, bias=b))
    logits = ad.matmul(h, w2, bias=b2)
    p = ad.softmax(logits)
    q = ad.softmax(ad.matmul(h, w2b, bias=b2))
    if fused:
        ce = ad.cross_entropy(logits, labels)
        dis = ad.mean_abs_diff(p, q)
    else:
        picked = ad.select_columns(ad.log_softmax(logits), labels)
        ce = ad.scalar_mul(ad.mean(picked), -1.0)
        dis = ad.scalar_mul(ad.tensor_sum(ad.tensor_abs(ad.sub(p, q))),
                            1.0 / p.size)
    return tape, ad.add(ce, dis), leaves, (h, ce, dis)


def test_fusion_data_has_exact_zeros():
    x, w, b, w2, b2, w2b = _fusion_data()
    pre = x @ w.T + b
    assert np.count_nonzero(pre == 0.0) >= 5
    h = np.where(pre > 0, pre, 0.0)
    tape = ad.Tape()
    p = ad.softmax(tape.leaf(h @ w2.T + b2)).data
    q = ad.softmax(tape.leaf(h @ w2b.T + b2)).data
    assert np.any(p == q)


def test_fused_records_are_one_record_each():
    tape, _, _, _ = _head_graph(_fusion_data(), fused=True)
    assert [r.kind for r in tape.records] == [
        "matmul", "matmul", "softmax", "matmul", "softmax", "cross_entropy",
        "mean_abs_diff", "add"]


@pytest.mark.parametrize("pick", [None, (0, 1, 2, 3, 4, 5), (1, 2), (0,),
                                  (3, 4, 5), (4,), (1, 5)])
def test_fused_records_match_the_unfused_chains_bytewise(pick):
    """Forward values and the gradients of wrt subsets of the leaves, or
    (pick None) of every leaf and of h, ce and dis; a subset without x
    (index 0) skips the data gradient."""
    data = _fusion_data()
    results = []
    for fused, backward in ((True, ad.backward), (False, ad.backward),
                            (False, reference_backward)):
        tape, loss, leaves, outs = _head_graph(data, fused)
        wrt = [*leaves, *outs] if pick is None else [leaves[i] for i in pick]
        grads = backward(tape, loss, wrt=wrt)
        results.append(([o.data.tobytes() for o in (*outs, loss)],
                        [g.tobytes() for g in grads]))
    assert results[0] == results[1] == results[2]


def test_matmul_skips_the_gradient_of_an_operand_that_is_not_live():
    def dense_loss():
        tape = ad.Tape()
        x, w, b = (tape.leaf(a) for a in _fusion_data()[:3])
        return tape, ad.mean(ad.matmul(x, w, bias=b, relu=True)), (x, w, b)

    tape, loss, xwb = dense_loss()
    full = ad.backward(tape, loss, wrt=xwb)
    assert _sweep_source(tape, loss, xwb).count("np.matmul(") == 2
    tape, loss, (x, w, b) = dense_loss()
    (skipped,) = ad.backward(tape, loss, wrt=[w])
    assert skipped.tobytes() == full[1].tobytes()
    # the pruned sweep makes the weight gradient's product only, and no
    # bias sum
    source = _sweep_source(tape, loss, [w])
    assert source.count("np.matmul(") == 1
    assert "np.add.reduce(" not in source


def test_a_record_added_after_a_backward_joins_the_next_sweep():
    """A tape that has not rerun takes records after a backward: the next
    backward, of the old loss or of a new one, sees them."""
    rng = np.random.default_rng(9)
    tape = ad.Tape()
    x = tape.leaf(rng.uniform(-2, 2, (4, 3)))
    p = ad.softmax(x)
    ce = ad.cross_entropy(x, np.array([0, 2, 1, 1]))
    nodes = every_node(tape)
    ad.backward(tape, ce, nodes)
    total = ad.add(ce, ad.mean_abs_diff(p, ad.softmax(ad.scalar_mul(x, 2.0))))
    assert len(ad.backward(tape, ce, nodes)) == len(nodes)
    nodes = every_node(tape)
    for loss in (ce, total):
        grads = ad.backward(tape, loss, nodes)
        assert len(grads) == len(tape.values)
        assert [g.tobytes() for g in grads] == \
            [g.tobytes() for g in reference_backward(tape, loss, nodes)]


def test_cross_entropy_checks_its_labels():
    tape, logits = leaf(np.zeros((2, 3)))
    with pytest.raises(ContractError, match="cross_entropy: index out of range"):
        ad.cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(DimensionError, match="cross_entropy: index vector"):
        ad.cross_entropy(logits, np.array([0]))
    with pytest.raises(ContractError, match="integers"):
        ad.cross_entropy(logits, np.array([0.0, 1.0]))


def test_select_columns_of_an_empty_batch_is_a_domain_error_naming_it():
    tape = ad.Tape()
    x = tape.leaf(np.zeros((0, 3)))
    with pytest.raises(DomainError, match="select_columns: the batch is empty"):
        ad.select_columns(x, np.zeros(0, dtype=np.int64))


def test_checked_indices_of_no_rows_is_the_empty_vector():
    idx = ad.checked_indices("op", 0, 3, np.zeros(0, dtype=np.int64))
    assert idx.shape == (0,)


def test_mean_abs_diff_rejects_different_shapes():
    tape = ad.Tape()
    with pytest.raises(DimensionError, match="mean_abs_diff"):
        ad.mean_abs_diff(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 2))))


def test_tape_free_functions_and_numpy_formulas_equal_the_records():
    """Each record kind's one forward, its generated code, against a second
    implementation, byte for byte: the tape-free functions for the kinds
    that training records, a plain numpy formula for the others."""
    x, w, b = _fusion_data()[:3]
    tape = ad.Tape()
    xt, wt, bt = (tape.leaf(a) for a in (x, w, b))
    for relu in (False, True):
        rec = ad.matmul(xt, wt, bias=bt, relu=relu)
        assert ad.dense(x, w, b, relu=relu).tobytes() == rec.data.tobytes()
    assert ad.row_softmax(x).tobytes() == ad.softmax(xt).data.tobytes()
    z = x.copy()
    z[0, 0], z[1, 1] = -0.0, -2.5    # beside the exact +0.0 row of x
    zt, rows, c = tape.leaf(z), np.arange(5), -1.7
    idx = np.array([2, 0, 1, 1, 0])
    shifted = z - z.max(axis=1, keepdims=True)
    for got, want in [
            (ad.relu(zt), np.maximum(z, 0.0)),
            (ad.log_softmax(zt),
             shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))),
            (ad.mean(zt), np.array([z.mean()])),
            (ad.tensor_sum(zt), np.array([z.sum()])),
            (ad.tensor_abs(zt), np.abs(z)),
            (ad.select_columns(zt, idx), z[rows, idx][:, None]),
            (ad.scalar_mul(zt, c), c * z)]:
        assert got.data.tobytes() == want.tobytes(), tape.records[-1].kind


# +-0.0, +-inf, +-NaN, subnormals and +-1e300 among standard normals
_ROW_MAX_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                              5e-324, -5e-324, 2.5e-310, -2.5e-310,
                              1e300, -1e300])


def _same_rows(got, want, lead_nan):
    """got and want equal byte for byte on every row whose first entry is
    not NaN; on the others, NaN where want is NaN (numpy's contiguous
    reduce returns +NaN for a leading NaN of either sign, ad.row_max that
    NaN)."""
    assert got.shape == want.shape
    keep = ~lead_nan
    assert got[keep].tobytes() == want[keep].tobytes()
    assert np.array_equal(np.isnan(got[lead_nan]), np.isnan(want[lead_nan]))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(0, 2000), cols=st.integers(1, 12),
       special=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       layout=st.sampled_from(["contiguous", "every other row",
                               "reversed columns"]),
       seed=st.integers(0, 2**31))
def test_row_max_and_its_callers_equal_numpy_reduce_bytewise(
        rows, cols, special, layout, seed):
    """row_max against np.maximum.reduce, and row_softmax and
    cross_entropy_values against their reduce-based formulas, on both
    sides of every width and row count at which row_max changes method.
    A numpy release that reorders its reduce fails here by name."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((2 * rows, cols))
    mask = rng.random(base.shape) < special
    base[mask] = rng.choice(_ROW_MAX_SPECIALS, int(mask.sum()))
    z = {"contiguous": base[:rows], "every other row": base[::2],
         "reversed columns": base[:rows, ::-1]}[layout]
    lead_nan = np.isnan(z[:, 0])
    with np.errstate(all="ignore"):
        _same_rows(ad.row_max(z), np.maximum.reduce(z, 1, keepdims=True),
                   lead_nan)
        _same_rows(ad.row_softmax(z), softmax_rows(z), lead_nan)
        if rows == 0:
            return
        slices = 2 if rows % 2 == 0 else 1
        idx = rng.integers(0, cols, rows // slices)
        got = ad.cross_entropy_values(z, idx, slices)
        want = cross_entropy_values_reduce(z, idx, slices)
    _same_rows(got[1], want[1], lead_nan)
    assert got[2].tobytes() == want[2].tobytes()
    _same_rows(got[0], want[0], lead_nan.reshape(slices, -1).any(1))


def _branchy_relu(pre):
    """The relu before it lost its branch: +0.0 wherever pre > 0 fails."""
    return np.where(pre > 0, pre, 0.0)


def test_relu_equals_the_branchy_relu_bytewise_at_every_simd_tail():
    """Signed zeros at every length from 1 to 4099, so that every SIMD
    width's tail is hit: -0.0 becomes +0.0, as the branch made it."""
    rng = np.random.default_rng(31)
    values = np.array([-0.0, 0.0, -0.0, 1.5, -2.0, 5e-324, -5e-324, 0.0])
    for n in range(1, 4100):
        pre = rng.choice(values, n)
        want = _branchy_relu(pre).tobytes()
        assert ad.relu_values(pre).tobytes() == want, n
        assert ad.relu_values(pre.copy(), pre.copy()).tobytes() == want, n
        tape = ad.Tape()
        assert ad.relu(tape.leaf(pre)).data.tobytes() == want, n
    neg_zero = ad.relu_values(np.full(7, -0.0))
    assert not np.signbit(neg_zero).any()


def test_dense_and_matmul_relu_equal_the_branchy_relu_bytewise():
    """Exact-zero, negative and positive pre-activations at every length
    from 1 to 4099, through the tape-free layer and the record."""
    rng = np.random.default_rng(32)
    w, b = np.array([[1.0]]), np.array([0.0])
    for n in range(1, 4100):
        x = rng.choice(np.array([0.0, 1.0, -3.0, 0.25]), (n, 1))
        pre = ad.dense(x, w, b)
        want = _branchy_relu(pre).tobytes()
        assert ad.dense(x, w, b, relu=True).tobytes() == want, n
        tape = ad.Tape()
        rec = ad.matmul(tape.leaf(x), tape.param(w), bias=tape.param(b),
                        relu=True)
        assert rec.data.tobytes() == want, n


def test_a_nan_pre_activation_propagates_through_the_relu():
    pre = np.array([np.nan, -1.0, 2.0])
    assert np.isnan(ad.relu_values(pre)[0])
    assert np.isnan(ad.dense(pre[:, None], np.ones((1, 1)), relu=True)[0, 0])


# --- stacked slices equal their per-slice records, bit for bit ---------------

STACK_ROWS = (16, 64, 128, 500, 1000, 2560)   # batches and full datasets
STACK_WIDTHS = (2, 32, 784)                    # input widths
STACK_WRT = (None, ("w1",), ("wa", "ba"), ("w1", "b1", "wb"), ("x", "bb"))


def _stacked_params(rng, m, width, hidden=32, classes=10):
    return {"w1": rng.uniform(-0.3, 0.3, (m, hidden, width)),
            "b1": rng.uniform(-0.3, 0.3, (m, hidden)),
            "wa": rng.uniform(-0.5, 0.5, (m, classes, hidden)),
            "ba": rng.uniform(-0.5, 0.5, (m, classes)),
            "wb": rng.uniform(-0.5, 0.5, (m, classes, hidden)),
            "bb": rng.uniform(-0.5, 0.5, (m, classes))}


def _stacked_graph(x, labels, params, lams):
    """A shared batch through M stacked dense layers, per-slice reversal,
    two heads, and the per-slice and cross-slice loss terms."""
    tape = ad.Tape()
    leaves = {"x": tape.leaf(x), **{k: tape.param(v) for k, v in params.items()}}
    h = ad.matmul(leaves["x"], leaves["w1"], bias=leaves["b1"], relu=True)
    za = ad.matmul(ad.grad_reverse(h, lams), leaves["wa"], bias=leaves["ba"])
    zb = ad.matmul(h, leaves["wb"], bias=leaves["bb"])
    pa = ad.softmax(za)
    per_slice = ad.add(ad.cross_entropy(za, labels),
                       ad.mean_abs_diff(pa, ad.softmax(zb)))
    cross = ad.mean_abs_diff(pa) if len(lams) == 2 else None
    return tape, leaves, per_slice, cross


def _per_slice_graph(x, labels, params, lams):
    """The same graph built slice by slice from 2-D records on one tape,
    with no reversal record where a slice's weight is None."""
    tape = ad.Tape()
    leaves = {"x": tape.leaf(x)}
    losses, probs = [], []
    for m, lam in enumerate(lams):
        p = {k: tape.param(v[m]) for k, v in params.items()}
        leaves.update({f"{k}{m}": t for k, t in p.items()})
        h = ad.matmul(leaves["x"], p["w1"], bias=p["b1"], relu=True)
        za = ad.matmul(h if lam is None else ad.grad_reverse(h, lam), p["wa"],
                       bias=p["ba"])
        zb = ad.matmul(h, p["wb"], bias=p["bb"])
        probs.append(ad.softmax(za))
        losses.append(ad.add(ad.cross_entropy(za, labels),
                             ad.mean_abs_diff(probs[-1], ad.softmax(zb))))
    total = losses[0] if len(losses) == 1 else ad.add(*losses)
    cross = ad.mean_abs_diff(*probs) if len(lams) == 2 else None
    return tape, leaves, losses, total, cross


@pytest.mark.parametrize("m,lams", [(1, [0.7]), (2, [0.7, None])])
@pytest.mark.parametrize("rows", STACK_ROWS)
@pytest.mark.parametrize("width", STACK_WIDTHS)
def test_stacked_records_equal_the_per_slice_records_bytewise(m, lams, rows,
                                                              width):
    rng = np.random.default_rng(rows * 7 + width)
    x = rng.uniform(-1, 1, (rows, width))
    x[:2] = 0.0                    # exact-zero pre-activations on two rows
    labels = rng.integers(0, 10, rows)
    params = _stacked_params(rng, m, width)
    for wrt in STACK_WRT:
        tape, leaves, per_slice, cross = _stacked_graph(x, labels, params, lams)
        ref_tape, ref_leaves, ref_losses, ref_total, ref_cross = \
            _per_slice_graph(x, labels, params, lams)
        for s in range(m):
            assert per_slice.data[s].tobytes() == ref_losses[s].data[0].tobytes()
        terms = [(tape, per_slice, ref_tape, ref_total)]
        if cross is not None:
            assert cross.data.tobytes() == ref_cross.data.tobytes()
            terms.append((tape, cross, ref_tape, ref_cross))
        for tp, loss, ref_tp, ref_loss in terms:
            names = list(leaves) if wrt is None else wrt
            grads = ad.backward(tp, loss, wrt=[leaves[k] for k in names])
            ref_names = [k if k == "x" else f"{k}{s}"
                         for k in names for s in range(1 if k == "x" else m)]
            ref = dict(zip(ref_names, ad.backward(
                ref_tp, ref_loss, wrt=[ref_leaves[k] for k in ref_names])))
            for k, got in zip(names, grads):
                if k == "x":
                    assert got.tobytes() == ref["x"].tobytes()
                    continue
                for s in range(m):
                    want = ref[f"{k}{s}"]
                    assert got[s].tobytes() == want.tobytes(), (wrt, k, s)


# --- constants made once per shape ---------------------------------------------

def _nan(sign, payload):
    """A float64 NaN of this sign and (quiet) payload."""
    bits = (sign << 63) | (0x7FF8 << 48) | payload
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def test_negated_division_equals_negating_the_quotient_bytewise():
    """s / -n is -1.0 * (s / n) to the bit, for the forward loss and the
    backward seed of cross_entropy: round-to-nearest-even rounds the two
    exact quotients -(s / n) and s / (-n) alike, multiplying by -1.0 only
    flips the sign, and a NaN passes through either way with its sign and
    payload (NaN, +-0, +-inf and subnormals included)."""
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310,
                -2.5e-310, 1e300, -1e300, 1.7976931348623157e308,
                _nan(0, 0), _nan(1, 0), _nan(0, 12345), _nan(1, 2**40 + 7)]
    s = np.concatenate([specials, rng.standard_normal(4096),
                        rng.standard_normal(4096) * 10.0 **
                        rng.integers(-300, 300, 4096)])
    for n in (1, 2, 3, 7, 16, 32, 128, 500, 2560, 3 * 2**40 + 1):
        with np.errstate(all="ignore"):
            negated = (-1.0 * (s / n)).tobytes()
            assert (s / -n).tobytes() == negated, n
            assert ((-1.0 * s) / n).tobytes() == negated, n
        for i in range(0, len(s), 257):  # the one-value loss of a slice
            assert (s[i:i + 1] / -n).tobytes() == \
                (-1.0 * (s[i:i + 1] / n)).tobytes(), (n, s[i])


def test_the_cross_entropy_row_index_is_made_once_per_shape_and_read_only():
    z = np.random.default_rng(2).standard_normal((32, 3))
    idx = np.arange(16) % 3
    rows = ad.cross_entropy_values(z, idx, 2)[2]
    assert rows.tobytes() == np.arange(32).reshape(2, 16).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 5
    assert ad.cross_entropy_values(z + 1.0, idx[::-1], 2)[2] is rows
    assert ad.cross_entropy_values(z, np.r_[idx, idx], 1)[2] is not rows
    assert ad.cross_entropy_values(z[:16], idx, 1)[2] is not rows


def _ce_tape(x, labels, w):
    tape = ad.Tape(x, labels)
    wt = tape.param(w)
    return tape, ad.cross_entropy(ad.matmul(tape.leaf(x), wt), labels), wt


def test_tapes_of_one_shape_share_the_row_index_and_the_loss_seed():
    """A rerun and a backward read the cached row index and loss seed: one
    pair per shape, never written (a write to either raises)."""
    rng = np.random.default_rng(6)
    w = rng.standard_normal((3, 4))

    def run(n):
        x, labels = rng.standard_normal((n, 4)), rng.integers(0, 3, n)
        tape, loss, _ = _ce_tape(x, labels, w)
        tape.rerun(x + 1.0, labels[::-1])
        (seed,) = ad.backward(tape, loss, [loss])  # a copy of it
        return [a for a in tape._saved if not a.flags.writeable], seed

    (first,), seed = run(16)
    (second,), _ = run(16)
    (other,), _ = run(10)
    assert first is second and first is not other
    assert other.shape == (1, 10)
    assert seed.tobytes() == np.ones(1).tobytes()
    loss_seed = ad._loss_seed((1,), "<f8")
    assert loss_seed is ad._loss_seed((1,), "<f8")
    assert loss_seed is not ad._loss_seed((2,), "<f8")
    assert ad._loss_seed((2,), "<f8").tobytes() == np.ones(2).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        loss_seed[0] = 2.0
    tape, loss, wt = _ce_tape(np.ones((4, 4)), np.zeros(4, int), w)
    ad.backward(tape, loss, [wt])
    source = _sweep_source(tape, loss, [wt])
    assert "_loss_seed((1,), '<f8')" in source and "ones" not in source
