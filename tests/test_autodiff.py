import threading

import numpy as np
import pytest

import dualda.autodiff as ad
from dualda.errors import ContractError, DimensionError, DomainError

from oracles import FD_TOL, fd_gradient, fd_rel_err


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
    b = tape.leaf(np.ones((2, 3)))
    with pytest.raises(DimensionError, match=r"matmul.*2, 3.*2, 3"):
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
    grads = ad.backward(tape, ad.tensor_sum(x))
    assert np.array_equal(grads[x.node_id], [1.0, 1.0, 1.0])


def test_backward_mean_relu_subgradient():
    tape, x = leaf([-1.0, 2.0])
    ad.backward(tape, ad.mean(ad.relu(x)))
    assert np.array_equal(x.grad, [0.0, 0.5])


def test_relu_and_abs_subgradient_at_exact_zero_is_zero():
    tape, x = leaf([0.0, 1.0])
    ad.backward(tape, ad.tensor_sum(ad.relu(x)))
    assert np.array_equal(x.grad, [0.0, 1.0])

    tape, x = leaf([0.0, -2.0])
    ad.backward(tape, ad.tensor_sum(ad.tensor_abs(x)))
    assert np.array_equal(x.grad, [0.0, -1.0])


def test_backward_requires_scalar_loss():
    tape, x = leaf([[1.0, 2.0]])
    with pytest.raises(ContractError):
        ad.backward(tape, ad.relu(x))


def test_unreachable_node_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    orphan = tape.leaf([[5.0, 5.0]])
    grads = ad.backward(tape, ad.tensor_sum(x))
    assert np.array_equal(grads[orphan.node_id], np.zeros((1, 2)))


def test_fanout_gradients_accumulate():
    tape, x = leaf([[1.0, 2.0]])
    loss = ad.tensor_sum(ad.add(x, x))
    ad.backward(tape, loss)
    assert np.array_equal(x.grad, [[2.0, 2.0]])


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
    ad.backward(tape, ad.mean(y))
    for rec in tape.records:
        assert all(i < rec.output_id for i in rec.input_ids)


# --- gradient reversal ----------------------------------------------------

def test_grad_reverse_forward_bit_identical():
    tape, x = leaf([1.0, 2.0])
    out = ad.grad_reverse(x, 0.5)
    assert out.data.tobytes() == x.data.tobytes()


def test_grad_reverse_backward_scales_by_minus_lambda():
    tape, x = leaf([3.0, -1.0])
    ad.backward(tape, ad.tensor_sum(ad.grad_reverse(x, 0.5)))
    assert np.array_equal(x.grad, [-0.5, -0.5])


def test_grad_reverse_lambda_zero_blocks_gradient():
    tape, x = leaf([3.0, -1.0])
    ad.backward(tape, ad.tensor_sum(ad.grad_reverse(x, 0.0)))
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_grad_reverse_rejects_negative_lambda():
    tape, x = leaf([1.0])
    with pytest.raises(ContractError):
        ad.grad_reverse(x, -0.1)


def test_grad_reverse_equals_minus_lambda_times_identity_gradient():
    rng = np.random.default_rng(3)
    data = rng.uniform(-2, 2, (4, 3))
    lam = 0.73

    tape1, x1 = leaf(data)
    ad.backward(tape1, ad.mean(ad.softmax(ad.grad_reverse(x1, lam))))
    tape2, x2 = leaf(data)
    ad.backward(tape2, ad.mean(ad.softmax(x2)))
    assert np.array_equal(x1.grad, -lam * x2.grad)


# --- determinism and confinement -------------------------------------------

def _random_graph_grads(seed):
    rng = np.random.default_rng(seed)
    tape = ad.Tape()
    x = tape.leaf(rng.uniform(-2, 2, (4, 3)))
    w = tape.leaf(rng.uniform(-2, 2, (5, 3)))
    h = ad.relu(ad.matmul(x, w, transpose_b=True))
    loss = ad.mean(ad.tensor_abs(ad.log_softmax(h)))
    ad.backward(tape, loss)
    return x.grad.tobytes(), w.grad.tobytes()


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
    ad.backward(tape, _scalarize(build(ts)))
    worst = 0.0
    for arr, t in zip(arrs, ts):
        for i in range(arr.size):
            numeric = fd_gradient(value, arr, i)
            worst = max(worst, fd_rel_err(t.grad.reshape(-1)[i], numeric))
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
    "matmul": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (k, n))],
        lambda t: ad.matmul(t[0], t[1])),
    "matmul_t": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (n, k))],
        lambda t: ad.matmul(t[0], t[1], transpose_b=True)),
    "matmul_bias": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (n, k)),
         rng.uniform(-2, 2, (n,))],
        lambda t: ad.matmul(t[0], t[1], transpose_b=True, bias=t[2])),
    "matmul_relu": lambda rng, m, k, n: (
        _dense_clear_of_kink(rng, m, k, n),
        lambda t: ad.matmul(t[0], t[1], transpose_b=True, bias=t[2],
                            relu=True)),
    "add_broadcast": lambda rng, m, k, n: (
        [rng.uniform(-2, 2, (m, n)), rng.uniform(-2, 2, (n,))],
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
        ad.backward(tape, _scalarize(build(wrapped)))
        for arr, t in zip(arrs, ts):
            for i in range(arr.size):
                numeric = -lam * fd_gradient(value, arr, i)
                worst = max(worst, fd_rel_err(t.grad.reshape(-1)[i], numeric))
    assert worst < FD_TOL, f"grl+{kind}: worst rel err {worst:.3e}"


# --- dense-layer matmul and pruned backward -----------------------------------

def test_matmul_bias_is_one_record_equal_to_matmul_then_add():
    rng = np.random.default_rng(5)
    x, w, b = (rng.uniform(-2, 2, s) for s in ((4, 3), (5, 3), (5,)))
    tape = ad.Tape()
    xt, wt, bt = tape.leaf(x), tape.leaf(w), tape.leaf(b)
    fused = ad.matmul(xt, wt, transpose_b=True, bias=bt)
    assert [r.kind for r in tape.records] == ["matmul"]
    ad.backward(tape, ad.mean(ad.relu(fused)))

    tape2 = ad.Tape()
    xu, wu, bu = tape2.leaf(x), tape2.leaf(w), tape2.leaf(b)
    unfused = ad.add(ad.matmul(xu, wu, transpose_b=True), bu)
    ad.backward(tape2, ad.mean(ad.relu(unfused)))
    assert fused.data.tobytes() == unfused.data.tobytes()
    for got, want in ((xt, xu), (wt, wu), (bt, bu)):
        assert got.grad.tobytes() == want.grad.tobytes()


def test_matmul_without_bias_returns_no_bias_gradient():
    tape = ad.Tape()
    out = ad.matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((4, 3))),
                    transpose_b=True)
    assert len(tape.records[-1].backward_fn(np.ones_like(out.data))) == 2


@pytest.mark.parametrize("shape", [(4,), (3,), (1, 5), (5, 1)])
def test_matmul_bias_of_wrong_shape_is_dimension_error(shape):
    tape = ad.Tape()
    x, w = tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((5, 3)))
    with pytest.raises(DimensionError, match="bias"):
        ad.matmul(x, w, transpose_b=True, bias=tape.leaf(np.ones(shape)))


def test_param_wraps_the_array_without_a_copy():
    arr = np.ones((2, 2))
    assert ad.Tape().param(arr).data is arr


def _two_branch_graph(data):
    """x -> relu(x @ w.T + b) used twice, plus an orphan leaf; returns the
    tape, the loss and the leaves."""
    tape = ad.Tape()
    x, w, b, orphan = (tape.leaf(a) for a in data)
    h = ad.relu(ad.matmul(x, w, transpose_b=True, bias=b))
    s = ad.softmax(h)
    loss = ad.add(ad.mean(ad.tensor_abs(ad.sub(s, ad.grad_reverse(s, 0.3)))),
                  ad.mean(ad.log_softmax(ad.add(h, h))))
    return tape, loss, (x, w, b, orphan)


@pytest.mark.parametrize("pick", [(1,), (1, 2), (0,), (0, 1, 2), (2, 3)])
def test_backward_wrt_matches_full_sweep_bytewise(pick):
    rng = np.random.default_rng(17)
    data = [rng.uniform(-2, 2, s) for s in ((4, 3), (5, 3), (5,), (2, 2))]
    tape, loss, leaves = _two_branch_graph(data)
    full = ad.backward(tape, loss)
    tape2, loss2, leaves2 = _two_branch_graph(data)
    wanted = [leaves2[i] for i in pick]
    got = ad.backward(tape2, loss2, wrt=wanted)
    assert set(got) == {t.node_id for t in wanted}
    for i in pick:
        want = full[leaves[i].node_id]
        assert got[leaves2[i].node_id].tobytes() == want.tobytes()
        assert leaves2[i].grad.tobytes() == want.tobytes()
    unpicked = [t for i, t in enumerate(leaves2) if i not in pick]
    assert all(t.grad is None for t in unpicked)


def test_backward_wrt_unreached_leaf_gets_zeros():
    tape = ad.Tape()
    x = tape.leaf([1.0, 2.0])
    orphan = tape.leaf([[5.0, 5.0]])
    grads = ad.backward(tape, ad.tensor_sum(x), wrt=[orphan])
    assert list(grads) == [orphan.node_id]
    assert np.array_equal(grads[orphan.node_id], np.zeros((1, 2)))
    assert x.grad is None


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
        h = ad.matmul(x, w, transpose_b=True, bias=b, relu=True)
    else:
        h = ad.relu(ad.matmul(x, w, transpose_b=True, bias=b))
    logits = ad.matmul(h, w2, transpose_b=True, bias=b2)
    p = ad.softmax(logits)
    q = ad.softmax(ad.matmul(h, w2b, transpose_b=True, bias=b2))
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
    """Forward values and every gradient, for the full sweep and for wrt
    subsets; a subset without x (index 0) skips the data gradient."""
    data = _fusion_data()
    results = []
    for fused in (True, False):
        tape, loss, leaves, outs = _head_graph(data, fused)
        wrt = None if pick is None else [leaves[i] for i in pick]
        grads = ad.backward(tape, loss, wrt=wrt)
        results.append(([o.data.tobytes() for o in (*outs, loss)],
                        [grads[t.node_id].tobytes() for t in wrt or leaves]))
    assert results[0] == results[1]


def test_matmul_skips_the_gradient_of_an_operand_that_is_not_live():
    tape = ad.Tape()
    x, w, b = (tape.leaf(a) for a in _fusion_data()[:3])
    out = ad.matmul(x, w, transpose_b=True, bias=b, relu=True)
    rec = tape.records[-1]
    g = np.ones_like(out.data)
    full = rec.backward_fn(g, [True, True, True])
    skipped = rec.backward_fn(g, [False, True, False])
    assert skipped[0] is None and skipped[2] is None
    assert skipped[1].tobytes() == full[1].tobytes()
    # the pruned sweep asks for w only, and tells the record so
    told = []
    rec.backward_fn = lambda g, live, fn=rec.backward_fn: (
        told.append(list(live)) or fn(g, live))
    ad.backward(tape, ad.mean(out), wrt=[w])
    assert told == [[False, True, False]]
    assert x.grad is None and b.grad is None


def test_cross_entropy_checks_its_labels():
    tape, logits = leaf(np.zeros((2, 3)))
    with pytest.raises(ContractError, match="cross_entropy: index out of range"):
        ad.cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(DimensionError, match="cross_entropy: index vector"):
        ad.cross_entropy(logits, np.array([0]))
    with pytest.raises(ContractError, match="integers"):
        ad.cross_entropy(logits, np.array([0.0, 1.0]))


def test_mean_abs_diff_rejects_different_shapes():
    tape = ad.Tape()
    with pytest.raises(DimensionError, match="mean_abs_diff"):
        ad.mean_abs_diff(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 2))))


def test_tape_free_kernels_equal_the_records_bytewise():
    x, w, b = _fusion_data()[:3]
    tape = ad.Tape()
    xt, wt, bt = (tape.leaf(a) for a in (x, w, b))
    for relu in (False, True):
        rec = ad.matmul(xt, wt, transpose_b=True, bias=bt, relu=relu)
        assert ad.dense(x, w, b, relu=relu).tobytes() == rec.data.tobytes()
    assert ad.row_softmax(x).tobytes() == ad.softmax(xt).data.tobytes()


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
        rec = ad.matmul(tape.leaf(x), tape.param(w), transpose_b=True,
                        bias=tape.param(b), relu=True)
        assert rec.data.tobytes() == want, n
        assert tape.records[-1].relu_in.tobytes() == pre.tobytes(), n


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
    h = ad.matmul(leaves["x"], leaves["w1"], transpose_b=True,
                  bias=leaves["b1"], relu=True)
    za = ad.matmul(ad.grad_reverse(h, lams), leaves["wa"], transpose_b=True,
                   bias=leaves["ba"])
    zb = ad.matmul(h, leaves["wb"], transpose_b=True, bias=leaves["bb"])
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
        h = ad.matmul(leaves["x"], p["w1"], transpose_b=True, bias=p["b1"],
                      relu=True)
        za = ad.matmul(h if lam is None else ad.grad_reverse(h, lam), p["wa"],
                       transpose_b=True, bias=p["ba"])
        zb = ad.matmul(h, p["wb"], transpose_b=True, bias=p["bb"])
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
            names = leaves if wrt is None else wrt
            grads = ad.backward(tp, loss, wrt=None if wrt is None else
                                [leaves[k] for k in wrt])
            ref_wrt = [ref_leaves["x"] if k == "x" else ref_leaves[f"{k}{s}"]
                       for k in names for s in range(1 if k == "x" else m)]
            ref = ad.backward(ref_tp, ref_loss,
                              wrt=None if wrt is None else ref_wrt)
            for k in names:
                got = grads[leaves[k].node_id]
                if k == "x":
                    assert got.tobytes() == ref[ref_leaves["x"].node_id].tobytes()
                    continue
                for s in range(m):
                    want = ref[ref_leaves[f"{k}{s}"].node_id]
                    assert got[s].tobytes() == want.tobytes(), (wrt, k, s)
