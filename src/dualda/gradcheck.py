"""Randomized finite-difference verification of every backward rule.

Backs the `check-grad` CLI subcommand. Central differences with h=1e-5;
relative error is |analytic - numeric| / max(1, |analytic|, |numeric|).
Cases whose random draw lands within 1e-3 of a relu/abs kink are redrawn,
since the true derivative is discontinuous there.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import autodiff as ad
from .losses import (classifier_discrepancy, cross_entropy, dual_loss,
                     module_loss)
from .model import DualModel
from .nn import COMPONENT_KEYS, BoundComponents, build_component_set

H = 1e-5
TOL = 1e-4


def rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def central_diff(value_fn: Callable[[], float], arr: np.ndarray, i: int,
                 h: float = H) -> float:
    flat = arr.reshape(-1)
    keep = flat[i]
    flat[i] = keep + h
    up = value_fn()
    flat[i] = keep - h
    down = value_fn()
    flat[i] = keep
    return (up - down) / (2.0 * h)


def _op_case(kind: str, rng: np.random.Generator):
    """Random input arrays, a loss builder for one primitive op, and the
    factor of each input entry between its analytic and numeric gradient
    (None: 1), which a per-slice reversal sets."""
    m, k, n = rng.integers(2, 5, size=3)
    weights = None
    if kind == "matmul":
        arrs = [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (k, n))]
        build = lambda t: ad.matmul(t[0], t[1])
    elif kind == "matmul_t":
        arrs = [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (n, k))]
        build = lambda t: ad.matmul(t[0], t[1], transpose_b=True)
    elif kind == "matmul_bias":
        arrs = [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (n, k)),
                rng.uniform(-2, 2, (n,))]
        build = lambda t: ad.matmul(t[0], t[1], transpose_b=True, bias=t[2])
    elif kind == "matmul_relu":
        arrs = _dense_away_from_kink(rng, m, k, n)
        build = lambda t: ad.matmul(t[0], t[1], transpose_b=True, bias=t[2],
                                    relu=True)
    elif kind == "matmul_stacked":
        # two stacked dense layers (M = 2): the first reads one shared batch
        # with both weight slices, the second each slice's rows with its own
        arrs = _stacked_dense_away_from_kink(rng, m, k, n)
        build = lambda t: ad.matmul(
            ad.matmul(t[0], t[1], transpose_b=True, bias=t[2], relu=True),
            t[3], transpose_b=True, bias=t[4])
    elif kind == "reverse_slices":
        # slice 0 reversed by lambda, slice 1 passed on with weight +1.0
        lam = float(rng.uniform(0.1, 1.5))
        arrs = [rng.uniform(-2, 2, (2 * m, n))]
        weights = [np.repeat([-lam, 1.0], m * n).reshape(2 * m, n)]
        build = lambda t: ad.softmax(ad.grad_reverse(t[0], [lam, None]))
    elif kind == "add":
        arrs = [rng.uniform(-2, 2, (m, n)), rng.uniform(-2, 2, (n,))]
        build = lambda t: ad.add(t[0], t[1])
    elif kind == "sub":
        arrs = [rng.uniform(-2, 2, (m, n)), rng.uniform(-2, 2, (m, n))]
        build = lambda t: ad.sub(t[0], t[1])
    elif kind == "scalar_mul":
        arrs = [rng.uniform(-2, 2, (m, n))]
        c = float(rng.uniform(-2, 2))
        build = lambda t: ad.scalar_mul(t[0], c)
    elif kind == "relu":
        arrs = [_away_from_zero(rng, (m, n))]
        build = lambda t: ad.relu(t[0])
    elif kind == "abs":
        arrs = [_away_from_zero(rng, (m, n))]
        build = lambda t: ad.tensor_abs(t[0])
    elif kind == "softmax":
        arrs = [rng.uniform(-2, 2, (m, n))]
        build = lambda t: ad.softmax(t[0])
    elif kind == "log_softmax":
        arrs = [rng.uniform(-2, 2, (m, n))]
        build = lambda t: ad.log_softmax(t[0])
    elif kind == "mean":
        arrs = [rng.uniform(-2, 2, (m, n))]
        build = lambda t: ad.mean(t[0])
    elif kind == "sum":
        arrs = [rng.uniform(-2, 2, (m, n))]
        build = lambda t: ad.tensor_sum(t[0])
    elif kind == "select_columns":
        arrs = [rng.uniform(-2, 2, (m, n))]
        idx = rng.integers(0, n, size=m)
        build = lambda t: ad.select_columns(t[0], idx)
    elif kind == "cross_entropy":
        arrs = [rng.uniform(-2, 2, (m, n))]
        idx = rng.integers(0, n, size=m)
        build = lambda t: ad.cross_entropy(t[0], idx)
    elif kind == "mean_abs_diff":
        a = rng.uniform(-2, 2, (m, n))
        arrs = [a, a + _away_from_zero(rng, (m, n))]
        build = lambda t: ad.mean_abs_diff(t[0], t[1])
    else:
        raise ValueError(kind)
    return arrs, build, weights


def _away_from_zero(rng, shape, margin=1e-3):
    arr = rng.uniform(-2, 2, shape)
    while np.any(np.abs(arr) < margin):
        arr = rng.uniform(-2, 2, shape)
    return arr


def _dense_away_from_kink(rng, m, k, n, margin=1e-3):
    """x [m, k], w [n, k], b [n] whose pre-activation x @ w.T + b keeps
    clear of the relu kink."""
    while True:
        x, w, b = (rng.uniform(-2, 2, s) for s in ((m, k), (n, k), (n,)))
        if np.abs(x @ w.T + b).min() >= margin:
            return [x, w, b]


def _stacked_dense_away_from_kink(rng, m, k, n, margin=1e-3):
    """x [m, k], w [2, n, k], b [2, n] whose pre-activations keep clear of
    the relu kink, plus a second stacked layer w2 [2, k, n], b2 [2, k]."""
    while True:
        x, w, b = (rng.uniform(-2, 2, s) for s in ((m, k), (2, n, k), (2, n)))
        if np.abs(np.matmul(x, w.transpose(0, 2, 1)) + b[:, None]).min() >= margin:
            return [x, w, b, rng.uniform(-2, 2, (2, k, n)),
                    rng.uniform(-2, 2, (2, k))]


def _scalarize(t: ad.Tensor) -> ad.Tensor:
    """Reduce to a scalar with column-asymmetric weights (a plain mean would
    give softmax rows a constant sum and a vacuous zero gradient)."""
    if t.size == 1:
        return t
    idx = np.arange(t.shape[0]) % t.shape[1]
    return ad.add(ad.mean(t), ad.mean(ad.select_columns(t, idx)))


def check_op(kind: str, trials: int, seed: int = 0,
             reverse_lambda: float | None = None) -> float:
    """Max relative FD error over `trials` random cases of one op.

    With reverse_lambda set, the op is composed with grad_reverse and the
    analytic gradient is compared against -lambda times the numeric
    gradient of the unwrapped function (grad_reverse is identity forward).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        arrs, build, weights = _op_case(kind, rng)

        def value() -> float:
            tape = ad.Tape()
            tensors = [tape.leaf(a) for a in arrs]
            if reverse_lambda is not None:
                tensors = [ad.grad_reverse(t, reverse_lambda) for t in tensors]
            return float(_scalarize(build(tensors)).data[0])

        tape = ad.Tape()
        tensors = [tape.leaf(a) for a in arrs]
        wrapped = tensors
        if reverse_lambda is not None:
            wrapped = [ad.grad_reverse(t, reverse_lambda) for t in tensors]
        ad.backward(tape, _scalarize(build(wrapped)))

        scale = 1.0 if reverse_lambda is None else -reverse_lambda
        for j, (arr, tensor) in enumerate(zip(arrs, tensors)):
            flat_grad = tensor.grad.reshape(-1)
            factor = np.ones(arr.size) if weights is None else weights[j].reshape(-1)
            for i in range(arr.size):
                numeric = scale * factor[i] * central_diff(value, arr, i)
                worst = max(worst, rel_err(flat_grad[i], numeric))
    return worst


def _tiny_setup(rng: np.random.Generator):
    seed_a, seed_b = rng.integers(0, 2**31, size=2)
    comps1 = build_component_set(2, 3, 2, int(seed_a), g_hidden=(4,), head_hidden=())
    comps2 = build_component_set(2, 3, 2, int(seed_b), g_hidden=(4,), head_hidden=())
    xs = rng.uniform(-2, 2, (3, 2))
    xt = rng.uniform(-2, 2, (3, 2))
    ys = rng.integers(0, 2, size=3)
    return DualModel(comps1, comps2), xs, ys, xt


def _loss_parts(kind: str, model: DualModel, xs, ys, xt, lam):
    """Forward values of the loss's additive parts, on a fresh tape.

    Returns (tape, binding, parts, weight_fn, total) where
    weight_fn(component_key) gives the per-part combination weights for
    parameters of that component: the gradient-reversal layer flips the
    domain/feature part's sign only for parameters upstream of it, so the
    discriminator (downstream) keeps weight +1. The dual loss binds both
    modules as one stacked graph; the others bind the invariant module.
    """
    tape = ad.Tape()
    if kind == "dual":
        b = BoundComponents(tape, *model.modules())
        parts = dual_loss(b, b.features(tape.leaf(xs)),
                          b.features(tape.leaf(xt)), lam)
        return tape, b, [parts.feature_dis, parts.prediction_dis], \
            lambda comp: [-lam, 1.0], [parts.total]
    b = BoundComponents(tape, model.invariant, prefix="invariant.")
    x_s, x_t = tape.leaf(xs), tape.leaf(xt)
    if kind == "cross_entropy":
        ce = cross_entropy(b.classifier_a.forward(b.features(x_s)), ys)
        return tape, b, [ce], lambda comp: [1.0], [ce]
    if kind == "discrepancy":
        dis = classifier_discrepancy(b, b.features(x_t))
        return tape, b, [dis], lambda comp: [1.0], [dis]
    if kind == "invariant_module":
        parts = module_loss(b, b.features(x_s), ys, b.features(x_t), lam)

        def weights(comp):
            return [1.0, 1.0 if comp == "discriminator" else -lam]

        return tape, b, [parts.classifier_ce, parts.domain_ce], \
            weights, [parts.total]
    if kind == "discriminative_module":
        parts = module_loss(b, b.features(x_s), ys, b.features(x_t), None)
        return tape, b, [parts.classifier_ce, parts.domain_ce], \
            lambda comp: [1.0, 1.0], [parts.total]
    raise ValueError(kind)


def check_loss(kind: str, trials: int, seed: int = 0) -> float:
    """Max relative FD error of one loss's gradient over random tiny models.

    Gradient-reversal layers make the analytic gradient of a parameter
    equal sum_j w_j * d(part_j)/d(theta) with w_j = -lambda on reversed
    paths, so each additive part is finite-differenced separately and the
    weighted sum is compared per coordinate. Parameters downstream of the
    reversal (the discriminator) see w=+1 on the domain part; that case is
    covered by the plain "discriminative_module" composition.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    trial = 0
    while trial < trials:
        model, xs, ys, xt = _tiny_setup(rng)
        lam = float(rng.uniform(0.1, 1.5))
        tape, binding, parts, weight_fn, total = _loss_parts(
            kind, model, xs, ys, xt, lam)
        if _near_relu_kink(tape):
            continue
        trial += 1
        ad.backward(tape, total[0])

        # module by module: each slice of a stacked parameter on its own
        pairs = []
        slices = len(binding.prefixes)
        for m in range(slices):
            for comp in COMPONENT_KEYS:
                for name, arr, tensor in binding.named_pairs((comp,)):
                    grad = tensor.grad
                    if slices > 1:
                        arr, grad = arr[m], grad[m]
                    pairs.append((comp, arr, grad))
        for comp, arr, grad in pairs:
            flat_grad = grad.reshape(-1)
            weights = weight_fn(comp)
            picks = rng.choice(arr.size, size=min(3, arr.size), replace=False)
            for i in picks:
                numeric = 0.0
                for part_idx, w in enumerate(weights):
                    def part_value(part_idx=part_idx):
                        fresh = _loss_parts(kind, model, xs, ys, xt, lam)
                        return float(fresh[2][part_idx].data[0])
                    numeric += w * central_diff(part_value, arr, i)
                worst = max(worst, rel_err(flat_grad[i], numeric))
    return worst


def _near_relu_kink(tape: ad.Tape, margin: float = 5e-4) -> bool:
    """True when the input of any relu on the tape, a relu record's or one
    inside a dense-layer matmul, sits too close to 0 for FD; the tape holds
    exactly the relus on the loss's forward path."""
    return any(np.abs(rec.relu_in).min() < margin
               for rec in tape.records if rec.relu_in is not None)


OP_CASES = ("matmul", "matmul_t", "matmul_bias", "matmul_relu",
            "matmul_stacked", "add", "sub", "scalar_mul", "relu", "abs",
            "softmax", "log_softmax", "mean", "sum", "select_columns",
            "cross_entropy", "mean_abs_diff", "reverse_slices")
LOSS_KINDS = ("cross_entropy", "discrepancy", "invariant_module",
              "discriminative_module", "dual")


def run_suite(trials_ops: int = 100, trials_losses: int = 100,
              seed: int = 0, report=print) -> bool:
    """Full randomized gradient suite; returns True when everything passes."""
    ok = True
    for kind in OP_CASES:
        err = check_op(kind, trials_ops, seed=seed)
        ok &= err < TOL
        report(f"op {kind:<16} max rel err {err:.3e}  "
               f"{'ok' if err < TOL else 'FAIL'}")
    for kind in OP_CASES:
        err = check_op(kind, max(trials_ops // 4, 10), seed=seed + 1,
                       reverse_lambda=0.7)
        ok &= err < TOL
        report(f"grl+{kind:<14} max rel err {err:.3e}  "
               f"{'ok' if err < TOL else 'FAIL'}")
    for kind in LOSS_KINDS:
        err = check_loss(kind, trials_losses, seed=seed + 2)
        ok &= err < TOL
        report(f"loss {kind:<20} max rel err {err:.3e}  "
               f"{'ok' if err < TOL else 'FAIL'}")
    return ok
