"""Randomized finite-difference verification of every backward rule.

Backs the `check-grad` CLI subcommand. Central differences with h=1e-5;
relative error is |analytic - numeric| / max(1, |analytic|, |numeric|).
Cases whose random draw lands within 1e-3 of a relu/abs kink are redrawn,
since the true derivative is discontinuous there.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from . import autodiff as ad
from .losses import (classifier_discrepancy, cross_entropy, dual_loss,
                     module_loss)
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
    """Random input arrays plus a loss builder for one primitive op."""
    m, k, n = rng.integers(2, 5, size=3)
    if kind == "matmul":
        arrs = [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (k, n))]
        build = lambda t: ad.matmul(t[0], t[1])
    elif kind == "matmul_t":
        arrs = [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (n, k))]
        build = lambda t: ad.matmul(t[0], t[1], transpose_b=True)
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
    else:
        raise ValueError(kind)
    return arrs, build


def _away_from_zero(rng, shape, margin=1e-3):
    arr = rng.uniform(-2, 2, shape)
    while np.any(np.abs(arr) < margin):
        arr = rng.uniform(-2, 2, shape)
    return arr


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
        arrs, build = _op_case(kind, rng)

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
        for arr, tensor in zip(arrs, tensors):
            flat_grad = tensor.grad.reshape(-1)
            for i in range(arr.size):
                numeric = scale * central_diff(value, arr, i)
                worst = max(worst, rel_err(flat_grad[i], numeric))
    return worst


def _tiny_setup(rng: np.random.Generator):
    seed_a, seed_b = rng.integers(0, 2**31, size=2)
    comps1 = build_component_set(2, 3, 2, int(seed_a), g_hidden=(4,), head_hidden=())
    comps2 = build_component_set(2, 3, 2, int(seed_b), g_hidden=(4,), head_hidden=())
    xs = rng.uniform(-2, 2, (3, 2))
    xt = rng.uniform(-2, 2, (3, 2))
    ys = rng.integers(0, 2, size=3)
    return comps1, comps2, xs, ys, xt


def _loss_parts(kind: str, comps1, comps2, xs, ys, xt, lam):
    """Forward values of the loss's additive parts, on a fresh tape.

    Returns (tape, binding1, binding2, parts, weight_fn, total) where
    weight_fn(component_key) gives the per-part combination weights for
    parameters of that component: the gradient-reversal layer flips the
    domain/feature part's sign only for parameters upstream of it, so the
    discriminator (downstream) keeps weight +1.
    """
    tape = ad.Tape()
    b = BoundComponents(tape, comps1, prefix="invariant.")
    x_s, x_t = tape.leaf(xs), tape.leaf(xt)
    if kind == "cross_entropy":
        ce = cross_entropy(b.classifier_a.forward(b.features(x_s)), ys)
        return tape, b, None, [ce], lambda comp: [1.0], [ce]
    if kind == "discrepancy":
        dis = classifier_discrepancy(b, b.features(x_t))
        return tape, b, None, [dis], lambda comp: [1.0], [dis]
    if kind == "invariant_module":
        parts = module_loss(b, b.features(x_s), ys, b.features(x_t), lam)

        def weights(comp):
            return [1.0, 1.0 if comp == "discriminator" else -lam]

        return tape, b, None, [parts.classifier_ce, parts.domain_ce], \
            weights, [parts.total]
    if kind == "discriminative_module":
        parts = module_loss(b, b.features(x_s), ys, b.features(x_t), None)
        return tape, b, None, [parts.classifier_ce, parts.domain_ce], \
            lambda comp: [1.0, 1.0], [parts.total]
    if kind == "dual":
        b2 = BoundComponents(tape, comps2, prefix="discriminative.")
        parts = dual_loss(b, b2, b.features(x_s), b.features(x_t),
                          b2.features(x_s), b2.features(x_t), lam)
        return tape, b, b2, [parts.feature_dis, parts.prediction_dis], \
            lambda comp: [-lam, 1.0], [parts.total]
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
        comps1, comps2, xs, ys, xt = _tiny_setup(rng)
        lam = float(rng.uniform(0.1, 1.5))
        tape, b1, b2, parts, weight_fn, total = _loss_parts(
            kind, comps1, comps2, xs, ys, xt, lam)
        if _near_relu_kink(b1, b2, xs, xt):
            continue
        trial += 1
        ad.backward(tape, total[0])

        pairs = []
        for binding in (b1,) if b2 is None else (b1, b2):
            for comp in COMPONENT_KEYS:
                for name, arr, tensor in binding.named_pairs((comp,)):
                    pairs.append((comp, arr, tensor))
        for comp, arr, tensor in pairs:
            flat_grad = tensor.grad.reshape(-1)
            weights = weight_fn(comp)
            picks = rng.choice(arr.size, size=min(3, arr.size), replace=False)
            for i in picks:
                numeric = 0.0
                for part_idx, w in enumerate(weights):
                    def part_value(part_idx=part_idx):
                        fresh = _loss_parts(kind, comps1, comps2, xs, ys, xt, lam)
                        return float(fresh[3][part_idx].data[0])
                    numeric += w * central_diff(part_value, arr, i)
                worst = max(worst, rel_err(flat_grad[i], numeric))
    return worst


def _stack_kink_distance(bound, x) -> Tuple[float, np.ndarray]:
    """Numpy replay of one stack: (min |hidden pre-activation|, output)."""
    h = np.asarray(x, dtype=np.float64)
    closest = np.inf
    layers = bound.stack.layers
    for i, layer in enumerate(layers):
        h = h @ layer.weight.T + layer.bias
        if i < len(layers) - 1:
            closest = min(closest, float(np.abs(h).min()))
            h = np.maximum(h, 0.0)
    return closest, h


def _near_relu_kink(b1, b2, xs, xt, margin: float = 5e-4) -> bool:
    """True when any hidden pre-activation sits too close to 0 for FD."""
    for b in (b1,) if b2 is None else (b1, b2):
        for x in (xs, xt):
            closest, feats = _stack_kink_distance(b.extractor, x)
            if closest < margin:
                return True
            _, t_out = _stack_kink_distance(b.transform, feats)
            for head in (b.classifier_a, b.classifier_b, b.discriminator):
                closest, _ = _stack_kink_distance(head, t_out)
                if closest < margin:
                    return True
    return False


OP_CASES = ("matmul", "matmul_t", "add", "sub", "scalar_mul", "relu", "abs",
            "softmax", "log_softmax", "mean", "sum", "select_columns")
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
