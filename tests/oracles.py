"""Independent reference implementations used to pin expected values.

Most of these deliberately avoid the library's autodiff path: losses are
recomputed with explicit numpy loops, gradients with central finite
differences on forward values only. Two keep a design the library
replaced, as the reference for its replacement: the tape-built evaluation
(``compute_metrics_on_tape``) and the array-by-array optimizer
(``ArraySGD``).
"""

import numpy as np

from dualda import autodiff as ad
from dualda.errors import ContractError
from dualda.losses import classifier_discrepancy, dual_loss, module_loss
from dualda.nn import BoundComponents
from dualda.trainer import MetricsRecord

FD_H = 1e-5
FD_TOL = 1e-4


def fd_gradient(value_fn, arr, i, h=FD_H):
    """Central finite difference of value_fn w.r.t. arr.flat[i]."""
    flat = arr.reshape(-1)
    keep = flat[i]
    flat[i] = keep + h
    up = value_fn()
    flat[i] = keep - h
    down = value_fn()
    flat[i] = keep
    return (up - down) / (2.0 * h)


def fd_rel_err(analytic, numeric):
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def softmax_rows(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_direct(logits, labels):
    """Explicit softmax, then -log of the labeled entry, summed by loop."""
    probs = softmax_rows(logits)
    total = 0.0
    for i, label in enumerate(labels):
        total += -np.log(probs[i, label])
    return total / len(labels)


def discrepancy_brute_force(p1, p2):
    """Entry-by-entry loop over mean_k |p1_k - p2_k|, then batch mean."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    rows, cols = p1.shape
    total = 0.0
    for i in range(rows):
        row = 0.0
        for k in range(cols):
            row += abs(p1[i, k] - p2[i, k])
        total += row / cols
    return total / rows


def stack_forward_numpy(stack, x):
    """Plain numpy replay of a Stack forward (relu hidden layers)."""
    h = np.asarray(x, dtype=np.float64)
    layers = stack.layers
    for i, layer in enumerate(layers):
        h = h @ layer.weight.T + layer.bias
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def module_forward_numpy(comps, x):
    """(transform output, classifier_a logits, classifier_b logits,
    discriminator logits) via the numpy replay."""
    feats = stack_forward_numpy(comps.extractor, x)
    t_out = stack_forward_numpy(comps.transform, feats)
    return (t_out,
            stack_forward_numpy(comps.classifier_a, t_out),
            stack_forward_numpy(comps.classifier_b, t_out),
            stack_forward_numpy(comps.discriminator, t_out))


def module_loss_composition(comps, xs, ys, xt):
    """loss_m1/loss_m2 forward value from the CE oracle on replayed logits.

    Gradient reversal is identity in the forward pass, so this value covers
    both modules' losses for any lambda. Returns (classifier_ce, domain_ce).
    """
    t_s, logits_a, logits_b, d_s = module_forward_numpy(comps, xs)
    _, _, _, d_t = module_forward_numpy(comps, xt)
    classifier_ce = (cross_entropy_direct(logits_a, ys) +
                     cross_entropy_direct(logits_b, ys))
    domain_ce = (cross_entropy_direct(d_s, np.zeros(len(xs), dtype=int)) +
                 cross_entropy_direct(d_t, np.ones(len(xt), dtype=int)))
    return classifier_ce, domain_ce


def dual_loss_composition(comps1, comps2, xs, xt):
    """Forward value of the cross-module loss from the discrepancy oracle.

    Returns (feature_dis, prediction_dis); the grl wrapper is identity in
    the forward pass so total = feature_dis + prediction_dis.
    """
    t1_s, ca1_s, _, _ = module_forward_numpy(comps1, xs)
    t1_t, ca1_t, _, _ = module_forward_numpy(comps1, xt)
    t2_s, ca2_s, _, _ = module_forward_numpy(comps2, xs)
    t2_t, ca2_t, _, _ = module_forward_numpy(comps2, xt)
    feature_dis = (discrepancy_brute_force(softmax_rows(t1_s), softmax_rows(t2_s)) +
                   discrepancy_brute_force(softmax_rows(t1_t), softmax_rows(t2_t)))
    prediction_dis = (
        discrepancy_brute_force(softmax_rows(ca1_s), softmax_rows(ca2_s)) +
        discrepancy_brute_force(softmax_rows(ca1_t), softmax_rows(ca2_t)))
    return feature_dis, prediction_dis


def accuracy_counting(predictions, labels):
    """Brute-force per-sample comparison."""
    hits = 0
    for p, y in zip(predictions, labels):
        hits += int(p == y)
    return hits / len(labels)


def sgd_two_step_unrolled(param, grad1, grad2, lr, momentum):
    """Hand-unrolled two momentum-SGD steps from zero velocity."""
    v1 = grad1
    p1 = param - lr * v1
    v2 = momentum * v1 + grad2
    p2 = p1 - lr * v2
    return p2


def compute_metrics_on_tape(model, source, target, epoch):
    """compute_metrics as one full-dataset tape of both modules through
    module_loss, dual_loss and classifier_discrepancy, every value read
    off the tape."""
    tape = ad.Tape()
    b = BoundComponents(tape, *model.modules())
    t_s = b.features(tape.leaf(source.features))
    t_t = b.features(tape.leaf(target.features))
    parts = module_loss(b, t_s, source.labels, t_t, None)
    dual = dual_loss(b, t_s, t_t, 0.0)
    mcd_dis = classifier_discrepancy(b, t_t)

    def accuracy(probs, labels):
        return float(np.mean(np.argmax(probs.data[:len(labels)], axis=1)
                             == labels))

    return MetricsRecord(
        epoch=epoch,
        cls_ce=float(parts.classifier_ce.data[0]),
        dom_ce_m1=float(parts.domain_ce.data[0]),
        dom_ce_m2=float(parts.domain_ce.data[1]),
        dis_t=float(dual.feature_dis.data[0]),
        dis_c=float(dual.prediction_dis.data[0]),
        mcd_dis=float(mcd_dis.data[0]),
        src_acc=accuracy(dual.probs_s, source.labels),
        tgt_acc=accuracy(dual.probs_t, target.labels),
    )


class ArraySGD:
    """Momentum SGD array by array, one velocity per name, with six numpy
    calls per array; the same (names, array, grad) items and lr as
    dualda.optim.SGD."""

    def __init__(self, momentum):
        self.momentum = momentum
        self.velocity = {}

    def step(self, named, lr):
        rates = None if np.isscalar(lr) else np.asarray(lr, dtype=np.float64)
        for name, param, grad in named:
            names = (name,) if isinstance(name, str) else name
            v = self.velocity.get(name)
            if v is None:
                v = self.velocity[name] = np.zeros_like(param)
            v *= self.momentum
            v += grad
            if rates is None:
                param -= lr * v
            else:
                param -= rates.reshape((-1,) + (1,) * (param.ndim - 1)) * v
            if not np.isfinite(param).all():
                m = 0 if len(names) == 1 else next(
                    i for i in range(len(names))
                    if not np.isfinite(param[i]).all())
                raise ContractError(
                    f"sgd: parameter {names[m]} is no longer finite after an "
                    f"update with lr {lr if rates is None else rates[m]:g}; "
                    f"training diverged")
