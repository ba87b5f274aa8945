"""Independent reference implementations used to pin expected values.

Most of these deliberately avoid the library's autodiff path: losses are
recomputed with explicit numpy loops, gradients with central finite
differences on forward values only. Four keep a design the library
replaced, as the reference for its replacement: the tape-built evaluation
(``compute_metrics_on_tape``), the array-by-array optimizer (``ArraySGD``),
the per-record backward formulas that the generated sweeps replaced
(``reference_backward``) and step 3's graph of one domain at a time
(``step3_per_domain``). ``trained_components`` states which components
each training plan updates, the reference for the component groups that
the trainer's call sites train.
"""

import numpy as np

from dualda import autodiff as ad
from dualda.errors import ContractError
from dualda.losses import (DualLossParts, classifier_discrepancy, discrepancy,
                           module_loss)
from dualda.nn import COMPONENT_KEYS, BoundComponents
from dualda.trainer import MetricsRecord

FD_H = 1e-5
FD_TOL = 1e-4


def fd_gradient(value_fn, arr, i, h=FD_H):
    """Central finite difference of value_fn w.r.t. arr.flat[i], set in
    place: arr may be a strided view (a stacked parameter), whose reshape
    would be a copy."""
    at = np.unravel_index(i, arr.shape)
    keep = arr[at]
    arr[at] = keep + h
    up = value_fn()
    arr[at] = keep - h
    down = value_fn()
    arr[at] = keep
    return (up - down) / (2.0 * h)


def fd_rel_err(analytic, numeric):
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def softmax_rows(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_values_reduce(a, idx, slices=1):
    """ad.cross_entropy_values with numpy's own row reductions: the byte
    reference of its row max (and, by softmax_rows, of ad.row_softmax's)."""
    shifted = a - np.maximum.reduce(a, 1, keepdims=True)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), 1, keepdims=True))
    n = len(idx)
    rows = np.arange(slices * n).reshape(slices, n)
    return -1.0 * (np.add.reduce(logp[rows, idx], 1) / n), logp, rows


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


def pair_discrepancy(comps, x):
    """One module's classifier-pair discrepancy on input rows x, with no
    tape: the numpy calls of classifier_discrepancy's records, so its
    bytes at the module's current parameters."""
    t = comps.features(x)
    return ad.mean_abs_diff_values(
        ad.row_softmax(comps.classifier_a.apply(t)),
        ad.row_softmax(comps.classifier_b.apply(t)))[0][0]


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


def dual_loss_per_domain(binding, t_s, t_t, lam):
    """dual_loss as the graph it replaced, which runs each domain on its
    own: the softmax, discrepancy and classifier_a records once per domain
    (t_s and t_t: the stacked transform outputs of both modules on one
    domain each), and an add per term that sums the two domains."""
    feature_dis = ad.add(discrepancy(ad.softmax(t_s)),
                         discrepancy(ad.softmax(t_t)))
    prediction_dis = ad.add(
        discrepancy(ad.softmax(binding.classifier_a.forward(t_s))),
        discrepancy(ad.softmax(binding.classifier_a.forward(t_t))))
    return DualLossParts(feature_dis, prediction_dis,
                         ad.grad_reverse(feature_dis, lam))


def step3_per_domain(model, xs, xt, lam):
    """Step 3 on the per-domain graph (dual_loss_per_domain): per term, in
    the trainer's order, its loss value and the gradients of the
    parameters it trains, swept by reference_backward. The reference for
    the bytes of step 3's two-domain graph."""
    tape = ad.Tape()
    b = BoundComponents(tape, *model.modules())
    parts = dual_loss_per_domain(b, b.features(tape.leaf(xs)),
                                 b.features(tape.leaf(xt)), lam)
    return [(loss.data, reference_backward(
                tape, loss, [t for *_, t in b.named_pairs(components)]))
            for loss, components in (
                (parts.reversed_feature_dis, ("extractor", "transform")),
                (parts.prediction_dis, ("classifier_a",)))]


def trained_components(plan):
    """The exact set of '<module>.<component>' keys that a TrainingPlan may
    update, stated from the paper's steps: the reference for the component
    groups that the trainer's call sites train."""
    comps = set()
    for m in plan.mcd_modules:
        comps.update({f"{m}.extractor", f"{m}.transform",
                      f"{m}.classifier_a", f"{m}.classifier_b"})
    if plan.step2_invariant != "none":
        comps.update({"invariant.extractor", "invariant.transform",
                      "invariant.classifier_a", "invariant.classifier_b"})
        if plan.step2_invariant == "adversarial":
            comps.add("invariant.discriminator")
    if plan.step2_discriminative:
        comps.update({f"discriminative.{k}" for k in COMPONENT_KEYS})
    if plan.step3:
        comps.update({"invariant.extractor", "invariant.transform",
                      "invariant.classifier_a",
                      "discriminative.extractor", "discriminative.transform",
                      "discriminative.classifier_a"})
    return frozenset(comps)


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
    module_loss, dual_loss_per_domain (the domains may differ in size) and
    classifier_discrepancy, every value read off the tape."""
    tape = ad.Tape()
    b = BoundComponents(tape, *model.modules())
    t_s = b.features(tape.leaf(source.features))
    t_t = b.features(tape.leaf(target.features))
    parts = module_loss(b, t_s, source.labels, t_t, None)
    dual = dual_loss_per_domain(b, t_s, t_t, 0.0)
    mcd_dis = classifier_discrepancy(b, t_t)

    def accuracy(t, labels):
        probs = ad.softmax(b.classifier_a.forward(t)).data
        return float(np.mean(np.argmax(probs[:len(labels)], axis=1)
                             == labels))

    return MetricsRecord(
        epoch=epoch,
        cls_ce=float(parts.classifier_ce.data[0]),
        dom_ce_m1=float(parts.domain_ce.data[0]),
        dom_ce_m2=float(parts.domain_ce.data[1]),
        dis_t=float(dual.feature_dis.data[0]),
        dis_c=float(dual.prediction_dis.data[0]),
        mcd_dis=float(mcd_dis.data[0]),
        src_acc=accuracy(t_s, source.labels),
        tgt_acc=accuracy(t_t, target.labels),
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


# --- the per-record backward formulas, swept in plain numpy ------------------

def _mT(a):
    return a.T if a.ndim == 2 else a.swapaxes(1, 2)


def _matmul_grads(rec, ins, out, g, live):
    a_slices, relu, parts = rec.static
    xs, w = ins[:parts], ins[parts]
    if relu:
        g = g * (out > 0)
    if w.ndim == 2:
        return g @ w, g.T @ xs[0], np.add.reduce(g, -2)
    m, width = w.shape[:2]
    d = parts if parts > 1 else max(1, a_slices // m)
    gs = g.reshape(m, d, -1, width)
    x = xs[0] if parts > 1 or a_slices == 1 else \
        xs[0].reshape(m, d, -1, xs[0].shape[1])
    gx, gw, gb = [], 0.0, 0.0
    # one (module, domain) slice at a time, the domains summed in order
    for k in range(d):
        g_k = gs[:, k]
        x_k = xs[k] if parts > 1 else x if a_slices == 1 else x[:, k]
        gx.append(g_k @ w)
        gw = _mT(g_k) @ x_k if k == 0 else gw + _mT(g_k) @ x_k
        b_k = np.add.reduce(g_k, -2)
        gb = b_k if k == 0 else gb + b_k
    if parts > 1:
        gx = [np.add.reduce(g_x, 0) for g_x in gx]
    elif a_slices == 1 and m > 1:  # a shared input collects every slice's
        gx = [np.add.reduce(gx[0], 0)]
    else:
        gx = [np.stack(gx, 1).reshape(xs[0].shape)]
    return (*gx, gw, gb)


def _cross_entropy_grads(rec, ins, out, g, live):
    (a,), idx, m = ins, rec.args[0], rec.static[0]
    shifted = a - np.maximum.reduce(a, 1, keepdims=True)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), 1, keepdims=True))
    rows = np.arange(m * len(idx)).reshape(m, len(idx))
    g_logp = np.zeros(a.shape)
    g_logp[rows, idx] = ((-1.0 * g) / len(idx))[:, None]
    return (g_logp - np.exp(logp) * np.add.reduce(g_logp, 1, keepdims=True),)


def _mean_abs_diff_grads(rec, ins, out, g, live):
    pair, n = rec.static
    x, y = (ins[0][:len(ins[0]) // 2], ins[0][len(ins[0]) // 2:]) if pair \
        else ins
    sign = np.sign(x - y)
    c = 1.0 / (sign.size // n)
    # a pair's one gradient value is every domain's
    g_d = ((c * g)[:, None] * sign.reshape(1 if pair else n, -1)).reshape(
        sign.shape)
    return (np.concatenate((g_d, -g_d)),) if pair else (g_d, -g_d)


def _grad_reverse_grads(rec, ins, out, g, live):
    weights = [1.0 if v is None else -float(v) for v in rec.args]
    if len(weights) == 1:
        return (weights[0] * g,)
    rows = np.repeat(weights, len(g) // len(weights))
    return (g * rows.reshape((-1,) + (1,) * (g.ndim - 1)),)


def _select_columns_grads(rec, ins, out, g, live):
    grad = np.zeros(ins[0].shape)
    grad[np.arange(len(grad)), rec.args[0]] = g[:, 0]
    return (grad,)


# kind -> (record, input values, output value, output gradient, live flags)
#         -> the gradient of each input (None where not live)
_BACKWARD_RULES = {
    "matmul": _matmul_grads,
    "add": lambda rec, ins, out, g, live: (g, g),
    "sub": lambda rec, ins, out, g, live: (g, -g),
    "scalar_mul": lambda rec, ins, out, g, live: (rec.args[0] * g,),
    "relu": lambda rec, ins, out, g, live: (g * (ins[0] > 0),),
    "softmax": lambda rec, ins, out, g, live: (
        out * (g - np.add.reduce(g * out, 1, keepdims=True)),),
    "log_softmax": lambda rec, ins, out, g, live: (
        g - np.exp(out) * g.sum(axis=1, keepdims=True),),
    "mean": lambda rec, ins, out, g, live: (
        np.full(ins[0].shape, g[0] / ins[0].size),),
    "sum": lambda rec, ins, out, g, live: (np.full(ins[0].shape, g[0]),),
    "abs": lambda rec, ins, out, g, live: (g * np.sign(ins[0]),),
    "select_columns": _select_columns_grads,
    "cross_entropy": _cross_entropy_grads,
    "mean_abs_diff": _mean_abs_diff_grads,
    "grad_reverse": _grad_reverse_grads,
}


def reference_backward(tape, loss, wrt):
    """ad.backward's gradients by the per-record backward formulas, applied
    record by record in reverse in plain numpy from the records' inputs,
    outputs and arguments, each contribution summed into a new array in
    the same order: the reference for the generated sweeps' bytes. Returns
    the gradient of each wrt tensor, in wrt order, zeros where the loss
    does not reach."""
    values = tape.values
    live = [False] * len(values)
    for t in wrt:
        live[t.node_id] = True
    for rec in tape.records:
        if any(live[i] for i in rec.input_ids):
            live[rec.output_id] = True
    grads = [None] * len(values)
    grads[loss.node_id] = np.ones_like(values[loss.node_id])
    for rec in reversed(tape.records):
        g = grads[rec.output_id]
        if g is None or not live[rec.output_id]:
            continue
        flags = [live[i] for i in rec.input_ids]
        contributions = _BACKWARD_RULES[rec.kind](
            rec, [values[i] for i in rec.input_ids], values[rec.output_id], g,
            flags)
        for i, flag, g_in in zip(rec.input_ids, flags, contributions):
            if flag:
                grads[i] = g_in if grads[i] is None else grads[i] + g_in
    return [np.zeros_like(values[t.node_id]) if grads[t.node_id] is None
            else grads[t.node_id] for t in wrt]


def every_node(tape):
    """A handle on every node of tape, in node order: as wrt, the gradient
    of every value, leaves and record outputs alike."""
    return [ad.Tensor(tape, i) for i in range(len(tape.values))]
