"""Randomized finite-difference verification of the generated code that
training runs: the analytic gradients come from its sweeps, and each
finite difference reruns the case's one tape through its forward.

The sites (``SITES``) are the graphs that ``train`` captures, each recorded
by the trainer's own capture function on a tiny ``DualModel``. The op cases
check each op that training records, plain and behind a reversal
(``grl+``): the dense product (with a bias, a relu and stacked slices),
add, sub, softmax, the two loss terms and a per-slice reversal. The rules
of the ops that training never records (scalar_mul, relu, abs,
log_softmax, mean, sum, select_columns) are checked by the tests: the
gradient suite of tests/test_acceptance.py and tests/test_autodiff.py.

One rule covers every reversal. Each path of a checked graph crosses at
most one ``grad_reverse``, which scales its upstream gradient by -lambda,
so a sweep's gradient is affine in lambda, G(lambda) = A - lambda B, while
the finite difference of the forward (the reversal's is the identity)
sees A + B. lambda is a step input of every graph that reverses, so each
check sweeps at lambda = 0 and 1 and compares 2 G(0) - G(1) (G itself
where nothing reverses) with the central difference of the loss's summed
values. No training graph puts two reversals on one path, and the rule
does not cover that, so reverse_slices has no grl+ case.

Backs the `check-grad` CLI subcommand. Central differences with h=1e-5;
relative error is |analytic - numeric| / max(1, |analytic|, |numeric|). A
draw whose tape holds a relu pre-activation or a ``mean_abs_diff``
difference within 5e-4 of 0, where the derivative jumps, is redrawn.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .model import DualModel
from .trainer import (_capture_boundary, _capture_discrepancy, _capture_dual,
                      _capture_modules, _capture_source)

H = 1e-5
TOL = 1e-4


def rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def central_diff(value_fn: Callable[[], float], arr: np.ndarray, i: int,
                 h: float = H) -> float:
    """Central difference of value_fn in arr's entry i (C order), set in
    place: arr may be a strided view, such as a stacked parameter, whose
    reshape would be a copy."""
    at = np.unravel_index(i, arr.shape)
    keep = arr[at]
    arr[at] = keep + h
    up = value_fn()
    arr[at] = keep - h
    down = value_fn()
    arr[at] = keep
    return (up - down) / (2.0 * h)


def _op_case(kind: str, rng: np.random.Generator):
    """Random input arrays and a loss builder build(tensors, lam) for one
    primitive op."""
    m, k, n = (int(v) for v in rng.integers(2, 5, size=3))
    if kind == "matmul_t":  # the dense product x @ w.T
        shapes, build = [(m, k), (n, k)], lambda t, lam: ad.matmul(t[0], t[1])
    elif kind in ("matmul_bias", "matmul_relu"):
        shapes = [(m, k), (n, k), (n,)]
        build = lambda t, lam: ad.matmul(t[0], t[1], bias=t[2],
                                         relu=kind == "matmul_relu")
    elif kind == "matmul_stacked":
        # two stacked dense layers (M = 2): the first reads one shared batch
        # with both weight slices, the second each slice's rows with its own
        shapes = [(m, k), (2, n, k), (2, n), (2, k, n), (2, k)]
        build = lambda t, lam: ad.matmul(
            ad.matmul(t[0], t[1], bias=t[2], relu=True), t[3], bias=t[4])
    elif kind == "reverse_slices":
        # slice 0 reversed by lambda, slice 1 passed on with weight +1.0
        shapes = [(2 * m, n)]
        build = lambda t, lam: ad.softmax(ad.grad_reverse(t[0], [lam, None]))
    elif kind in ("add", "sub", "mean_abs_diff"):
        op = {"add": ad.add, "sub": ad.sub, "mean_abs_diff": ad.mean_abs_diff}
        shapes, build = [(m, n), (m, n)], lambda t, lam: op[kind](t[0], t[1])
    elif kind == "softmax":
        shapes, build = [(m, n)], lambda t, lam: ad.softmax(t[0])
    elif kind == "cross_entropy":
        idx = rng.integers(0, n, size=m)
        shapes, build = [(m, n)], lambda t, lam: ad.cross_entropy(t[0], idx)
    else:
        raise ValueError(kind)
    return [rng.uniform(-2, 2, s) for s in shapes], build


def _scalarize(t: ad.Tensor) -> ad.Tensor:
    """One value per slice with column-asymmetric weights: the
    cross-entropy against labels that cycle through the columns (a plain
    mean would give softmax rows a constant sum and a vacuous zero
    gradient)."""
    if t.size == 1:
        return t
    rows = t.shape[0] // t.slices
    return ad.cross_entropy(t, np.arange(rows) % t.shape[1])


def check_op(kind: str, trials: int, seed: int = 0,
             reverse: bool = False) -> float:
    """Max relative FD error over `trials` random cases of one op, each
    input entry probed; with reverse, every input passes through
    grad_reverse first. lambda is a step input of a case that reverses."""
    rng = np.random.default_rng(seed)
    worst, done = 0.0, 0
    while done < trials:
        arrs, build = _op_case(kind, rng)
        lam = 1.0  # one object: the tape ties a step input by identity
        reverses = reverse or kind == "reverse_slices"
        inputs = (*arrs, lam) if reverses else tuple(arrs)
        tape = ad.Tape(*inputs)
        tensors = [tape.leaf(a) for a in arrs]
        wrapped = [ad.grad_reverse(t, lam) for t in tensors] \
            if reverse else tensors
        loss = _scalarize(build(wrapped, lam))
        if _near_kink(tape):
            continue
        done += 1
        params = [((), a, t) for a, t in zip(arrs, tensors)]
        worst = max(worst, _max_err(tape, inputs, reverses, [(loss, params)]))
    return worst


class Site(NamedTuple):
    """A graph that ``train`` captures: the trainer's capture function, the
    context that train passes it, built from the model, and the names of
    its step inputs in order (``lam``, lambda, is last where it is one)."""

    capture: Callable
    context: Callable[[DualModel], tuple]
    inputs: str


# every distinct graph that train captures, by the variants that run it:
# step 1 on both modules (ours_2m) and on the invariant one alone (mcd,
# mcd_dann, ours_1m; its phase A is the graph of step 2 source, which
# source_only runs); step 2 on the invariant module alone (dann, mcd_dann)
# and on both, the discriminative one not reversed (ours*); step 3 (ours*)
_INVARIANT = ("invariant",)
SITES = {
    "step 1 A": Site(_capture_source, DualModel.modules, "xs ys"),
    "step 1 B": Site(_capture_boundary, DualModel.modules, "xs ys xt"),
    "step 1 C": Site(_capture_discrepancy, DualModel.modules, "xt"),
    "step 1 B invariant": Site(_capture_boundary,
                               lambda m: m.modules(_INVARIANT), "xs ys xt"),
    "step 1 C invariant": Site(_capture_discrepancy,
                               lambda m: m.modules(_INVARIANT), "xt"),
    "step 2 source": Site(_capture_source,
                          lambda m: (m.invariant, "invariant."), "xs ys"),
    "step 2 invariant": Site(_capture_modules, lambda m: (
        *m.modules(_INVARIANT), (True,)), "xs ys xt lam"),
    "step 2 both": Site(_capture_modules, lambda m: (
        *m.modules(), (True, False)), "xs ys xt lam"),
    "step 3": Site(_capture_dual, lambda m: (m,), "xs xt lam"),
}


def check_site(site: str, trials: int, seed: int = 0) -> float:
    """Max relative FD error of one site's gradients over `trials` random
    tiny models and batches, 3 random entries probed per parameter
    array."""
    capture, context, names = SITES[site]
    rng = np.random.default_rng(seed)
    worst, done = 0.0, 0
    while done < trials:
        model = DualModel.build(2, 3, 2, int(rng.integers(2**31)),
                                g_hidden=(4,), head_hidden=())
        draw = {"xs": rng.uniform(-2, 2, (3, 2)),
                "ys": rng.integers(0, 2, size=3),
                "xt": rng.uniform(-2, 2, (3, 2)), "lam": 1.0}
        inputs = tuple(draw[name] for name in names.split())
        tape = ad.Tape(*inputs)
        terms = capture(tape, *context(model), *inputs)
        if _near_kink(tape):
            continue
        done += 1
        worst = max(worst, _max_err(tape, inputs, names.endswith("lam"),
                                    terms, rng))
    return worst


def _max_err(tape: ad.Tape, inputs: tuple, reverses: bool, terms,
             rng: np.random.Generator | None = None) -> float:
    """Max relative error of each term (loss, [(names, array, tensor)]):
    2 G(0) - G(1), G(lam) its sweep after the tape reruns on inputs with
    lam for lambda (their last, when reverses), against the central
    difference of the loss's summed values in each array's entries: 3
    random ones drawn from rng, or all of them without rng."""
    def rerun(lam: float) -> None:
        tape.rerun(*(inputs[:-1] + (lam,) if reverses else inputs))

    worst = 0.0
    for loss, params in terms:
        def value() -> float:
            rerun(1.0)
            return float(loss.data.sum())

        wrt = [t for _, _, t in params]
        swept = []
        for lam in (0.0, 1.0):
            rerun(lam)
            swept.append(ad.backward(tape, loss, wrt))
        for (_, arr, _), g0, g1 in zip(params, *swept):
            analytic = (2.0 * g0 - g1).reshape(-1)
            picks = range(arr.size) if rng is None else rng.choice(
                arr.size, size=min(3, arr.size), replace=False)
            for i in picks:
                worst = max(worst, rel_err(analytic[i],
                                           central_diff(value, arr, i)))
    return worst


def _near_kink(tape: ad.Tape, margin: float = 5e-4) -> bool:
    """True when a dense-layer relu's pre-activation or a mean_abs_diff's
    difference on the tape sits within margin of 0, where the derivative
    jumps. ad.dense without its relu makes each record's pre-activation,
    with the same bits, from each of its domain batches in turn; a pair
    mean_abs_diff compares the two halves of its operand's rows."""
    values = tape.values
    for rec in tape.records:
        ins = [values[i] for i in rec.input_ids]
        if rec.kind == "mean_abs_diff":
            if rec.static[0]:
                ins = np.split(ins[0], 2)
            if np.abs(ins[0] - ins[1]).min() < margin:
                return True
        elif rec.kind == "matmul" and rec.static[1]:
            slices, _, parts = rec.static
            if any(np.abs(ad.dense(x, *ins[parts:], slices=slices)).min()
                   < margin for x in ins[:parts]):
                return True
    return False


OP_CASES = ("matmul_t", "matmul_bias", "matmul_relu", "matmul_stacked",
            "add", "sub", "softmax", "cross_entropy", "mean_abs_diff",
            "reverse_slices")


def run_suite(trials: int = 100, seed: int = 0, report=print) -> bool:
    """Full randomized gradient suite, one line per check: each op case,
    each but reverse_slices behind a reversal, each site. Returns True when
    everything passes."""
    checks = [(f"op {k}", check_op, (k, trials, seed)) for k in OP_CASES]
    checks += [(f"grl+{k}", check_op, (k, max(trials // 4, 10), seed + 1,
                                       True))
               for k in OP_CASES if k != "reverse_slices"]
    checks += [(f"site {s}", check_site, (s, trials, seed + 2)) for s in SITES]
    ok = True
    for name, check, args in checks:
        err = check(*args)
        ok &= err < TOL
        report(f"{name:<23} max rel err {err:.3e}  "
               f"{'ok' if err < TOL else 'FAIL'}")
    return ok
