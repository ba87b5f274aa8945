"""Replay: a call site's tape, captured on one batch and re-run on the next
as generated code, must equal a fresh tape on that batch byte for byte,
forward and backward, keep every per-batch check, and be freed by
reference counting like every other tape; its gradients written into an
optimizer's gradient store must step the parameters like the
array-by-array optimizer."""

import gc
import re
import weakref

import numpy as np
import pytest

import dualda.autodiff as ad
import dualda.trainer as trainer
from dualda.data import domain_shift, gen_two_moons
from dualda.errors import ContractError, DimensionError
from dualda.autodiff import cross_entropy
from dualda.model import DualModel, Variant
from dualda.optim import SGD, Schedule
from dualda.trainer import TrainConfig, compute_metrics, train

from oracles import ArraySGD, every_node, reference_backward

B = 16


def _model(seed=4):
    return DualModel.build(2, 5, 2, seed=seed, g_hidden=(7,), head_hidden=(4,))


def _batch(seed, n=B):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-2, 2, (n, 2)), rng.integers(0, 2, size=n),
            rng.uniform(-2, 2, (n, 2)), float(rng.uniform(0.1, 0.9)))


def _one(model):
    return model.modules(("invariant",))


# call site -> (capture, its context, which of (xs, ys, xt, lam) it reads)
SITES = {
    "phase A, one module": (trainer._capture_source, _one, "xs ys"),
    "phase A, two modules": (trainer._capture_source, DualModel.modules,
                             "xs ys"),
    "phase B, one module": (trainer._capture_boundary, _one, "xs ys xt"),
    "phase B, two modules": (trainer._capture_boundary, DualModel.modules,
                             "xs ys xt"),
    "phase C, one module": (trainer._capture_discrepancy, _one, "xt"),
    "phase C, two modules": (trainer._capture_discrepancy, DualModel.modules,
                             "xt"),
    "step 2, ce_only": (trainer._capture_source,
                        lambda m: (m.invariant, "invariant."), "xs ys"),
    "step 2, one module": (trainer._capture_modules,
                           lambda m: (*_one(m), (True,)), "xs ys xt lam"),
    "step 2, two modules": (trainer._capture_modules,
                            lambda m: (*m.modules(), (True, False)),
                            "xs ys xt lam"),
    "step 3": (trainer._capture_dual, lambda m: (m,), "xs xt lam"),
}


def _inputs(batch, reads):
    named = dict(zip(("xs", "ys", "xt", "lam"), batch))
    return tuple(named[name] for name in reads.split())


def _capture(site, model, batch):
    capture, context, reads = SITES[site]
    inputs = _inputs(batch, reads)
    tape = ad.Tape(*inputs)
    return tape, capture(tape, *context(model), *inputs)


def _terms(program):
    """A program's terms, (loss, [(slice names, parameter array, leaf
    tensor)]), from its sweeps and the items of its SGD block."""
    (*_, named), = program.blocks
    named = iter(named)
    return [(loss, [(names, arr, t) for t, (names, arr) in zip(wrt, named)])
            for loss, wrt, _ in program.sweeps]


def _sweep(tape, terms, backward=ad.backward):
    """Every record's kind and output, then every term's gradients by
    backward, as bytes."""
    out = [(rec.kind, tape.values[rec.output_id].tobytes())
           for rec in tape.records]
    for loss, pairs in terms:
        grads = backward(tape, loss, wrt=[t for _, _, t in pairs])
        out.append([(names, g.tobytes())
                    for (names, _, _), g in zip(pairs, grads)])
    return out


@pytest.mark.parametrize("site", SITES)
def test_rerun_equals_a_fresh_tape_bytewise(site):
    """The generated forward's values, and the sweeps without a store
    before and after it (lowered on the captured tape and reused after the
    rerun), against the per-record formulas on a fresh tape."""
    model = _model()
    first, second = _batch(1), _batch(2)
    tape, terms = _capture(site, model, first)
    on_first = _sweep(tape, terms)
    assert on_first == _sweep(tape, terms, reference_backward)
    tape.rerun(*_inputs(second, SITES[site][2]))
    replayed = _sweep(tape, terms)
    fresh = _sweep(*_capture(site, model, second), reference_backward)
    assert replayed == fresh
    assert replayed != on_first


@pytest.mark.parametrize("site", SITES)
def test_every_record_of_a_call_site_feeds_a_record_or_a_loss(site):
    """A call site records nothing that training never reads: each record's
    output is an input of a later record or the loss of one of its terms,
    so every rerun's work reaches some update."""
    tape, terms = _capture(site, _model(), _batch(1))
    read = {i for rec in tape.records for i in rec.input_ids}
    read.update(loss.node_id for loss, _ in terms)
    assert [(j, rec.kind) for j, rec in enumerate(tape.records)
            if rec.output_id not in read] == []


def _is_store_view(grad, sgd, names, arr):
    """grad is the view of sgd's gradient store at arr's place."""
    return (grad.__array_interface__ ==
            sgd.grad_view(names, arr).__array_interface__)


def _store_grads(tape, terms, sgd):
    """Every term's gradients, written by backward into sgd's gradient-store
    views of the parameters, as bytes. backward returns into itself, and
    each view is filled with NaN first, so every gradient is written in
    place."""
    out = []
    for loss, pairs in terms:
        into = [sgd.grad_view(names, arr) for names, arr, _ in pairs]
        for view in into:
            view.fill(np.nan)
        grads = ad.backward(tape, loss, [t for _, _, t in pairs], into=into)
        assert grads is into
        assert all(_is_store_view(g, sgd, names, arr)
                   for (names, arr, _), g in zip(pairs, grads))
        out.append([(names, g.tobytes())
                    for (names, _, _), g in zip(pairs, into)])
    return out


@pytest.mark.parametrize("site", SITES)
def test_backward_into_the_gradient_store_equals_a_fresh_tape_bytewise(site):
    """The generated sweep writes the gradients into the store in place, on
    the captured tape and after a rerun alike, with the bytes of the
    per-record formulas on a fresh tape."""
    model = _model()
    sgd = SGD(model.buffer, 0.9)
    tape, terms = _capture(site, model, _batch(1))
    n_records = len(tape.records)
    for seed in (1, 2):
        if seed == 2:
            tape.rerun(*_inputs(_batch(2), SITES[site][2]))
        assert _store_grads(tape, terms, sgd) == _sweep(
            *_capture(site, model, _batch(seed)),
            reference_backward)[n_records:]


def test_the_first_update_of_a_call_site_writes_the_store_in_place():
    """The update on the batch a site captures on runs its sweeps into the
    gradient-store views of its terms, which then hold the per-record
    formulas' gradients on a fresh tape."""
    model = _model()
    sgd = SGD(model.buffer, 0.9)
    for site in ("phase B, two modules", "step 2, two modules", "step 3"):
        capture, context, reads = SITES[site]
        program = trainer._program({}, site, sgd, capture, context(model),
                                   _inputs(_batch(1), reads))
        fresh = _sweep(*_capture(site, model, _batch(1)), reference_backward)
        trainer._update(sgd, 0.05, program)
        assert program.tape._forward is None  # captured, never re-run
        terms = _terms(program)
        for (_, _, into), (_, pairs) in zip(program.sweeps, terms):
            assert all(_is_store_view(g, sgd, names, arr)
                       for (names, arr, _), g in zip(pairs, into))
        assert [[(names, sgd.grad_view(names, arr).tobytes())
                 for names, arr, _ in pairs] for _, pairs in terms] \
            == fresh[len(program.tape.records):]


@pytest.mark.parametrize("site", SITES)
def test_a_call_site_steps_one_block_of_its_modules_and_parameters(site):
    """The block has one row per module that the site trains, each row the
    module's slices of the trained parameters, end to end, in the buffer."""
    capture, context, reads = SITES[site]
    model = _model()
    program = trainer._program({}, site, SGD(model.buffer, 0.9), capture,
                               context(model), _inputs(_batch(1), reads))
    (velocity, grads, params, items), = program.blocks
    pairs = [(names, arr) for _, term in _capture(site, model, _batch(1))[1]
             for names, arr, _ in term]
    rows = 1 if "one module" in site or "ce_only" in site else 2
    assert {len(names) for names, _ in pairs} == {rows}
    assert velocity.shape == grads.shape == params.shape == (
        rows, sum(arr.size for _, arr in pairs) // rows)
    assert params.base is model.buffer
    assert [names for names, _ in items] == [names for names, _ in pairs]
    model.buffer[...] = np.arange(model.buffer.size)  # each element its index
    for m in range(rows):
        covered = np.concatenate([(arr[m] if rows > 1 else arr).ravel()
                                  for _, arr in pairs])
        assert np.array_equal(np.sort(covered), params[m])


# the updates that training makes at these sites, with their lr
STORE_SITES = {"phase A, one module": 0.05,
               "phase B, two modules": [0.05, 0.02],
               "phase C, two modules": [0.04, 0.03],
               "step 2, two modules": 0.05,
               "step 3": 0.05}


@pytest.mark.parametrize("site", STORE_SITES)
def test_updates_from_the_gradient_store_equal_array_sgd_bytewise(site):
    """_program and _update (generated rerun, backward into the store, one
    range step) against fresh tapes and the array-by-array optimizer."""
    capture, context, reads = SITES[site]
    lr = STORE_SITES[site]
    model, ref = _model(), _model()
    sgd, array_sgd = SGD(model.buffer, 0.9), ArraySGD(0.9)
    programs = {}
    for seed in (1, 2, 3):
        inputs = _inputs(_batch(seed), reads)
        trainer._update(sgd, lr, trainer._program(
            programs, site, sgd, capture, context(model), inputs))
        tape = ad.Tape(*inputs)
        items = []
        for loss, pairs in capture(tape, *context(ref), *inputs):
            grads = reference_backward(tape, loss,
                                       wrt=[t for _, _, t in pairs])
            items += [(names, arr, g)
                      for (names, arr, _), g in zip(pairs, grads)]
        array_sgd.step(items, lr)
        assert model.buffer.tobytes() == ref.buffer.tobytes()
    assert model.buffer.tobytes() != _model().buffer.tobytes()


def test_a_divergence_from_the_gradient_store_names_the_slice():
    messages = []
    for reference in (False, True):
        model = _model()
        comps, prefixes = model.modules()
        names = tuple(f"{p}transform.0.weight" for p in prefixes)
        param = comps.transform.layers[0].weight
        sgd = ArraySGD(0.0) if reference else SGD(model.buffer, 0.0)
        grad = np.zeros_like(param) if reference else sgd.grad_view(names,
                                                                    param)
        grad[1, 2, 3] = -1e308
        with np.errstate(over="ignore"), pytest.raises(ContractError) as info:
            if reference:
                sgd.step([(names, param, grad)], [1.0, 10.0])
            else:
                sgd.step([sgd.block([(names, param)])], [1.0, 10.0])
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(
        "sgd: parameter discriminative.transform.0.weight is no longer "
        "finite after an update with lr 10;")


def _dense_ce_tape(x, labels, w, orphan):
    tape = ad.Tape(x, labels)
    wt, ot = tape.param(w), tape.param(orphan)
    loss = cross_entropy(ad.matmul(tape.leaf(x), wt), labels)
    return tape, loss, wt, ot


def test_the_generated_sweep_fills_unreached_and_repeated_gradients():
    """An unreached parameter's array is zero-filled; a tensor named twice
    gets its gradient in both arrays."""
    rng = np.random.default_rng(3)
    w, orphan = rng.standard_normal((2, 2)), np.ones((3, 2))
    (x1, y1, _, _), (x2, y2, _, _) = _batch(1), _batch(2)
    tape, loss, wt, ot = _dense_ce_tape(x1, y1, w, orphan)
    tape.rerun(x2, y2)
    into = [np.full((2, 2), np.nan), np.full((3, 2), np.nan),
            np.full((2, 2), np.nan)]
    assert ad.backward(tape, loss, [wt, ot, wt], into=into) is into
    fresh, loss2, wt2, ot2 = _dense_ce_tape(x2, y2, w, orphan)
    want, _ = reference_backward(fresh, loss2, [wt2, ot2])
    assert into[0].tobytes() == want.tobytes()
    assert into[2].tobytes() == want.tobytes()
    assert into[1].tobytes() == np.zeros((3, 2)).tobytes()


def test_backward_into_needs_one_array_per_wrt_tensor():
    tape, terms = _capture("phase C, one module", _model(), _batch(1))
    loss, pairs = terms[0]
    with pytest.raises(ContractError, match="one array per wrt tensor"):
        ad.backward(tape, loss, [t for _, _, t in pairs], into=[])


def test_a_tape_that_has_rerun_takes_no_new_record():
    xs, ys, _, _ = _batch(1)
    tape = ad.Tape(xs)
    h = ad.matmul(tape.leaf(xs), tape.param(np.ones((3, 2))))
    tape.rerun(xs)
    with pytest.raises(ContractError, match="softmax: a tape takes no new "
                                            "record once it has rerun"):
        ad.softmax(h)


@pytest.mark.parametrize("make", ["leaf", "param"])
def test_a_tape_that_has_rerun_takes_no_new_leaf_or_param(make):
    """Its generated forward would not know the new node, so the next rerun
    would fail inside the generated code."""
    xs, _, _, _ = _batch(1)
    tape = ad.Tape(xs)
    ad.matmul(tape.leaf(xs), tape.param(np.ones((3, 2))))
    tape.rerun(xs)
    with pytest.raises(ContractError, match=f"{make}: a tape takes no new "
                                            f"record once it has rerun"):
        getattr(tape, make)(np.ones((3, 2)))
    tape.rerun(xs)


@pytest.mark.parametrize("site", SITES)
def test_a_tape_lets_go_of_its_capture_batch_at_its_first_rerun(site):
    """Only capture reads the declared inputs, so after the first rerun
    nothing on the tape holds the capture batch."""
    model = _model()
    first = _batch(1)
    tape, terms = _capture(site, model, first)
    _, _, reads = SITES[site]
    refs = [weakref.ref(a) for a in _inputs(first, reads)
            if isinstance(a, np.ndarray)]
    del first
    assert all(r() is not None for r in refs)
    tape.rerun(*_inputs(_batch(2), reads))
    assert [r for r in refs if r() is not None] == []


def _forward_source(tape):
    return next(src for src, fn in ad._COMPILED.items() if fn is tape._forward)


@pytest.mark.parametrize("site", SITES)
def test_the_generated_forward_makes_no_view_of_a_parameter(site):
    """The product operand and the bias of every parameter are views made
    once, when the tape is lowered: the generated forward neither
    transposes, slices nor widens a parameter."""
    tape, _ = _capture(site, _model(), _batch(1))
    tape.rerun(*_inputs(_batch(2), SITES[site][2]))
    source = _forward_source(tape)
    assert tape.records[0].kind == "matmul" and " @ c" in source
    assert not re.search(r"v\d+(\.swapaxes\(|\[:, None\]|\.T\b|\[0\])",
                         source)


def test_a_weight_tied_to_a_step_input_is_viewed_at_each_rerun():
    """A weight that a rerun refills is not fixed: the generated forward
    makes its views from each new array."""
    rng = np.random.default_rng(8)

    def tape_on(x, w, b):
        tape = ad.Tape(x, w, b)
        out = ad.matmul(tape.leaf(x), tape.leaf(w), bias=tape.leaf(b))
        return tape, out

    def inputs():
        return (rng.standard_normal((6, 3)), rng.standard_normal((2, 4, 3)),
                rng.standard_normal((2, 4)))

    tape, out = tape_on(*inputs())
    second = inputs()
    tape.rerun(*second)
    assert out.data.tobytes() == tape_on(*second)[1].data.tobytes()
    source = _forward_source(tape)
    assert ".swapaxes(1, 2)" in source and "[:, None]" in source


@pytest.mark.parametrize("change", ["an SGD step", "load_state"])
def test_a_captured_site_sees_every_in_place_parameter_update(change):
    """The operand views made at lowering read the parameters in place: after
    an SGD step, or after load_state writes other parameters, a rerun equals
    a fresh tape at the new parameters byte for byte."""
    site = "step 2, two modules"
    capture, context, reads = SITES[site]
    model, programs = _model(), {}
    sgd = SGD(model.buffer, 0.9)
    for seed in (1, 2):  # capture, then rerun: the views are made
        program = trainer._program(programs, site, sgd, capture,
                                   context(model), _inputs(_batch(seed), reads))
    assert program.tape._forward is not None
    before = model.buffer.tobytes()
    if change == "an SGD step":
        trainer._update(sgd, 0.05, program)
    else:
        model.load_state(_model(seed=9).named_parameters())
    assert model.buffer.tobytes() != before
    inputs = _inputs(_batch(3), reads)
    assert trainer._program(programs, site, sgd, capture, context(model),
                            inputs) is program
    assert _sweep(program.tape, _terms(program)) == _sweep(
        *_capture(site, model, _batch(3)), reference_backward)


# record kind -> (its step inputs, a loss on a tape through one record of
# that kind); cross_entropy reduces a 2-D output to a value per slice
_DRAW = {
    "x": lambda rng: rng.standard_normal((4, 3)),
    "z": lambda rng: rng.standard_normal((4, 3)),
    "w": lambda rng: rng.standard_normal((2, 5, 3)),
    "wb": lambda rng: rng.standard_normal((2, 5)),
    "y": lambda rng: rng.integers(0, 3, 4),
    "y5": lambda rng: rng.integers(0, 5, 4),
    "lam": lambda rng: float(rng.uniform(0.1, 0.9)),
    "c": lambda rng: float(rng.uniform(-2, 2)),
}
KINDS = {
    "matmul": ("x w wb y5", lambda t, x, w, wb, y: ad.cross_entropy(
        ad.matmul(t.leaf(x), t.leaf(w), bias=t.leaf(wb), relu=True), y)),
    "add": ("x z y", lambda t, x, z, y: ad.cross_entropy(
        ad.add(t.leaf(x), t.leaf(z)), y)),
    "sub": ("x z y", lambda t, x, z, y: ad.cross_entropy(
        ad.sub(t.leaf(x), t.leaf(z)), y)),
    "softmax": ("x y", lambda t, x, y: ad.cross_entropy(
        ad.softmax(t.leaf(x)), y)),
    "cross_entropy": ("x y", lambda t, x, y: ad.cross_entropy(t.leaf(x), y)),
    "mean_abs_diff": ("x z", lambda t, x, z: ad.mean_abs_diff(t.leaf(x),
                                                              t.leaf(z))),
    "grad_reverse": ("x lam y", lambda t, x, lam, y: ad.cross_entropy(
        ad.grad_reverse(t.leaf(x), lam), y)),
    "scalar_mul": ("x c y", lambda t, x, c, y: ad.cross_entropy(
        ad.scalar_mul(t.leaf(x), c), y)),
    "relu": ("x y", lambda t, x, y: ad.cross_entropy(ad.relu(t.leaf(x)), y)),
    "log_softmax": ("x y", lambda t, x, y: ad.cross_entropy(
        ad.log_softmax(t.leaf(x)), y)),
    "mean": ("x", lambda t, x: ad.mean(t.leaf(x))),
    "sum": ("x", lambda t, x: ad.tensor_sum(t.leaf(x))),
    "abs": ("x y", lambda t, x, y: ad.cross_entropy(ad.tensor_abs(t.leaf(x)),
                                                    y)),
    "select_columns": ("x y", lambda t, x, y: ad.tensor_sum(
        ad.select_columns(t.leaf(x), y))),
}


def test_every_record_kind_has_a_case():
    assert set(KINDS) == set(ad._CODE_GENERATORS)


def _kind_tape(kind, inputs):
    tape = ad.Tape(*inputs)
    return tape, KINDS[kind][1](tape, *inputs)


def _forward_bytes(tape):
    """Every value and every saved array, as bytes."""
    return ([v.tobytes() for v in tape.values],
            [np.asarray(a).tobytes() for a in tape._saved])


@pytest.mark.parametrize("kind", KINDS)
def test_every_record_kind_reruns_like_a_fresh_tape(kind):
    """A tape of each kind, every argument a step input, reruns on new
    inputs with the bytes of a fresh tape on them, and its sweep equals the
    per-record backward formulas."""
    rng = np.random.default_rng(sorted(KINDS).index(kind))
    first, second = ([_DRAW[name](rng) for name in KINDS[kind][0].split()]
                     for _ in range(2))
    tape, loss = _kind_tape(kind, first)
    assert kind in [rec.kind for rec in tape.records]
    on_first = _forward_bytes(tape)
    tape.rerun(*second)
    fresh, fresh_loss = _kind_tape(kind, second)
    assert _forward_bytes(tape) == _forward_bytes(fresh) != on_first
    grads = ad.backward(tape, loss, every_node(tape))
    want = reference_backward(fresh, fresh_loss, every_node(fresh))
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]


def test_a_new_record_runs_the_code_of_its_kind_settings_and_shapes():
    """The code that a new record runs is made once per kind, static
    settings and input shapes: a record like an earlier one makes none,
    and other settings or shapes run their own, with their own values."""
    rng = np.random.default_rng(9)
    x, w = rng.standard_normal((6, 3)), rng.standard_normal((4, 3))
    tape = ad.Tape()
    xt, wt = tape.leaf(x), tape.param(w)
    ad.matmul(xt, wt, relu=True)
    count = len(ad._RECORDS)
    assert ad.matmul(xt, wt, relu=True).data.tobytes() == \
        ad.dense(x, w, relu=True).tobytes()
    assert len(ad._RECORDS) == count
    assert ad.matmul(xt, wt).data.tobytes() == \
        ad.dense(x, w).tobytes()
    for rows in (6, 2):
        idx = rng.integers(0, 3, rows)
        got = ad.select_columns(tape.leaf(x[:rows]), idx).data
        assert got.tobytes() == x[np.arange(rows), idx][:, None].tobytes()


class _Fresh(dict):
    """A program store that keeps nothing: every update captures anew."""

    def get(self, key, default=None):
        return default


def _params(model):
    return {n: a.tobytes() for n, a in model.named_parameters().items()}


@pytest.mark.parametrize("modules", [("invariant",),
                                     ("invariant", "discriminative")])
def test_step1_mcd_reruns_phase_c_k_times_like_fresh_tapes(modules):
    """Phase C re-runs its tape k - 1 times within one invocation (and k
    times on the next batch) while `before` keeps the first reading."""
    results = []
    for programs in ({}, _Fresh()):
        model = _model()
        comps, prefixes = model.modules(modules)
        sgd = SGD(model.buffer, 0.9)
        lr = [0.05, 0.04][:len(prefixes)]
        befores = [trainer.step1_mcd(
            comps, prefixes, *_batch(seed)[:3], 4, lr, sgd, programs).tobytes()
            for seed in (1, 2)]
        results.append((befores, _params(model)))
    assert results[0] == results[1]


@pytest.mark.parametrize("variant", ["source_only", "dann", "ours"])
def test_steps_2_and_3_rerun_like_fresh_tapes(variant):
    results = []
    for programs in ({}, _Fresh()):
        model = _model()
        sgd2, sgd3 = SGD(model.buffer, 0.9), SGD(model.buffer, 0.9)
        for seed in (1, 2, 3):
            xs, ys, xt, lam = _batch(seed)
            trainer.step2_modules(model, xs, ys, xt, lam, 0.05,
                                  Variant(variant), sgd2, programs)
            if variant == "ours":
                trainer.step3_dual(model, xs, xt, lam, 0.05, sgd3, programs)
        results.append(_params(model))
    assert results[0] == results[1]


# --- checks survive replay ----------------------------------------------------

def _error(fn):
    with pytest.raises(ContractError) as info:
        fn()
    return str(info.value)


# a bad lambda of each kind
BAD_LAMBDAS = {"lam": -0.25, "lam_nan": float("nan"), "lam_inf": float("inf")}


def _bad_batch(bad):
    """Batch 2 with one bad step input: a NaN in the target batch, a label
    out of range, or a negative, NaN or infinite lambda."""
    xs, ys, xt, lam = _batch(2)
    if bad == "xt":
        xt = xt.copy()
        xt[3, 1] = np.nan
    elif bad == "ys":
        ys = ys.copy()
        ys[5] = 2
    else:
        lam = BAD_LAMBDAS[bad]
    return xs, ys, xt, lam


@pytest.mark.parametrize("site,bad", [
    ("phase B, two modules", "xt"), ("phase B, two modules", "ys"),
    ("phase C, one module", "xt"), ("step 2, two modules", "xt"),
    ("step 2, two modules", "ys"), ("step 2, two modules", "lam"),
    ("step 2, one module", "lam"), ("step 3", "xt"), ("step 3", "lam"),
    ("step 2, two modules", "lam_nan"), ("step 2, one module", "lam_inf"),
    ("step 3", "lam_nan"), ("step 3", "lam_inf")])
def test_a_rerun_raises_what_a_fresh_tape_raises(site, bad):
    batch = _bad_batch(bad)
    model = _model()
    tape, _ = _capture(site, model, _batch(1))
    replayed = _error(lambda: tape.rerun(*_inputs(batch, SITES[site][2])))
    fresh = _error(lambda: _capture(site, model, batch))
    assert replayed == fresh
    assert replayed.startswith(
        {"xt": "input contains NaN or Inf",
         "ys": "cross_entropy: index out of range"}.get(
            bad, "grad_reverse: lambda must be >= 0"))


def test_a_changed_batch_shape_captures_again():
    model = _model()
    programs = {}
    context = (model.invariant, "invariant.")
    sgd = SGD(model.buffer, 0.9)
    first = trainer._program(programs, "A", sgd, trainer._capture_source,
                             context, _batch(1)[:2])
    short = _batch(2, n=B - 6)[:2]
    with pytest.raises(DimensionError, match="rerun"):
        first.tape.rerun(*short)
    again = trainer._program(programs, "A", sgd, trainer._capture_source,
                             context, short)
    assert again.tape is not first.tape
    assert _sweep(again.tape, _terms(again)) == _sweep(
        *_capture("phase A, one module", model, _batch(2, n=B - 6)))


def test_a_rerun_refuses_a_step_input_the_capture_did_not_read():
    """A declared step input that no record reads is never tied; a rerun
    would ignore it, and refuses instead."""
    xs, ys, _, _ = _batch(1)
    unread = np.zeros(3)
    tape = ad.Tape(xs, ys, unread)
    logits = ad.matmul(tape.leaf(xs), tape.param(np.ones((2, 2))))
    cross_entropy(logits, ys)
    with pytest.raises(ContractError, match="not read at capture"):
        tape.rerun(xs, ys, unread)


def test_int32_labels_declared_as_a_step_input_are_tied_and_refilled():
    """int32 labels reach the record uncopied, so a rerun on new int32
    labels refills them and gives the bytes of a fresh capture on them."""
    w, orphan = np.random.default_rng(3).standard_normal((2, 2)), np.ones((3, 2))
    (x1, y1, _, _), (x2, y2, _, _) = _batch(1), _batch(2)
    y1, y2 = y1.astype(np.int32), y2.astype(np.int32)
    tape, loss, wt, _ = _dense_ce_tape(x1, y1, w, orphan)
    assert tape.records[-1].args[0] is y1
    on_first = _sweep(tape, [(loss, [((), w, wt)])])
    tape.rerun(x2, y2)
    fresh, loss2, wt2, _ = _dense_ce_tape(x2, y2, w, orphan)
    replayed = _sweep(tape, [(loss, [((), w, wt)])])
    assert replayed == _sweep(fresh, [(loss2, [((), w, wt2)])])
    assert replayed != on_first


def test_int64_labels_reach_the_tape_uncopied():
    tape = ad.Tape()
    logits = tape.leaf(np.zeros((3, 2)))
    labels = np.array([0, 1, 1], dtype=np.int64)
    cross_entropy(logits, labels)
    assert tape.records[-1].args[0] is labels


# --- every tape is freed by reference counting ---------------------------------

@pytest.fixture
def tape_refs(monkeypatch):
    """A weak reference to every Tape made while the test runs, with the
    cyclic collector off."""
    refs = []
    init = ad.Tape.__init__

    def tracked(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(ad.Tape, "__init__", tracked)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield refs
    if enabled:
        gc.enable()


def _moons():
    source = gen_two_moons(48, 0.1, seed=1)
    return source, domain_shift(gen_two_moons(48, 0.1, seed=2), 40.0)


@pytest.mark.parametrize("variant", ["ours_2m", "mcd"])
def test_train_leaves_no_tape_for_the_cyclic_collector(tape_refs, variant):
    config = TrainConfig(variant=variant, epochs=2, batch_size=16,
                         eval_every=1, feature_dim=4, g_hidden=(6,),
                         head_hidden=(4,), schedule=Schedule(eta0=0.01))
    train(config, *_moons())
    assert tape_refs
    assert [r for r in tape_refs if r() is not None] == []


def test_train_frees_the_tapes_of_step_1_when_the_main_phase_starts(
        monkeypatch, tape_refs):
    """Step 1's call sites never run again after the warmup, so their tapes
    (and the batches and activations they hold) are gone by the first
    update of step 2."""
    step1, alive_at_step2 = [], []

    def boundary(*args, _fn=trainer.step1_mcd):
        before = _fn(*args)
        step1.extend(weakref.ref(p.tape) for p in args[-1].values())
        return before

    def modules(*args, _fn=trainer.step2_modules):
        alive_at_step2.append(sum(r() is not None for r in step1))
        return _fn(*args)

    monkeypatch.setattr(trainer, "step1_mcd", boundary)
    monkeypatch.setattr(trainer, "step2_modules", modules)
    config = TrainConfig(variant="ours_2m", epochs=2, batch_size=16,
                         eval_every=1, feature_dim=4, g_hidden=(6,),
                         head_hidden=(4,), schedule=Schedule(eta0=0.01))
    train(config, *_moons())
    assert step1 and alive_at_step2[0] == 0


def test_a_second_train_compiles_no_new_source(monkeypatch):
    """Generated code is kept per tape structure for the whole process, and
    the source names no parameter, so a second run lowers no forward or
    sweep and reuses every function."""
    config = TrainConfig(variant="ours_2m", epochs=2, batch_size=16,
                         eval_every=2, feature_dim=4, g_hidden=(6,),
                         head_hidden=(4,), schedule=Schedule(eta0=0.01))
    train(config, *_moons())
    compiled = dict(ad._COMPILED)
    assert compiled
    lowered = []
    for name in ("_lower_forward", "_lower_backward"):
        monkeypatch.setattr(ad, name, lambda *args, _fn=getattr(ad, name):
                            lowered.append(_fn.__name__) or _fn(*args))
    train(config, *_moons())
    assert lowered == []
    assert ad._COMPILED == compiled
    assert not any("invariant" in source or "weight" in source
                   for source in compiled)


def test_compute_metrics_constructs_no_tape(tape_refs):
    compute_metrics(_model(), *_moons(), epoch=1)
    assert tape_refs == []
