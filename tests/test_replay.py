"""Replay: a call site's tape, captured on one batch and re-run on the next,
must equal a fresh tape on that batch byte for byte, keep every per-batch
check, and be freed by reference counting like every other tape."""

import gc
import weakref

import numpy as np
import pytest

import dualda.autodiff as ad
import dualda.trainer as trainer
from dualda.data import domain_shift, gen_two_moons
from dualda.errors import ContractError, DimensionError
from dualda.losses import cross_entropy
from dualda.model import DualModel, Variant
from dualda.optim import SGD, Schedule
from dualda.trainer import TrainConfig, compute_metrics, train

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


def _sweep(tape, terms):
    """Every record's kind, output and relu input, then every term's
    gradients, as bytes."""
    out = [(rec.kind, tape.values[rec.output_id].tobytes(),
            None if rec.relu_in is None else rec.relu_in.tobytes())
           for rec in tape.records]
    for loss, pairs in terms:
        grads = ad.backward(tape, loss, wrt=[t for _, _, t in pairs])
        out.append([(names, grads[t.node_id].tobytes())
                    for names, _, t in pairs])
    return out


@pytest.mark.parametrize("site", SITES)
def test_rerun_equals_a_fresh_tape_bytewise(site):
    model = _model()
    first, second = _batch(1), _batch(2)
    tape, terms = _capture(site, model, first)
    on_first = _sweep(tape, terms)  # caches the backward plans
    tape.rerun(*_inputs(second, SITES[site][2]))
    replayed = _sweep(tape, terms)
    fresh = _sweep(*_capture(site, model, second))
    assert replayed == fresh
    assert replayed != on_first


class _Fresh(dict):
    """A program store that keeps nothing: every update captures anew."""

    def get(self, key, default=None):
        return default


def _params(model):
    return {n: a.tobytes() for n, a in model.named_parameters().items()}


@pytest.mark.parametrize("modules", [("invariant",),
                                     ("invariant", "discriminative")])
def test_boundary_updates_rerun_phase_c_k_times_like_fresh_tapes(modules):
    """Phase C re-runs its tape k - 1 times within one invocation (and k
    times on the next batch) while `before` keeps the first reading."""
    results = []
    for programs in ({}, _Fresh()):
        model = _model()
        comps, prefixes = model.modules(modules)
        sgd = SGD(0.9)
        lr = [0.05, 0.04][:len(prefixes)]
        befores = [trainer._boundary_updates(
            comps, prefixes, *_batch(seed)[:3], 4, lr, sgd, programs).tobytes()
            for seed in (1, 2)]
        results.append((befores, _params(model)))
    assert results[0] == results[1]


@pytest.mark.parametrize("variant", ["source_only", "dann", "ours"])
def test_steps_2_and_3_rerun_like_fresh_tapes(variant):
    results = []
    for programs in ({}, _Fresh()):
        model = _model()
        sgd2, sgd3 = SGD(0.9), SGD(0.9)
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


def _bad_batch(bad):
    """Batch 2 with one bad step input: a NaN in the target batch, a label
    out of range, or a negative lambda."""
    xs, ys, xt, lam = _batch(2)
    if bad == "xt":
        xt = xt.copy()
        xt[3, 1] = np.nan
    elif bad == "ys":
        ys = ys.copy()
        ys[5] = 2
    else:
        lam = -0.25
    return xs, ys, xt, lam


@pytest.mark.parametrize("site,bad", [
    ("phase B, two modules", "xt"), ("phase B, two modules", "ys"),
    ("phase C, one module", "xt"), ("step 2, two modules", "xt"),
    ("step 2, two modules", "ys"), ("step 2, two modules", "lam"),
    ("step 2, one module", "lam"), ("step 3", "xt"), ("step 3", "lam")])
def test_a_rerun_raises_what_a_fresh_tape_raises(site, bad):
    batch = _bad_batch(bad)
    model = _model()
    tape, _ = _capture(site, model, _batch(1))
    replayed = _error(lambda: tape.rerun(*_inputs(batch, SITES[site][2])))
    fresh = _error(lambda: _capture(site, model, batch))
    assert replayed == fresh
    assert replayed.startswith({"xt": "input contains NaN or Inf",
                                "ys": "cross_entropy: index out of range",
                                "lam": "grad_reverse: lambda must be >= 0"}[bad])


def test_a_changed_batch_shape_captures_again():
    model = _model()
    programs = {}
    context = (model.invariant, "invariant.")
    first = trainer._program(programs, "A", trainer._capture_source, context,
                             _batch(1)[:2])
    short = _batch(2, n=B - 6)[:2]
    with pytest.raises(DimensionError, match="rerun"):
        first[0].rerun(*short)
    again = trainer._program(programs, "A", trainer._capture_source, context,
                             short)
    assert again[0] is not first[0]
    assert _sweep(*again) == _sweep(*_capture("phase A, one module", model,
                                              _batch(2, n=B - 6)))


def test_a_rerun_refuses_a_step_input_the_capture_did_not_read():
    """int32 labels are copied to int64 on the way in, so the tape never
    ties them; a rerun would train on stale labels and refuses instead."""
    xs, ys, _, _ = _batch(1)
    ys32 = ys.astype(np.int32)
    tape = ad.Tape(xs, ys32)
    logits = ad.matmul(tape.leaf(xs), tape.param(np.ones((2, 2))),
                       transpose_b=True)
    cross_entropy(logits, ys32)
    with pytest.raises(ContractError, match="not read at capture"):
        tape.rerun(xs, ys32)


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


def test_compute_metrics_constructs_no_tape(tape_refs):
    compute_metrics(_model(), *_moons(), epoch=1)
    assert tape_refs == []
