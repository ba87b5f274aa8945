"""Generated code is kept per tape structure: a tape whose records and
values look like an earlier tape's, to every code generator, runs the
forward and sweeps lowered for that tape, on consts of its own. A tape that
differs in anything a generator reads gets code of its own, and every tape
reruns and sweeps with the bytes of a fresh tape."""

import numpy as np
import pytest

import dualda.autodiff as ad
import dualda.trainer as trainer
from dualda.model import DualModel

from oracles import reference_backward

W = np.random.default_rng(0).standard_normal((4, 3))


def _data(seed, rows=6):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, 3)), rng.integers(0, 4, rows),
            float(rng.uniform(0.1, 0.9)))


# Each case makes one of a pair of tapes (variant 0 or 1) on the data of a
# seed, and returns the tape, its loss, the wrt tensors and its step inputs.
# The two variants differ in one thing that a code generator reads.

def _shape(variant, seed):
    x, labels, _ = _data(seed, rows=6 - variant)
    tape = ad.Tape(x, labels)
    w = tape.param(W)
    return tape, ad.cross_entropy(ad.matmul(tape.leaf(x), w), labels), [w], \
        (x, labels)


def _static(variant, seed):
    x, labels, _ = _data(seed)
    tape = ad.Tape(x, labels)
    w = tape.param(W)
    z = ad.matmul(tape.leaf(x), w, relu=bool(variant))
    return tape, ad.cross_entropy(z, labels), [w], (x, labels)


def _reversal_weights(variant, seed):
    """One lambda, or one weight per slice of two (the second None)."""
    x, labels, lam = _data(seed)
    tape = ad.Tape(x, labels, lam)
    w = tape.param(W)
    z = ad.grad_reverse(ad.matmul(tape.leaf(x), w), [lam, None][:1 + variant])
    return tape, ad.cross_entropy(z, labels), [w], (x, labels, lam)


def _tied_weight(variant, seed):
    """A weight leaf tied to a step input, or a fixed one."""
    x, labels, _ = _data(seed)
    w = W + seed
    inputs = (x, labels, w) if variant == 0 else (x, labels)
    tape = ad.Tape(*inputs)
    wt = tape.leaf(w if variant == 0 else W)
    loss = ad.cross_entropy(ad.matmul(tape.leaf(x), wt), labels)
    return tape, loss, [wt], inputs


def _shared_check(variant, seed):
    """Two records read one label input through one check object, or
    through one each."""
    x, labels, _ = _data(seed)
    tape = ad.Tape(x, labels)
    w = tape.param(W)
    z = ad.matmul(tape.leaf(x), w)
    first = ad.cross_entropy(z, labels)
    if variant:
        ad._label_check.cache_clear()
    loss = ad.add(first, ad.cross_entropy(z, labels))
    checks = [check for *_, check, _ in tape._refills[1:]]
    assert (checks[0] is checks[1]) == (variant == 0)
    return tape, loss, [w], (x, labels)


CASES = {"a value's shape": _shape, "a record's static": _static,
         "the number of reversal weights": _reversal_weights,
         "a tied or a fixed leaf": _tied_weight,
         "one check for two refills, or two": _shared_check}


def _code(tape, loss, wrt, inputs):
    """The tape's forward and its sweep from loss to wrt, after a rerun on
    inputs: one function object per generated source (ad._COMPILED), so
    two are equal when their sources are."""
    tape.rerun(*inputs)
    ad.backward(tape, loss, wrt)
    return tape._forward, tape._sweeps[(loss.node_id,
                                        tuple(t.node_id for t in wrt))]


@pytest.mark.parametrize("case", CASES)
def test_tapes_that_differ_in_what_a_generator_reads_get_their_own_code(
        case, monkeypatch):
    """The second tape of each pair is lowered while the first one's code
    is cached: each gets the code that lowering it alone makes, the two
    differ, and each reruns and sweeps like a fresh tape."""
    make = CASES[case]
    got = []
    for variant in (0, 1):
        tape, loss, wrt, _ = make(variant, 1)
        fresh, fresh_loss, fresh_wrt, inputs = make(variant, 2)
        code = _code(tape, loss, wrt, inputs)
        assert [v.tobytes() for v in tape.values] == \
            [v.tobytes() for v in fresh.values]
        assert [g.tobytes() for g in ad.backward(tape, loss, wrt)] == \
            [g.tobytes() for g in reference_backward(fresh, fresh_loss,
                                                     fresh_wrt)]
        with monkeypatch.context() as m:
            m.setattr(ad, "_FORWARDS", {})
            m.setattr(ad, "_SWEEPS", {})
            alone = _code(*make(variant, 1)[:3], inputs)
        assert code == alone
        got.append(code)
    assert got[0] != got[1]


def _model(seed):
    return DualModel.build(2, 5, 2, seed=seed, g_hidden=(7,), head_hidden=(4,))


def _inputs(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 2, (16, 2)), rng.uniform(-2, 2, (16, 2)), 0.5


def _step3(model, inputs):
    """A step-3 tape of model on inputs, with every term's sweep run."""
    tape = ad.Tape(*inputs)
    terms = trainer._capture_dual(tape, model, *inputs)
    for loss, pairs in terms:
        ad.backward(tape, loss, [t for _, _, t in pairs])
    return tape, terms


def _values(tape):
    return [v.tobytes() for v in tape.values]


def test_tapes_of_one_structure_share_their_code_not_their_consts():
    """Two models' step-3 tapes run one forward and the same sweeps, each
    on views of its own model's parameters: stepping one model leaves the
    other tape's reruns unchanged, and its own equal a fresh tape's."""
    models = [_model(4), _model(5)]
    tapes = [_step3(model, _inputs(1)) for model in models]
    for tape, terms in tapes:
        tape.rerun(*_inputs(2))
        for loss, pairs in terms:
            ad.backward(tape, loss, [t for _, _, t in pairs])
    (a, _), (b, _) = tapes
    assert a._forward is b._forward and a._sweeps == b._sweeps
    for tape, mine, other in ((a, *models), (b, *models[::-1])):
        views = [c for c in tape._consts if isinstance(c, np.ndarray)]
        assert views and all(np.shares_memory(v, mine.buffer) and
                             not np.shares_memory(v, other.buffer)
                             for v in views)
    b.rerun(*_inputs(3))
    before = _values(b)
    models[0].buffer += 0.25
    b.rerun(*_inputs(3))
    assert _values(b) == before
    a.rerun(*_inputs(3))
    assert _values(a) == _values(_step3(models[0], _inputs(3))[0])


def test_a_value_added_after_a_backward_is_seen_by_the_next():
    """A sweep unpacks every value of its tape: a leaf added after a
    backward makes the next backward find a sweep of the new structure."""
    tape = ad.Tape()
    x, w = tape.leaf(_data(1)[0]), tape.param(W)
    loss = ad.tensor_sum(ad.matmul(x, w))
    first = ad.backward(tape, loss, [w])
    tape.leaf(np.ones(5))
    assert [g.tobytes() for g in ad.backward(tape, loss, [w])] == \
        [g.tobytes() for g in first]
