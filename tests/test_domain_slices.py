"""Step 3 runs the source and target batches as slices of one graph. Its
losses and both sweeps' gradients keep the bytes of the graph that ran one
domain at a time (oracles.step3_per_domain), on capture and on a rerun:
each (module, domain) slice still makes its own products.

Run this file under OPENBLAS_CORETYPE=Haswell too: the batched products
must make the same GEMMs under every BLAS kernel."""

import numpy as np
import pytest

import dualda.autodiff as ad
import dualda.trainer as trainer
from dualda.model import DualModel

from oracles import step3_per_domain

# (input width, feature_dim, classes, rows per batch, g_hidden, head_hidden)
SHAPES = {
    "moons 16 x 2": (2, 32, 2, 16, (64,), (16,)),
    "blobs 64 x 2, 3 classes": (2, 32, 3, 64, (64,), (16,)),
    "odd 7 rows": (3, 5, 2, 7, (6,), (4,)),
    # classifier_a's softmax: one domain's 2 x 12 rows of 2 classes lie
    # below row_max's 16 * 2 rows, where it reduces row by row; both
    # domains' 48 rows lie above, where it takes the columns
    "row_max threshold": (2, 4, 2, 12, (8,), (3,)),
}


def _model(shape, seed):
    width, feature_dim, classes, _, g_hidden, head_hidden = SHAPES[shape]
    return DualModel.build(width, feature_dim, classes, seed=seed,
                           g_hidden=g_hidden, head_hidden=head_hidden)


def _inputs(shape, rng):
    width, rows = SHAPES[shape][0], SHAPES[shape][3]
    return (rng.uniform(-2, 2, (rows, width)),
            rng.uniform(-2, 2, (rows, width)), float(rng.uniform(0.1, 1.0)))


def _bytes(terms):
    return [(loss.tobytes(), [g.tobytes() for g in grads])
            for loss, grads in terms]


@pytest.mark.parametrize("shape", SHAPES)
def test_step3_equals_the_per_domain_graph_bytewise(shape):
    """Both loss values and both sweeps' gradients, on the capture batch
    and on two reruns, equal the per-domain graph's bytes."""
    rng = np.random.default_rng(sorted(SHAPES).index(shape))
    for seed in range(3):
        model = _model(shape, seed)
        first = _inputs(shape, rng)
        tape = ad.Tape(*first)
        terms = trainer._capture_dual(tape, model, *first)
        for i in range(3):
            inputs = first if i == 0 else _inputs(shape, rng)
            if i:
                tape.rerun(*inputs)
            got = [(loss.data, ad.backward(tape, loss,
                                           [t for *_, t in pairs]))
                   for loss, pairs in terms]
            assert _bytes(got) == _bytes(step3_per_domain(model, *inputs))


def test_step3_records_each_layer_once_for_both_domains():
    """21 records when each domain ran on its own: now every layer, softmax
    and discrepancy of step 3 is one record for both domains."""
    model = DualModel.build(2, 32, 2, seed=0)
    inputs = _inputs("moons 16 x 2", np.random.default_rng(0))
    tape = ad.Tape(*inputs)
    trainer._capture_dual(tape, model, *inputs)
    assert len(tape.records) <= 12
    assert [r.kind for r in tape.records].count("mean_abs_diff") == 2


def test_dense_of_domain_slices_equals_the_records():
    """ad.dense on M x D row slices makes the numpy calls of a record whose
    input holds them, and on one domain's batch the rows of that domain in
    a record that reads every domain's batch."""
    rng = np.random.default_rng(4)
    w1, b1 = rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 5))
    w2, b2 = rng.standard_normal((2, 4, 5)), rng.standard_normal((2, 4))
    xs = [rng.standard_normal((6, 3)) for _ in range(3)]
    tape = ad.Tape()
    leaves = [tape.leaf(x) for x in xs]
    h = ad.matmul(leaves[0], tape.param(w1), tape.param(b1), relu=True,
                  rest=leaves[1:])
    out = ad.matmul(h, tape.param(w2), tape.param(b2))
    assert h.slices == out.slices == 6
    rows = h.data.reshape(2, 3, 6, 5)
    for d, x in enumerate(xs):
        want = ad.dense(x, w1, b1, relu=True).reshape(2, 6, 5)
        assert rows[:, d].tobytes() == want.tobytes()
    assert out.data.tobytes() == ad.dense(h.data, w2, b2, slices=6).tobytes()
