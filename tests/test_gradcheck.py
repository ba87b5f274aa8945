"""The check-grad suite's own contracts: its finite differences on strided
parameters, its failure on a broken reversal, and its sites against the
graphs that training captures."""

import numpy as np
import pytest

import dualda.autodiff as ad
import dualda.trainer as trainer
from dualda import gradcheck
from dualda.data import domain_shift, gen_two_moons
from dualda.model import DualModel, Variant
from dualda.trainer import TrainConfig

from oracles import fd_gradient


@pytest.mark.parametrize("diff", [gradcheck.central_diff, fd_gradient],
                         ids=["central_diff", "fd_gradient"])
def test_finite_differences_perturb_a_strided_array_in_place(diff):
    """A stacked parameter is a strided view of the model's buffer, whose
    reshape is a copy: perturbing that copy would read a derivative of 0."""
    w = DualModel.build(2, 3, 2, 0, g_hidden=(4,),
                        head_hidden=()).stacked.transform.layers[0].weight
    assert not w.flags.c_contiguous
    keep = w.copy()
    numeric = diff(lambda: float(np.sum(w ** 2)), w, 5)
    assert numeric == pytest.approx(2.0 * w[np.unravel_index(5, w.shape)],
                                    rel=1e-6)
    assert w.tobytes() == keep.tobytes()


def test_a_sign_flipped_reversal_fails_exactly_the_reversing_sites(
        monkeypatch):
    forward, backward = ad._CODE_GENERATORS["grad_reverse"]

    def flipped(*args):
        lines, grads = backward(*args)
        return lines, [(f"-({expr})", False) for expr, _ in grads]

    monkeypatch.setitem(ad._CODE_GENERATORS, "grad_reverse",
                        (forward, flipped))
    monkeypatch.setattr(ad, "_FORWARDS", {})
    monkeypatch.setattr(ad, "_SWEEPS", {})
    errors = {site: gradcheck.check_site(site, 2) for site in gradcheck.SITES}
    assert {site for site, err in errors.items() if err > gradcheck.TOL} == \
        {"step 2 invariant", "step 2 both", "step 3"}, errors


def _graph(model, capture, context, n_inputs):
    """What a call site's graph is made of: its capture function; its
    context, with the model and each module set named and each name prefix
    a tuple; and the number of its step inputs (one more with lambda)."""
    names = {id(model): "model", id(model.stacked): "both",
             id(model.invariant): "invariant",
             id(model.discriminative): "discriminative"}
    return (capture, tuple(names.get(id(c), (c,) if isinstance(c, str) else c)
                           for c in context), n_inputs)


def test_the_sites_are_the_graphs_that_train_captures(monkeypatch):
    """Each variant's call sites, as train captures them, are sites of
    check-grad, and each site is captured by some variant."""
    models, graphs = [], set()
    initial_model, program = trainer.initial_model, trainer._program

    def spy_model(*args):
        models.append(initial_model(*args))
        return models[-1]

    def spy_program(programs, site, sgd, capture, context, inputs):
        graphs.add(_graph(models[-1], capture, context, len(inputs)))
        return program(programs, site, sgd, capture, context, inputs)

    monkeypatch.setattr(trainer, "initial_model", spy_model)
    monkeypatch.setattr(trainer, "_program", spy_program)
    source = gen_two_moons(32, 0.1, 0)
    target = domain_shift(gen_two_moons(32, 0.1, 1), 30.0)
    seen = set()
    for variant in Variant:
        graphs.clear()
        trainer.train(TrainConfig(variant, epochs=2, batch_size=16,
                                  feature_dim=3, g_hidden=(4,),
                                  head_hidden=()), source, target)
        sites = {_graph(models[-1], site.capture, site.context(models[-1]),
                        len(site.inputs.split()))
                 for site in gradcheck.SITES.values()}
        assert graphs and graphs <= sites, (variant, graphs - sites)
        seen |= graphs
    assert seen == sites
