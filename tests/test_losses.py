import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualda.autodiff as ad
from dualda.errors import ContractError, DimensionError
from dualda.losses import cross_entropy, discrepancy, dual_loss, module_loss
from dualda.model import DualModel
from dualda.nn import BoundComponents, build_component_set

from oracles import (cross_entropy_direct, discrepancy_brute_force,
                     dual_loss_composition, module_loss_composition)

LN2 = 0.6931471805599453


def ce_value(logits, labels):
    tape = ad.Tape()
    return float(cross_entropy(tape.leaf(logits), labels).data[0])


def dis_value(p1, p2):
    tape = ad.Tape()
    return float(discrepancy(tape.leaf(p1), tape.leaf(p2)).data[0])


def test_cross_entropy_uniform_logits():
    assert ce_value([[0.0, 0.0]], [0]) == pytest.approx(LN2, abs=1e-12)


def test_cross_entropy_saturated_correct():
    assert ce_value([[1000.0, 0.0]], [0]) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_matches_direct_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows, cols = rng.integers(1, 6), rng.integers(2, 6)
        logits = rng.uniform(-4, 4, (rows, cols))
        labels = rng.integers(0, cols, size=rows)
        assert ce_value(logits, labels) == pytest.approx(
            cross_entropy_direct(logits, labels), abs=1e-10)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ContractError):
        ce_value([[0.0, 0.0]], [2])


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(100):
        logits = rng.uniform(-50, 50, (3, 4))
        assert ce_value(logits, rng.integers(0, 4, size=3)) >= 0.0


def test_discrepancy_identical_is_zero():
    p = np.array([[0.3, 0.7], [0.5, 0.5]])
    assert dis_value(p, p) == 0.0


def test_discrepancy_hand_computed():
    assert dis_value([[0.6, 0.4]], [[0.2, 0.8]]) == pytest.approx(0.4, abs=1e-12)


def test_discrepancy_disjoint_one_hots_is_max():
    assert dis_value([[1.0, 0.0]], [[0.0, 1.0]]) == pytest.approx(1.0, abs=1e-12)


def test_discrepancy_shape_mismatch():
    with pytest.raises(DimensionError):
        dis_value(np.ones((2, 3)) / 3, np.ones((2, 2)) / 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(2, 6), st.integers(0, 2**31))
def test_discrepancy_symmetry_bounds_and_zero_iff_equal(rows, cols, seed):
    rng = np.random.default_rng(seed)
    p1 = rng.dirichlet(np.ones(cols), size=rows)
    p2 = rng.dirichlet(np.ones(cols), size=rows)
    d12, d21 = dis_value(p1, p2), dis_value(p2, p1)
    assert d12 == d21
    assert 0.0 <= d12 <= 1.0
    if not np.array_equal(p1, p2):
        assert d12 > 0.0


def test_discrepancy_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        rows, cols = rng.integers(1, 7), rng.integers(2, 8)
        p1 = rng.dirichlet(np.ones(cols), size=rows)
        p2 = rng.dirichlet(np.ones(cols), size=rows)
        assert dis_value(p1, p2) == pytest.approx(
            discrepancy_brute_force(p1, p2), abs=1e-10)


# --- per-module losses --------------------------------------------------------


def _batch(rng, n=5, dim=2, classes=2):
    return (rng.uniform(-2, 2, (n, dim)), rng.integers(0, classes, size=n),
            rng.uniform(-2, 2, (n, dim)))


def module_total(comps, xs, ys, xt, lam):
    """module_loss's total on a fresh tape."""
    tape = ad.Tape()
    b = BoundComponents(tape, comps)
    return module_loss(b, b.features(tape.leaf(xs)), ys,
                       b.features(tape.leaf(xt)), lam).total


def dual_total(c1, c2, xs, xt, lam):
    """dual_loss's two terms, summed, on a fresh tape."""
    tape = ad.Tape()
    b = BoundComponents(tape, *DualModel(c1, c2).modules())
    parts = dual_loss(b, b.features(tape.leaf(xs)), b.features(tape.leaf(xt)),
                      lam)
    return parts.reversed_feature_dis + parts.prediction_dis


def test_module_loss_matches_composition_oracle():
    rng = np.random.default_rng(3)
    for trial in range(10):
        comps = build_component_set(2, 4, 2, seed=trial, g_hidden=(5,),
                                    head_hidden=(4,))
        xs, ys, xt = _batch(rng)
        cls_ce, dom_ce = module_loss_composition(comps, xs, ys, xt)
        for lam in (0.0, 0.7, None):
            got = module_total(comps, xs, ys, xt, lam)
            assert float(got.data[0]) == pytest.approx(cls_ce + dom_ce, abs=1e-10)


def test_domain_ce_terms_are_ln2_at_zero_discriminator():
    rng = np.random.default_rng(4)
    comps = build_component_set(2, 4, 2, seed=0)
    for layer in comps.discriminator.layers:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    xs, ys, _ = _batch(rng)
    tape = ad.Tape()
    b = BoundComponents(tape, comps)
    parts = module_loss(b, b.features(tape.leaf(xs)), ys,
                        b.features(tape.leaf(xs.copy())), 0.0)
    assert float(parts.domain_ce.data[0]) == pytest.approx(2 * LN2, abs=1e-12)


def test_lambda_zero_matches_classifier_only_gradient():
    """With lambda=0 the reversal layer blocks the domain gradient, so the
    extractor's gradient equals the classifier-terms-only gradient."""
    rng = np.random.default_rng(5)
    comps = build_component_set(2, 4, 2, seed=9)
    xs, ys, xt = _batch(rng)

    tape = ad.Tape()
    b = BoundComponents(tape, comps)
    parts = module_loss(b, b.features(tape.leaf(xs)), ys,
                        b.features(tape.leaf(xt)), 0.0)
    full = ad.backward(tape, parts.total, [
        t for _, _, t in b.named_pairs(("extractor", "transform"))])

    tape2 = ad.Tape()
    b2 = BoundComponents(tape2, comps)
    parts2 = module_loss(b2, b2.features(tape2.leaf(xs)), ys,
                         b2.features(tape2.leaf(xt)), 0.0)
    cls_only = ad.backward(tape2, parts2.classifier_ce, [
        t for _, _, t in b2.named_pairs(("extractor", "transform"))])

    assert len(full) == len(cls_only)
    for got, want in zip(full, cls_only):
        assert np.array_equal(got, want)


def test_no_reversal_gives_nonzero_domain_gradient_into_extractor():
    rng = np.random.default_rng(6)
    comps = build_component_set(2, 4, 2, seed=11)
    xs, ys, xt = _batch(rng)
    tape = ad.Tape()
    b = BoundComponents(tape, comps)
    parts = module_loss(b, b.features(tape.leaf(xs)), ys,
                        b.features(tape.leaf(xt)), None)
    grads = ad.backward(tape, parts.domain_ce,
                        [t for _, _, t in b.named_pairs(("extractor",))])
    assert any(np.abs(g).max() > 0 for g in grads)


def test_classifier_terms_equal_across_module_losses():
    rng = np.random.default_rng(7)
    comps = build_component_set(2, 4, 2, seed=13)
    xs, ys, xt = _batch(rng)
    tape = ad.Tape()
    b = BoundComponents(tape, comps)
    t_s, t_t = b.features(tape.leaf(xs)), b.features(tape.leaf(xt))
    parts_rev = module_loss(b, t_s, ys, t_t, 0.0)
    parts_plain = module_loss(b, t_s, ys, t_t, None)
    assert float(parts_rev.classifier_ce.data[0]) == \
        float(parts_plain.classifier_ce.data[0])


def test_module_loss_empty_batch_rejected():
    comps = build_component_set(2, 4, 2, seed=0)
    with pytest.raises(ContractError):
        module_total(comps, np.empty((0, 2)), np.empty(0, dtype=int),
                     np.ones((1, 2)), 0.5)


# --- dual loss -----------------------------------------------------------------


def test_dual_loss_zero_for_identical_modules():
    rng = np.random.default_rng(8)
    c1 = build_component_set(2, 4, 2, seed=3)
    c2 = build_component_set(2, 4, 2, seed=3)
    xs, _, xt = _batch(rng)
    tape = ad.Tape()
    b = BoundComponents(tape, *DualModel(c1, c2).modules())
    parts = dual_loss(b, b.features(tape.leaf(xs)), b.features(tape.leaf(xt)),
                      0.5)
    total = parts.reversed_feature_dis + parts.prediction_dis
    assert float(total.data[0]) == 0.0
    pairs = list(b.named_pairs())
    grads = ad.backward(tape, total, [t for _, _, t in pairs])
    for (name, _, _), grad in zip(pairs, grads):
        assert np.all(grad == 0.0), name


def test_dual_loss_matches_composition_oracle():
    rng = np.random.default_rng(9)
    for trial in range(10):
        c1 = build_component_set(2, 4, 3, seed=trial)
        c2 = build_component_set(2, 4, 3, seed=trial + 100)
        xs, _, xt = _batch(rng, classes=3)
        feature_dis, prediction_dis = dual_loss_composition(c1, c2, xs, xt)
        got = dual_total(c1, c2, xs, xt, 0.9)
        assert float(got.data[0]) == pytest.approx(
            feature_dis + prediction_dis, abs=1e-10)


def test_dual_loss_feature_term_sign_flips_with_reversal():
    """Transform-layer parameters feed only the feature-discrepancy term
    when the primary classifiers are detached; with the reversal their
    gradient is the exact negative (scaled) of the unreversed graph."""
    rng = np.random.default_rng(10)
    c1 = build_component_set(2, 4, 2, seed=21)
    c2 = build_component_set(2, 4, 2, seed=22)
    xs, _, xt = _batch(rng)
    lam = 0.8

    def transform_grads(wrap):
        tape = ad.Tape()
        b1 = BoundComponents(tape, c1)
        b2 = BoundComponents(tape, c2)
        t1s = b1.features(tape.leaf(xs))
        t1t = b1.features(tape.leaf(xt))
        t2s = b2.features(tape.leaf(xs))
        t2t = b2.features(tape.leaf(xt))
        dis = ad.add(discrepancy(ad.softmax(t1s), ad.softmax(t2s)),
                     discrepancy(ad.softmax(t1t), ad.softmax(t2t)))
        loss = ad.grad_reverse(dis, lam) if wrap else dis
        pairs = list(b1.named_pairs(("transform",)))
        grads = ad.backward(tape, loss, [t for _, _, t in pairs])
        return {name: g for (name, _, _), g in zip(pairs, grads)}

    reversed_grads = transform_grads(True)
    plain_grads = transform_grads(False)
    for name in reversed_grads:
        assert np.allclose(reversed_grads[name], -lam * plain_grads[name],
                           atol=1e-15)
        assert np.abs(plain_grads[name]).max() > 0


def test_dual_loss_empty_batch_rejected():
    c1 = build_component_set(2, 4, 2, seed=0)
    c2 = build_component_set(2, 4, 2, seed=1)
    with pytest.raises(ContractError):
        dual_total(c1, c2, np.empty((0, 2)), np.ones((2, 2)), 0.5)
