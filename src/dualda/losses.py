"""Scalar training objectives.

Every loss scores transform-layer outputs: the caller runs each module's
extractor and transform layer once per domain (``BoundComponents.features``)
and hands the results to whichever losses read them, so one forward pass
serves every term on a tape.

The discrepancy between two probability rows p, q is mean_k |p_k - q_k|;
over a batch it is averaged again, i.e. sum|p - q| / (rows * cols). The
per-module losses add the two classifiers' cross-entropy on source to one
discriminator cross-entropy term per domain (labels: source=0, target=1);
the invariant module routes the discriminator input through grad_reverse,
the discriminative module does not. The cross-module loss plays
feature-distribution discrepancy (maximized via grad_reverse) against
prediction discrepancy (minimized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError
from .nn import BoundComponents


def cross_entropy(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean over the batch of -log_softmax(logits)[label]."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise DimensionError(
            f"cross_entropy: logits must be 2-D, got {list(logits.shape)}")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ContractError(
            f"cross_entropy: need one label per row, got {labels.shape} "
            f"for {logits.shape[0]} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ContractError(
            f"cross_entropy: labels must lie in [0, {logits.shape[1]})")
    picked = ad.select_columns(ad.log_softmax(logits), labels.astype(np.int64))
    return ad.scalar_mul(ad.mean(picked), -1.0)


def discrepancy(p1: ad.Tensor, p2: ad.Tensor) -> ad.Tensor:
    """Mean absolute difference between two batches of probability rows."""
    if p1.shape != p2.shape:
        raise DimensionError(
            f"discrepancy: shapes {list(p1.shape)} and {list(p2.shape)} differ")
    if p1.data.ndim != 2:
        raise DimensionError(
            f"discrepancy: expected 2-D probability rows, got {list(p1.shape)}")
    total = ad.tensor_sum(ad.tensor_abs(ad.sub(p1, p2)))
    return ad.scalar_mul(total, 1.0 / p1.size)


def classifier_discrepancy(binding: BoundComponents, t: ad.Tensor) -> ad.Tensor:
    """Discrepancy of one module's classifier pair on transform outputs t."""
    return discrepancy(ad.softmax(binding.classifier_a.forward(t)),
                       ad.softmax(binding.classifier_b.forward(t)))


def _check_batches(t_s: ad.Tensor, t_t: ad.Tensor) -> None:
    if t_s.shape[0] == 0 or t_t.shape[0] == 0:
        raise ContractError("loss: empty batch")


@dataclass
class ModuleLossParts:
    """Graph nodes of one module's step-2 objective."""

    total: ad.Tensor
    classifier_ce: ad.Tensor
    domain_ce: ad.Tensor          # domain_ce_source + domain_ce_target
    domain_ce_source: ad.Tensor
    domain_ce_target: ad.Tensor


def module_loss(binding: BoundComponents, t_s: ad.Tensor, labels_s,
                t_t: ad.Tensor, lam: float | None) -> ModuleLossParts:
    """Classifier CE on source plus one domain-CE term per domain.

    lam is the gradient-reversal weight; None disables reversal entirely
    (the discriminative module's variant, where the domain gradient trains
    the extractor to separate domains).
    """
    _check_batches(t_s, t_t)
    classifier_ce = classifier_only_loss(binding, t_s, labels_s)

    d_in_s, d_in_t = t_s, t_t
    if lam is not None:
        d_in_s = ad.grad_reverse(t_s, lam)
        d_in_t = ad.grad_reverse(t_t, lam)
    dom_s = cross_entropy(binding.discriminator.forward(d_in_s),
                          np.zeros(t_s.shape[0], dtype=np.int64))
    dom_t = cross_entropy(binding.discriminator.forward(d_in_t),
                          np.ones(t_t.shape[0], dtype=np.int64))
    domain_ce = dom_s + dom_t
    return ModuleLossParts(classifier_ce + domain_ce, classifier_ce,
                           domain_ce, dom_s, dom_t)


def classifier_only_loss(binding: BoundComponents, t_s: ad.Tensor,
                         labels_s) -> ad.Tensor:
    """Source-only objective: both classifiers' CE, no domain term."""
    if t_s.shape[0] == 0:
        raise ContractError("loss: empty batch")
    ce_a = cross_entropy(binding.classifier_a.forward(t_s), labels_s)
    ce_b = cross_entropy(binding.classifier_b.forward(t_s), labels_s)
    return ce_a + ce_b


@dataclass
class DualLossParts:
    """Graph nodes of the cross-module min-max objective."""

    total: ad.Tensor
    feature_dis: ad.Tensor      # discrepancy of softmax-normalized transform outputs
    prediction_dis: ad.Tensor   # discrepancy of the two primary classifiers
    reversed_feature_dis: ad.Tensor  # grad_reverse(feature_dis, lam)


def dual_loss(b1: BoundComponents, b2: BoundComponents, t1_s: ad.Tensor,
              t1_t: ad.Tensor, t2_s: ad.Tensor, t2_t: ad.Tensor,
              lam: float) -> DualLossParts:
    """grad_reverse(feature discrepancy, lam) + prediction discrepancy.

    t1_*/t2_* are the two modules' transform outputs on the source and
    target batches. The feature discrepancy is the extractors'/transforms'
    objective (they climb it through the reversal); the prediction
    discrepancy is the primary classifiers' objective (they descend it).
    The exposed term nodes let the caller backpropagate each term to its
    own player.
    """
    _check_batches(t1_s, t1_t)
    feature_dis = (discrepancy(ad.softmax(t1_s), ad.softmax(t2_s)) +
                   discrepancy(ad.softmax(t1_t), ad.softmax(t2_t)))

    c1_s = ad.softmax(b1.classifier_a.forward(t1_s))
    c1_t = ad.softmax(b1.classifier_a.forward(t1_t))
    c2_s = ad.softmax(b2.classifier_a.forward(t2_s))
    c2_t = ad.softmax(b2.classifier_a.forward(t2_t))
    prediction_dis = discrepancy(c1_s, c2_s) + discrepancy(c1_t, c2_t)

    reversed_feature = ad.grad_reverse(feature_dis, lam)
    total = reversed_feature + prediction_dis
    return DualLossParts(total, feature_dis, prediction_dis, reversed_feature)
