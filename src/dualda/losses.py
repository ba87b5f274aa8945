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

A binding of a stacked set runs its modules as one graph: the per-module
losses then hold one value per module, and the cross-module loss reads the
two modules' slices of one binding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError
from .nn import BoundComponents


def cross_entropy(logits: ad.Tensor, labels) -> ad.Tensor:
    """Mean over the batch of -log_softmax(logits)[label]. int64 labels
    pass through uncopied, so a tape can tie them to its step input;
    ad.cross_entropy checks their range, also when a rerun refills them."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise DimensionError(
            f"cross_entropy: logits must be 2-D, got {list(logits.shape)}")
    rows = logits.shape[0] // logits.slices
    if labels.ndim != 1 or labels.shape[0] != rows:
        raise ContractError(
            f"cross_entropy: need one label per row of a module, got "
            f"{labels.shape} for {rows} rows")
    return ad.cross_entropy(logits, labels)


def discrepancy(p1: ad.Tensor, p2: ad.Tensor | None = None) -> ad.Tensor:
    """Mean absolute difference between two batches of probability rows, one
    value per module; without p2, between the two modules' rows of p1."""
    if p2 is not None and p1.shape != p2.shape:
        raise DimensionError(
            f"discrepancy: shapes {list(p1.shape)} and {list(p2.shape)} differ")
    if p1.data.ndim != 2:
        raise DimensionError(
            f"discrepancy: expected 2-D probability rows, got {list(p1.shape)}")
    return ad.mean_abs_diff(p1, p2)


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
    domain_ce: ad.Tensor          # one term per domain, summed


def module_loss(binding: BoundComponents, t_s: ad.Tensor, labels_s,
                t_t: ad.Tensor, lam) -> ModuleLossParts:
    """Classifier CE on source plus one domain-CE term per domain, one value
    per module.

    lam is the gradient-reversal weight, or a list of one per module in
    slice order; None disables reversal (the discriminative module's loss,
    where the domain gradient trains the extractor to separate domains).
    """
    _check_batches(t_s, t_t)
    classifier_ce = classifier_only_loss(binding, t_s, labels_s)

    d_in_s, d_in_t = t_s, t_t
    lams = lam if isinstance(lam, (list, tuple)) else [lam]
    if any(v is not None for v in lams):
        d_in_s = ad.grad_reverse(t_s, lam)
        d_in_t = ad.grad_reverse(t_t, lam)
    dom_s = cross_entropy(binding.discriminator.forward(d_in_s),
                          np.zeros(t_s.shape[0] // t_s.slices, dtype=np.int64))
    dom_t = cross_entropy(binding.discriminator.forward(d_in_t),
                          np.ones(t_t.shape[0] // t_t.slices, dtype=np.int64))
    domain_ce = dom_s + dom_t
    return ModuleLossParts(classifier_ce + domain_ce, classifier_ce, domain_ce)


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
    """Graph nodes of the cross-module min-max objective: its two terms,
    each descended by its own player and never summed on the tape (a
    caller that wants the sum adds reversed_feature_dis and
    prediction_dis itself)."""

    feature_dis: ad.Tensor      # discrepancy of softmax-normalized transform outputs
    prediction_dis: ad.Tensor   # discrepancy of the two primary classifiers
    reversed_feature_dis: ad.Tensor  # grad_reverse(feature_dis, lam)


def dual_loss(binding: BoundComponents, t_s: ad.Tensor, t_t: ad.Tensor,
              lam: float) -> DualLossParts:
    """grad_reverse(feature discrepancy, lam) and prediction discrepancy.

    binding holds both modules, and t_s/t_t are their stacked transform
    outputs on the source and target batches. The feature discrepancy is
    the extractors'/transforms' objective (they climb it through the
    reversal); the prediction discrepancy is the primary classifiers'
    objective (they descend it). The exposed term nodes let the caller
    backpropagate each term to its own player.
    """
    _check_batches(t_s, t_t)
    if t_s.slices != 2 or t_t.slices != 2:
        raise ContractError("dual_loss: needs both modules' stacked outputs")
    feature_dis = (discrepancy(ad.softmax(t_s)) +
                   discrepancy(ad.softmax(t_t)))

    c_s = ad.softmax(binding.classifier_a.forward(t_s))
    c_t = ad.softmax(binding.classifier_a.forward(t_t))
    prediction_dis = discrepancy(c_s) + discrepancy(c_t)

    return DualLossParts(feature_dis, prediction_dis,
                         ad.grad_reverse(feature_dis, lam))
