"""The three-step training procedure and its per-variant composition.

  step 1 (boundary learning, per enabled module): (A) one update minimizing
    both classifiers' source CE through the whole module path; (B) one
    update of the classifier pair only, minimizing source CE minus their
    target-batch discrepancy; (C) k updates of extractor+transform only,
    minimizing that discrepancy.
  step 2 (per-module adversarial training): one update of the invariant
    module on its loss (gradient reversal in front of the discriminator)
    and, for dual variants, one update of the discriminative module on the
    same loss without reversal.
  step 3 (cross-module min-max): one update of both modules' extractor,
    transform and primary classifier on the dual loss, each player
    following its own term.

When a variant enables step 1 together with steps 2/3, step 1 runs as a
warmup phase (the first mcd_warmup share of the epochs, per batch), and the
adversarial steps take over for the remaining epochs; interleaving them
per batch makes the boundary learning re-anchor the classifiers against
the domain-invariance drive every batch and stalls adaptation. Progress
advances by one quantum per SGD update; the lr/lambda schedules are
sampled at each step invocation on the running phase's own normalized
clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .data import DomainDataset, batches, num_batch_pairs
from .errors import ContractError
from .losses import (classifier_discrepancy, classifier_only_loss, dual_loss,
                     module_loss)
from .model import DualModel, Variant, predict, variant_plan
from .nn import COMPONENT_KEYS, BoundComponents, ComponentSet
from .optim import SGD, Schedule, lambda_at, lr_at

_PATH_COMPONENTS = ("extractor", "transform", "classifier_a", "classifier_b")


@dataclass
class TrainConfig:
    variant: Variant
    epochs: int = 60
    batch_size: int = 128
    k: int = 4
    schedule: Schedule = field(default_factory=Schedule)
    seed: int = 0
    eval_every: int = 10
    feature_dim: int = 32
    g_hidden: Tuple[int, ...] = (64,)
    head_hidden: Tuple[int, ...] = (16,)
    mcd_warmup: float = 0.25  # share of epochs spent on boundary learning
                              # before the adversarial steps take over

    def __post_init__(self):
        self.variant = Variant(self.variant)
        for name in ("epochs", "batch_size", "k", "eval_every", "feature_dim"):
            if int(getattr(self, name)) < 1:
                raise ContractError(f"{name} must be a positive integer")
        if int(self.seed) < 0:
            raise ContractError("seed must be nonnegative")
        if not 0.0 < self.mcd_warmup < 1.0:
            raise ContractError("mcd_warmup must lie in (0, 1)")


@dataclass
class MetricsRecord:
    """One evaluation snapshot; field names match the metrics CSV columns."""

    epoch: int
    cls_ce: float
    dom_ce_m1: float
    dom_ce_m2: float
    dis_t: float
    dis_c: float
    mcd_dis: float
    src_acc: float
    tgt_acc: float

    COLUMNS = ("epoch", "cls_ce", "dom_ce_m1", "dom_ce_m2", "dis_t", "dis_c",
               "mcd_dis", "src_acc", "tgt_acc")

    def row(self) -> List:
        return [getattr(self, c) for c in self.COLUMNS]


def _tape_for(comps: ComponentSet, prefix: str = ""):
    tape = ad.Tape()
    return tape, BoundComponents(tape, comps, prefix=prefix)


def _apply(sgd: SGD, tape: ad.Tape, loss: ad.Tensor, binding: BoundComponents,
           components: Sequence[str], lr: float) -> None:
    grads = ad.backward(tape, loss)
    sgd.step(((name, arr, grads[t.node_id])
              for name, arr, t in binding.named_pairs(components)), lr)


def step1_mcd(comps: ComponentSet, batch_s, labels_s, batch_t, k: int,
              lr: float, sgd: Optional[SGD] = None,
              name_prefix: str = "") -> Tuple[float, float]:
    """Boundary learning on one module; returns the classifier pair's
    target-batch discrepancy measured before and after phase C.

    name_prefix keeps this module's velocity buffers distinct when two
    modules train under one optimizer.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if sgd is None:
        sgd = SGD(0.0)

    # (A) both classifiers fit source; whole path updates
    tape, b = _tape_for(comps, name_prefix)
    loss = classifier_only_loss(b, b.features(tape.leaf(batch_s)), labels_s)
    _apply(sgd, tape, loss, b, _PATH_COMPONENTS, lr)

    # (B) classifier pair maximizes target disagreement, keeping source CE
    tape, b = _tape_for(comps, name_prefix)
    src_ce = classifier_only_loss(b, b.features(tape.leaf(batch_s)), labels_s)
    dis = classifier_discrepancy(b, b.features(tape.leaf(batch_t)))
    _apply(sgd, tape, ad.sub(src_ce, dis), b,
           ("classifier_a", "classifier_b"), lr)

    # (C) extractor+transform minimize the disagreement, k times; the
    # discrepancy is read before each update and once after the last one
    measured = []
    for i in range(k + 1):
        tape, b = _tape_for(comps, name_prefix)
        dis = classifier_discrepancy(b, b.features(tape.leaf(batch_t)))
        measured.append(float(dis.data[0]))
        if i < k:
            _apply(sgd, tape, dis, b, ("extractor", "transform"), lr)
    return measured[0], measured[-1]


def step2_modules(model: DualModel, batch_s, labels_s, batch_t, lam: float,
                  lr: float, variant: Variant,
                  sgd: Optional[SGD] = None) -> DualModel:
    """Per-module training; each module's update uses its own pre-step
    parameters (the modules are parameter-disjoint)."""
    plan = variant_plan(variant)
    if sgd is None:
        sgd = SGD(0.0)

    if plan.step2_invariant == "ce_only":
        tape, b = _tape_for(model.invariant, "invariant.")
        loss = classifier_only_loss(b, b.features(tape.leaf(batch_s)), labels_s)
        _apply(sgd, tape, loss, b, _PATH_COMPONENTS, lr)
    elif plan.step2_invariant == "adversarial":
        tape, b = _tape_for(model.invariant, "invariant.")
        t_s = b.features(tape.leaf(batch_s))
        t_t = b.features(tape.leaf(batch_t))
        parts = module_loss(b, t_s, labels_s, t_t, lam)
        _apply(sgd, tape, parts.total, b, COMPONENT_KEYS, lr)

    if plan.step2_discriminative:
        tape, b = _tape_for(model.discriminative, "discriminative.")
        t_s = b.features(tape.leaf(batch_s))
        t_t = b.features(tape.leaf(batch_t))
        parts = module_loss(b, t_s, labels_s, t_t, None)
        _apply(sgd, tape, parts.total, b, COMPONENT_KEYS, lr)
    return model


def step3_dual(model: DualModel, batch_s, batch_t, lam: float, lr: float,
               sgd: Optional[SGD] = None) -> DualModel:
    """One update of both modules' extractor/transform/primary classifier
    on the cross-module loss; discriminators and secondary classifiers
    are not part of this graph.

    Each player follows its own term: the extractors and transforms
    maximize the feature discrepancy (via the reversal), the primary
    classifiers minimize the prediction discrepancy. Routing the
    prediction term's gradient into the feature paths as well couples the
    two games into a degenerate joint solution and was the single biggest
    destabilizer at desk scale.
    """
    if sgd is None:
        sgd = SGD(0.0)
    tape = ad.Tape()
    b1 = BoundComponents(tape, model.invariant, prefix="invariant.")
    b2 = BoundComponents(tape, model.discriminative, prefix="discriminative.")
    xs, xt = tape.leaf(batch_s), tape.leaf(batch_t)
    parts = dual_loss(b1, b2, b1.features(xs), b1.features(xt),
                      b2.features(xs), b2.features(xt), lam)

    feature_grads = ad.backward(tape, parts.reversed_feature_dis)
    feature_pairs = [(name, arr, feature_grads[t.node_id])
                     for b in (b1, b2)
                     for name, arr, t in b.named_pairs(("extractor", "transform"))]
    prediction_grads = ad.backward(tape, parts.prediction_dis)
    classifier_pairs = [(name, arr, prediction_grads[t.node_id])
                        for b in (b1, b2)
                        for name, arr, t in b.named_pairs(("classifier_a",))]
    sgd.step(feature_pairs + classifier_pairs, lr)
    return model


def evaluate(model: DualModel, ds: DomainDataset) -> float:
    """Fraction of predict() matches against the dataset's labels."""
    if ds.labels is None:
        raise ContractError("evaluate needs a labeled dataset")
    if ds.n == 0:
        raise ContractError("evaluate: empty dataset")
    return float(np.mean(predict(model, ds.features) == ds.labels))


def compute_metrics(model: DualModel, source: DomainDataset,
                    target: DomainDataset, epoch: int) -> MetricsRecord:
    """Measure every logged loss in one full-dataset forward pass at the
    current parameters (training never reads these values)."""
    tape = ad.Tape()
    b1 = BoundComponents(tape, model.invariant)
    b2 = BoundComponents(tape, model.discriminative)
    xs, xt = tape.leaf(source.features), tape.leaf(target.features)
    t1_s, t1_t = b1.features(xs), b1.features(xt)
    t2_s, t2_t = b2.features(xs), b2.features(xt)
    parts1 = module_loss(b1, t1_s, source.labels, t1_t, None)
    parts2 = module_loss(b2, t2_s, source.labels, t2_t, None)
    dual = dual_loss(b1, b2, t1_s, t1_t, t2_s, t2_t, 0.0)
    mcd_dis = classifier_discrepancy(b1, t1_t)

    return MetricsRecord(
        epoch=epoch,
        cls_ce=float(parts1.classifier_ce.data[0]),
        dom_ce_m1=float(parts1.domain_ce.data[0]),
        dom_ce_m2=float(parts2.domain_ce.data[0]),
        dis_t=float(dual.feature_dis.data[0]),
        dis_c=float(dual.prediction_dis.data[0]),
        mcd_dis=float(mcd_dis.data[0]),
        src_acc=evaluate(model, source),
        tgt_acc=evaluate(model, target),
    )


def _epoch_seed(seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(epoch)]).generate_state(1)[0])


def train(config: TrainConfig, source: DomainDataset, target: DomainDataset,
          checkpoint_dir=None,
          progress: Optional[Callable[[int, int, float], None]] = None
          ) -> Tuple[DualModel, List[MetricsRecord]]:
    """Run the variant's enabled steps for config.epochs epochs.

    Fully deterministic given the config: the model seed, every epoch's
    shuffles, and the p/lr/lambda trajectory derive from config.seed.
    """
    if source.n == 0 or target.n == 0:
        raise ContractError("train: empty dataset")
    if source.input_dim != target.input_dim:
        raise ContractError(
            f"train: input dims differ ({source.input_dim} vs {target.input_dim})")
    if source.num_classes != target.num_classes:
        raise ContractError(
            f"train: class counts differ ({source.num_classes} vs "
            f"{target.num_classes})")
    if source.labels is None:
        raise ContractError("train: source dataset must be labeled")

    plan = variant_plan(config.variant)
    model = DualModel.build(source.input_dim, config.feature_dim,
                            source.num_classes, config.seed,
                            g_hidden=config.g_hidden,
                            head_hidden=config.head_hidden)
    # one velocity store per training step: the steps optimize different
    # (partly opposing) objectives, and letting one step coast on another's
    # momentum destabilizes the adversarial games
    step1_sgd = SGD(config.schedule.momentum)
    step2_sgd = SGD(config.schedule.momentum)
    step3_sgd = SGD(config.schedule.momentum)

    n_pairs = num_batch_pairs(source, target, config.batch_size)
    if n_pairs < 1:
        raise ContractError(
            f"batch_size {config.batch_size} exceeds the smaller domain")

    # boundary learning is a warmup phase: it precedes the adversarial
    # steps rather than interleaving with them, and each phase gets its own
    # normalized schedule clock (the annealing belongs to the
    # invariant-feature part of training)
    n_step2 = (plan.step2_invariant != "none") + plan.step2_discriminative
    per_main = n_step2 + (1 if plan.step3 else 0)
    if plan.mcd_modules and per_main:
        warm_epochs = max(1, round(config.epochs * config.mcd_warmup))
    elif plan.mcd_modules:
        warm_epochs = config.epochs
    else:
        warm_epochs = 0
    per_warm = (2 + config.k) * len(plan.mcd_modules)
    total_warm = warm_epochs * n_pairs * per_warm
    total_main = (config.epochs - warm_epochs) * n_pairs * per_main
    total_updates = total_warm + total_main
    done = 0
    done_phase = 0

    def advance(n_updates: int, phase_total: int) -> Tuple[float, float]:
        """Schedule values at the coming update's phase progress; the
        global update counter drives the reported overall progress."""
        nonlocal done, done_phase
        p = done_phase / phase_total
        if progress is not None:
            progress(done, total_updates, done / total_updates)
        done += n_updates
        done_phase += n_updates
        return lr_at(config.schedule, p), lambda_at(config.schedule, p)

    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    records: List[MetricsRecord] = []
    for epoch in range(1, config.epochs + 1):
        if epoch == warm_epochs + 1:
            done_phase = 0  # the adversarial phase starts a fresh clock
        stream = batches(source, target, config.batch_size,
                         _epoch_seed(config.seed, epoch))
        for xs, ys, xt in stream:
            if epoch <= warm_epochs:
                for module_key in plan.mcd_modules:
                    lr, _ = advance(2 + config.k, total_warm)
                    step1_mcd(model.module(module_key), xs, ys, xt, config.k,
                              lr, step1_sgd, name_prefix=f"{module_key}.")
            else:
                if n_step2:
                    lr, lam = advance(n_step2, total_main)
                    step2_modules(model, xs, ys, xt, lam, lr, config.variant,
                                  step2_sgd)
                if plan.step3:
                    lr, lam = advance(1, total_main)
                    step3_dual(model, xs, xt, lam, lr, step3_sgd)
        if epoch % config.eval_every == 0 or epoch == config.epochs:
            records.append(compute_metrics(model, source, target, epoch))
            if checkpoint_dir is not None:
                model.save(checkpoint_dir / f"epoch_{epoch:04d}.bin")
    return model, records
