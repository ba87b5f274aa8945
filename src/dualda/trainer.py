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

When a variant enables step 1 together with steps 2/3, step 1 runs per batch
for min(max(1, round(epochs * mcd_warmup)), epochs - 1) warmup epochs, and the
adversarial steps take over for the rest, so they always run; interleaving them
per batch makes the boundary learning re-anchor the classifiers against
the domain-invariance drive every batch and stalls adaptation. Progress
advances by one quantum per SGD update; the lr/lambda schedules are
sampled at each step invocation on the running phase's own normalized
clock.

Every SGD update of every step runs through ``_update``: one tape, one
pruned backward per (loss, bindings, components) term, one optimizer step.
``train`` runs one loop over each phase's step invocations; that loop
samples the schedules, reports progress and labels a failing step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .data import DomainDataset, batches, derived_seed, num_batch_pairs
from .errors import ContractError
from .losses import (classifier_discrepancy, classifier_only_loss, dual_loss,
                     module_loss)
from .model import DualModel, Variant, predicted_classes, variant_plan
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

    def row(self) -> List:
        return [getattr(self, c) for c in self.COLUMNS]


MetricsRecord.COLUMNS = tuple(f.name for f in fields(MetricsRecord))


def _update(sgd: SGD, lr: float, tape: ad.Tape,
            *terms: Tuple[ad.Tensor, Sequence[BoundComponents], Sequence[str]]
            ) -> None:
    """One SGD update: each (loss, bindings, components) term back-propagates
    its loss to exactly the named components of its bindings, and one
    optimizer step applies every term's gradients."""
    updates = []
    for loss, bindings, components in terms:
        pairs = [pair for b in bindings for pair in b.named_pairs(components)]
        grads = ad.backward(tape, loss, wrt=[t for _, _, t in pairs])
        updates += [(name, arr, grads[t.node_id]) for name, arr, t in pairs]
    sgd.step(updates, lr)


def _source_update(comps: ComponentSet, prefix: str, batch_s, labels_s,
                   lr: float, sgd: SGD) -> None:
    """Both classifiers fit the source batch and the whole module path
    updates: step-1 phase A, and step 2 of a source-only invariant module."""
    tape = ad.Tape()
    b = BoundComponents(tape, comps, prefix)
    loss = classifier_only_loss(b, b.features(tape.leaf(batch_s)), labels_s)
    _update(sgd, lr, tape, (loss, [b], _PATH_COMPONENTS))


def _boundary_updates(comps: ComponentSet, batch_s, labels_s, batch_t, k: int,
                      lr: float, sgd: SGD, name_prefix: str) -> float:
    """Phases A, B and k x C of step 1; returns the discrepancy read before
    the first phase-C update."""
    # (A) both classifiers fit source; whole path updates
    _source_update(comps, name_prefix, batch_s, labels_s, lr, sgd)

    # (B) classifier pair maximizes target disagreement, keeping source CE
    tape = ad.Tape()
    b = BoundComponents(tape, comps, name_prefix)
    src_ce = classifier_only_loss(b, b.features(tape.leaf(batch_s)), labels_s)
    dis = classifier_discrepancy(b, b.features(tape.leaf(batch_t)))
    _update(sgd, lr, tape,
            (ad.sub(src_ce, dis), [b], ("classifier_a", "classifier_b")))

    # (C) extractor+transform minimize the disagreement, k times
    before = 0.0
    for i in range(k):
        tape = ad.Tape()
        b = BoundComponents(tape, comps, name_prefix)
        dis = classifier_discrepancy(b, b.features(tape.leaf(batch_t)))
        if i == 0:
            before = float(dis.data[0])
        _update(sgd, lr, tape, (dis, [b], ("extractor", "transform")))
    return before


def step1_mcd(comps: ComponentSet, batch_s, labels_s, batch_t, k: int,
              lr: float, sgd: Optional[SGD] = None,
              name_prefix: str = "") -> Tuple[float, float]:
    """Boundary learning on one module; returns the classifier pair's
    target-batch discrepancy measured before and after phase C.

    name_prefix keeps this module's velocity buffers distinct when two
    modules train under one optimizer. train() runs the same updates
    without the closing discrepancy read.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if sgd is None:
        sgd = SGD(0.0)
    before = _boundary_updates(comps, batch_s, labels_s, batch_t, k, lr, sgd,
                               name_prefix)
    tape = ad.Tape()
    b = BoundComponents(tape, comps, name_prefix)
    after = classifier_discrepancy(b, b.features(tape.leaf(batch_t)))
    return before, float(after.data[0])


def step2_modules(model: DualModel, batch_s, labels_s, batch_t, lam: float,
                  lr: float, variant: Variant,
                  sgd: Optional[SGD] = None) -> DualModel:
    """Per-module training; each module's update uses its own pre-step
    parameters (the modules are parameter-disjoint)."""
    plan = variant_plan(variant)
    if sgd is None:
        sgd = SGD(0.0)

    if plan.step2_invariant == "ce_only":
        _source_update(model.invariant, "invariant.", batch_s, labels_s, lr,
                       sgd)

    # (module, velocity-name prefix, reversal weight: None for no reversal)
    adversarial = []
    if plan.step2_invariant == "adversarial":
        adversarial.append((model.invariant, "invariant.", lam))
    if plan.step2_discriminative:
        adversarial.append((model.discriminative, "discriminative.", None))
    for comps, prefix, module_lam in adversarial:
        tape = ad.Tape()
        b = BoundComponents(tape, comps, prefix)
        t_s = b.features(tape.leaf(batch_s))
        t_t = b.features(tape.leaf(batch_t))
        parts = module_loss(b, t_s, labels_s, t_t, module_lam)
        _update(sgd, lr, tape, (parts.total, [b], COMPONENT_KEYS))
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
    _update(sgd, lr, tape,
            (parts.reversed_feature_dis, [b1, b2], ("extractor", "transform")),
            (parts.prediction_dis, [b1, b2], ("classifier_a",)))
    return model


def compute_metrics(model: DualModel, source: DomainDataset,
                    target: DomainDataset, epoch: int) -> MetricsRecord:
    """Measure every logged loss in one full-dataset forward pass at the
    current parameters (training never reads these values); the accuracies
    are predict()'s, read off the same pass."""
    if source.labels is None or target.labels is None:
        raise ContractError("compute_metrics needs labeled datasets")
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
        src_acc=float(np.mean(predicted_classes(
            b1.classifier_a.forward(t1_s).data) == source.labels)),
        tgt_acc=float(np.mean(predicted_classes(
            b1.classifier_a.forward(t1_t).data) == target.labels)),
    )


def initial_model(config: TrainConfig, source: DomainDataset) -> DualModel:
    """The model a run with this config starts from: its architecture and
    initial parameters, before any update (checkpoints load into it)."""
    return DualModel.build(source.input_dim, config.feature_dim,
                           source.num_classes, config.seed,
                           g_hidden=config.g_hidden,
                           head_hidden=config.head_hidden)


def train(config: TrainConfig, source: DomainDataset, target: DomainDataset,
          checkpoint_dir=None,
          progress: Optional[Callable[[int, int, float], None]] = None
          ) -> Tuple[DualModel, List[MetricsRecord]]:
    """Run the variant's enabled steps for config.epochs epochs.

    Fully deterministic given the config: the model seed, every epoch's
    shuffles, and the p/lr/lambda trajectory derive from config.seed.
    """
    if source.input_dim != target.input_dim:
        raise ContractError(
            f"train: input dims differ ({source.input_dim} vs {target.input_dim})")
    if source.num_classes != target.num_classes:
        raise ContractError(
            f"train: class counts differ ({source.num_classes} vs "
            f"{target.num_classes})")
    if target.labels is None:  # batches rejects an unlabeled source
        raise ContractError("train: the target dataset is unlabeled; "
                            "evaluation reads its labels")

    plan = variant_plan(config.variant)
    model = initial_model(config, source)
    # one velocity store per training step: the steps optimize different
    # (partly opposing) objectives, and letting one step coast on another's
    # momentum destabilizes the adversarial games
    step1_sgd = SGD(config.schedule.momentum)
    step2_sgd = SGD(config.schedule.momentum)
    step3_sgd = SGD(config.schedule.momentum)

    n_pairs = num_batch_pairs(source, target, config.batch_size)

    # boundary learning is a warmup phase: it precedes the adversarial
    # steps rather than interleaving with them, and each phase gets its own
    # normalized schedule clock (the annealing belongs to the
    # invariant-feature part of training). A phase is its epochs and the
    # step invocations each batch runs: (label, updates, run(xs, ys, xt,
    # lr, lam)); run looks the step functions up when it is called.
    n_step2 = (plan.step2_invariant != "none") + plan.step2_discriminative
    warm_steps = [("step 1", 2 + config.k,
                   lambda xs, ys, xt, lr, lam, key=key: _boundary_updates(
                       getattr(model, key), xs, ys, xt, config.k, lr,
                       step1_sgd, f"{key}."))
                  for key in plan.mcd_modules]
    main_steps = []
    if n_step2:
        main_steps.append(("step 2", n_step2, lambda xs, ys, xt, lr, lam:
                           step2_modules(model, xs, ys, xt, lam, lr,
                                         config.variant, step2_sgd)))
    if plan.step3:
        main_steps.append(("step 3", 1, lambda xs, ys, xt, lr, lam:
                           step3_dual(model, xs, xt, lam, lr, step3_sgd)))
    if warm_steps and main_steps:
        warm_epochs = min(max(1, round(config.epochs * config.mcd_warmup)),
                          config.epochs - 1)
    else:
        warm_epochs = config.epochs if warm_steps else 0
    phases = [(warm_steps, range(1, warm_epochs + 1)),
              (main_steps, range(warm_epochs + 1, config.epochs + 1))]
    phase_totals = [len(epochs) * n_pairs * sum(n for _, n, _ in steps)
                    for steps, epochs in phases]
    total_updates, done = sum(phase_totals), 0

    records: List[MetricsRecord] = []
    for (steps, epochs), phase_total in zip(phases, phase_totals):
        done_phase = 0
        for epoch in epochs:
            label = "batching"
            try:
                for xs, ys, xt in batches(source, target, config.batch_size,
                                          derived_seed(config.seed, epoch)):
                    for label, n_updates, run in steps:
                        # the schedules at this invocation's phase progress;
                        # the reported progress counts every update so far
                        p = done_phase / phase_total
                        if progress is not None:
                            progress(done, total_updates, done / total_updates)
                        run(xs, ys, xt, lr_at(config.schedule, p),
                            lambda_at(config.schedule, p))
                        done += n_updates
                        done_phase += n_updates
            except ContractError as err:
                raise ContractError(f"train {config.variant.value}, epoch "
                                    f"{epoch}, {label}: {err}") from err
            if epoch % config.eval_every == 0 or epoch == config.epochs:
                records.append(compute_metrics(model, source, target, epoch))
                if checkpoint_dir is not None:  # made at the first save
                    Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
                    model.save(Path(checkpoint_dir) / f"epoch_{epoch:04d}.bin")
    return model, records
