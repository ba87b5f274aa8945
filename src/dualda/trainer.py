"""The three-step training procedure and its per-variant composition.

  step 1 (boundary learning, per enabled module): (A) one update minimizing
    both classifiers' source CE through the whole module path; (B) one
    update of the classifier pair only, minimizing source CE minus their
    target-batch discrepancy; (C) k updates of extractor+transform only,
    minimizing that discrepancy.
  step 2 (per-module adversarial training): one update of the invariant
    module on its loss (gradient reversal in front of the discriminator)
    and, for dual variants, one update of the discriminative module on the
    same loss without reversal (reversal weight +1.0).
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
pruned backward per (loss, parameters) term, one optimizer step. Each
step binds every module it trains on one tape as one stacked graph
(``DualModel.modules``), so two modules cost one tape, one backward and
one SGD step per update; an update still counts once per module. Step 3
also runs the source and target batches as slices of that graph, one
record per layer for both domains (``BoundComponents.features`` on both).
In step 1 each module keeps the lr of its own progress, sampled as if the
modules ran one after the other. ``train`` runs one loop over each phase's
step invocations; that loop samples the schedules, reports progress and
labels a failing step.

``train`` calls ``step1_mcd``, ``step2_modules`` and ``step3_dual`` by
their module globals. Each call site (step 1's phases A, B and C, step
2's source-only and adversarial updates, step 3) records its tape once,
on the first batch of a ``train`` call, as a ``Program`` (``_program``):
per loss the sweep of its backward (the loss, the leaf tensors it trains
and the views of the optimizer's gradient store at their parameters,
``SGD.grad_view``), and the site's one SGD block, the range of the flat
buffer that its update trains (``SGD.block``). Every later update of
that site re-runs the tape on its batch (``ad.Tape.rerun_if_fits``, one
shape check) as generated straight-line code that makes the numpy calls
of a fresh tape, so the same bits; a batch of another shape is captured
again. A tape lets go of its capture batch at its first rerun, and
``train`` drops each phase's programs when the phase ends. Each backward
writes its gradients into those views (``ad.backward(..., into=...)``),
and the optimizer steps the block from them (``optim.SGD``): an update
costs a few numpy calls for all its modules.

``compute_metrics`` builds no tape: per domain it runs one stacked forward
of both modules over the full dataset on the numpy functions that the
training records call (``ad.dense``, ``ad.row_softmax``,
``ad.cross_entropy_values``, ``ad.mean_abs_diff_values``), so its values
are bitwise those of the losses on a tape, and it drops each temporary
once it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .data import DomainDataset, batches, derived_seed, num_batch_pairs
from .errors import ContractError, checked_int
from .losses import (classifier_discrepancy, classifier_only_loss, dual_loss,
                     module_loss)
from .model import DualModel, Variant, variant_plan
from .nn import COMPONENT_KEYS, BoundComponents, ComponentSet
from .optim import SGD, Schedule, lambda_at, lr_at

_PATH_COMPONENTS = ("extractor", "transform", "classifier_a", "classifier_b")

# a loss and the (slice names, parameter array, leaf tensor) of every
# parameter it trains
Term = Tuple[ad.Tensor, List[Tuple[Tuple[str, ...], np.ndarray, ad.Tensor]]]


class Program(NamedTuple):
    """A call site's tape and its update: per term the (loss, leaf tensors,
    gradient-store views) of its backward, and the one block
    (``SGD.block``) that its SGD step trains."""

    tape: ad.Tape
    sweeps: List[Tuple[ad.Tensor, List[ad.Tensor], List[np.ndarray]]]
    blocks: Tuple[tuple]


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
            checked_int(name, getattr(self, name), 1)
        for name in ("g_hidden", "head_hidden"):
            for width in getattr(self, name):
                checked_int(f"each of {name}", width, 1)
        checked_int("seed", self.seed, 0)
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


def _update(sgd: SGD, lr, program: Program) -> None:
    """One SGD update: each term back-propagates its loss (one value per
    module) to exactly its leaf tensors, into the gradient store of sgd,
    and one optimizer step applies every term's gradients."""
    for loss, wrt, into in program.sweeps:
        ad.backward(program.tape, loss, wrt, into=into)
    sgd.step(program.blocks, lr)


def _program(programs: Dict[str, Program], site: str, sgd: SGD, capture,
             context, inputs: tuple) -> Program:
    """Call site `site`'s tape run on the step inputs, with its update: the
    tape it captured on an earlier batch, re-run, when the inputs have that
    batch's shapes; else a new tape on which capture(tape, *context,
    *inputs) records the site's graph and returns its terms, whose sweeps
    (into the views of sgd's gradient store at the terms' parameters) and
    SGD block are kept for the next batch. programs belongs to one model
    and one train() call."""
    program = programs.get(site)
    if program is not None and program.tape.rerun_if_fits(*inputs):
        return program
    tape = ad.Tape(*inputs)
    terms = capture(tape, *context, *inputs)
    sweeps = [(loss, [t for _, _, t in pairs],
               [sgd.grad_view(names, arr) for names, arr, _ in pairs])
              for loss, pairs in terms]
    block = sgd.block((names, arr) for _, pairs in terms
                      for names, arr, _ in pairs)
    program = programs[site] = Program(tape, sweeps, (block,))
    return program


def _capture_source(tape: ad.Tape, comps: ComponentSet, prefix, xs,
                    ys) -> List[Term]:
    """Both classifiers fit the source batch; the whole module path trains."""
    b = BoundComponents(tape, comps, prefix)
    loss = classifier_only_loss(b, b.features(tape.leaf(xs)), ys)
    return [(loss, list(b.named_pairs(_PATH_COMPONENTS)))]


def _capture_boundary(tape: ad.Tape, comps: ComponentSet, prefix, xs, ys,
                      xt) -> List[Term]:
    """The classifier pair keeps source CE and maximizes its target-batch
    disagreement."""
    b = BoundComponents(tape, comps, prefix)
    src_ce = classifier_only_loss(b, b.features(tape.leaf(xs)), ys)
    dis = classifier_discrepancy(b, b.features(tape.leaf(xt)))
    return [(ad.sub(src_ce, dis),
             list(b.named_pairs(("classifier_a", "classifier_b"))))]


def _capture_discrepancy(tape: ad.Tape, comps: ComponentSet, prefix,
                         xt) -> List[Term]:
    """Extractor and transform minimize the pair's target disagreement."""
    b = BoundComponents(tape, comps, prefix)
    dis = classifier_discrepancy(b, b.features(tape.leaf(xt)))
    return [(dis, list(b.named_pairs(("extractor", "transform"))))]


def _capture_modules(tape: ad.Tape, comps: ComponentSet, prefixes,
                     reverse: Sequence[bool], xs, ys, xt,
                     lam=None) -> List[Term]:
    """Each module's step-2 loss, through the reversal with weight lam
    where reverse says so and with +1.0 elsewhere; all five components
    train."""
    b = BoundComponents(tape, comps, prefixes)
    t_s = b.features(tape.leaf(xs))
    t_t = b.features(tape.leaf(xt))
    parts = module_loss(b, t_s, ys, t_t,
                        [lam if r else None for r in reverse])
    return [(parts.total, list(b.named_pairs(COMPONENT_KEYS)))]


def _capture_dual(tape: ad.Tape, model: DualModel, xs, xt,
                  lam) -> List[Term]:
    """The cross-module loss, each player on its own term."""
    b = BoundComponents(tape, *model.modules())
    parts = dual_loss(b, b.features(tape.leaf(xs), tape.leaf(xt)), lam)
    return [(parts.reversed_feature_dis,
             list(b.named_pairs(("extractor", "transform")))),
            (parts.prediction_dis, list(b.named_pairs(("classifier_a",))))]


def step1_mcd(comps: ComponentSet, prefix, batch_s, labels_s, batch_t,
              k: int, lr, sgd: SGD, programs: Dict[str, Program]) -> np.ndarray:
    """Boundary learning: phases A, B and k x C on every module of comps at
    once (prefix and lr: one per module, or one for a single module);
    returns each module's classifier-pair discrepancy on the target batch,
    read before the first phase-C update. programs holds the tapes of
    train()'s earlier batches."""
    k = checked_int("k", k, 1)
    context = (comps, prefix)
    # (A) both classifiers fit source; whole path updates
    _update(sgd, lr, _program(programs, "step 1 A", sgd, _capture_source,
                              context, (batch_s, labels_s)))
    # (B) classifier pair maximizes target disagreement, keeping source CE
    _update(sgd, lr, _program(programs, "step 1 B", sgd, _capture_boundary,
                              context, (batch_s, labels_s, batch_t)))
    # (C) extractor+transform minimize the disagreement, k times
    for i in range(k):
        program = _program(programs, "step 1 C", sgd, _capture_discrepancy,
                           context, (batch_t,))
        if i == 0:
            before = program.sweeps[0][0].data
        _update(sgd, lr, program)
    return before


def step2_modules(model: DualModel, batch_s, labels_s, batch_t, lam: float,
                  lr: float, variant: Variant, sgd: SGD,
                  programs: Dict[str, Program]) -> None:
    """Per-module training; the adversarial modules update as one stacked
    graph, each from its own pre-step parameters (the modules are
    parameter-disjoint). programs holds the tapes of train()'s earlier
    batches."""
    plan = variant_plan(variant)

    if plan.step2_invariant == "ce_only":
        _update(sgd, lr, _program(
            programs, "step 2 source", sgd, _capture_source,
            (model.invariant, "invariant."), (batch_s, labels_s)))

    # the adversarial modules, each with its reversal flag
    adversarial = {}
    if plan.step2_invariant == "adversarial":
        adversarial["invariant"] = True
    if plan.step2_discriminative:
        adversarial["discriminative"] = False
    if adversarial:
        inputs = (batch_s, labels_s, batch_t)
        if adversarial.get("invariant"):
            inputs += (lam,)
        _update(sgd, lr, _program(
            programs, "step 2", sgd, _capture_modules,
            (*model.modules(tuple(adversarial)), tuple(adversarial.values())),
            inputs))


def step3_dual(model: DualModel, batch_s, batch_t, lam: float, lr: float,
               sgd: SGD, programs: Dict[str, Program]) -> None:
    """One update of both modules' extractor/transform/primary classifier
    on the cross-module loss; discriminators and secondary classifiers
    are not part of this graph. programs holds the tapes of train()'s
    earlier batches.

    Each player follows its own term: the extractors and transforms
    maximize the feature discrepancy (via the reversal), the primary
    classifiers minimize the prediction discrepancy. Routing the
    prediction term's gradient into the feature paths as well couples the
    two games into a degenerate joint solution and was the single biggest
    destabilizer at desk scale.
    """
    _update(sgd, lr, _program(programs, "step 3", sgd, _capture_dual,
                              (model,), (batch_s, batch_t, lam)))


def _domain_terms(model: DualModel, x, labels: np.ndarray,
                  domain: int) -> tuple:
    """The logged terms of one full domain (0 source, 1 target), from one
    stacked forward of both modules with no tape: each module's domain CE,
    the feature and prediction discrepancies, the invariant module's
    accuracy, and its classifier pair's term on this domain (the source
    CE of both classifiers, or the target discrepancy). Each head runs
    once; classifier_b runs on the invariant slice only, the one these
    terms read. Every temporary is dropped once it is read."""
    comps, n = model.stacked, len(labels)
    t = comps.features(x)
    feature_dis = ad.mean_abs_diff_values(*_halves(ad.row_softmax(t)))[0]
    domain_ce = ad.cross_entropy_values(comps.discriminator.apply(t, 2),
                                        np.full(n, domain), 2)[0]
    logits_b = model.invariant.classifier_b.apply(t[:n])
    logits_a = comps.classifier_a.apply(t, 2)
    del t
    if domain == 0:
        labels = ad.checked_indices("cross_entropy", n, logits_a.shape[1],
                                    labels)
        pair = (ad.cross_entropy_values(logits_a, labels, 2)[0][0] +
                ad.cross_entropy_values(logits_b, labels)[0][0])
    probs_a = ad.row_softmax(logits_a)
    del logits_a
    if domain == 1:
        pair = ad.mean_abs_diff_values(probs_a[:n],
                                       ad.row_softmax(logits_b))[0][0]
    del logits_b
    prediction_dis = ad.mean_abs_diff_values(*_halves(probs_a))[0]
    accuracy = float(np.mean(np.argmax(probs_a[:n], axis=1) == labels))
    return domain_ce, feature_dis, prediction_dis, accuracy, pair


def _halves(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The two module slices of a stacked activation."""
    half = a.shape[0] // 2
    return a[:half], a[half:]


def compute_metrics(model: DualModel, source: DomainDataset,
                    target: DomainDataset, epoch: int) -> MetricsRecord:
    """Measure every logged loss on the full datasets at the current
    parameters, with no tape (training never reads these values). Each
    value is bitwise the one module_loss, dual_loss and
    classifier_discrepancy give on a tape, since the same numpy calls make
    it; the accuracies are predict()'s."""
    if source.labels is None or target.labels is None:
        raise ContractError("compute_metrics needs labeled datasets")
    dom_s, fdis_s, pdis_s, src_acc, cls_ce = _domain_terms(
        model, source.features, source.labels, 0)
    dom_t, fdis_t, pdis_t, tgt_acc, mcd_dis = _domain_terms(
        model, target.features, target.labels, 1)
    domain_ce = dom_s + dom_t
    return MetricsRecord(
        epoch=epoch,
        cls_ce=float(cls_ce),
        dom_ce_m1=float(domain_ce[0]),
        dom_ce_m2=float(domain_ce[1]),
        dis_t=float((fdis_s + fdis_t)[0]),
        dis_c=float((pdis_s + pdis_t)[0]),
        mcd_dis=float(mcd_dis),
        src_acc=src_acc,
        tgt_acc=tgt_acc,
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
    step1_sgd = SGD(model.buffer, config.schedule.momentum)
    step2_sgd = SGD(model.buffer, config.schedule.momentum)
    step3_sgd = SGD(model.buffer, config.schedule.momentum)

    n_pairs = num_batch_pairs(source, target, config.batch_size)
    # each call site's tape, captured on the first batch and re-run on the
    # others (every batch has the same shape), until its phase ends
    programs: Dict[str, Program] = {}

    # boundary learning is a warmup phase: it precedes the adversarial
    # steps rather than interleaving with them, and each phase gets its own
    # normalized schedule clock (the annealing belongs to the
    # invariant-feature part of training). A phase is its epochs and the
    # step invocations each batch runs: (label, updates, lr slices, run(xs,
    # ys, xt, lr, lam)); run looks the step functions up when it is called.
    # Step 1 trains each of its modules on the lr of that module's own
    # progress, one lr slice per module.
    n_step2 = (plan.step2_invariant != "none") + plan.step2_discriminative
    warm_steps = []
    if plan.mcd_modules:
        comps, prefixes = model.modules(plan.mcd_modules)
        warm_steps.append(
            ("step 1", len(prefixes) * (2 + config.k), len(prefixes),
             lambda xs, ys, xt, lr, lam: step1_mcd(
                 comps, prefixes, xs, ys, xt, config.k, lr, step1_sgd,
                 programs)))
    main_steps = []
    if n_step2:
        main_steps.append(("step 2", n_step2, 1, lambda xs, ys, xt, lr, lam:
                           step2_modules(model, xs, ys, xt, lam, lr,
                                         config.variant, step2_sgd,
                                         programs)))
    if plan.step3:
        main_steps.append(("step 3", 1, 1, lambda xs, ys, xt, lr, lam:
                           step3_dual(model, xs, xt, lam, lr, step3_sgd,
                                      programs)))
    if warm_steps and main_steps:
        warm_epochs = min(max(1, round(config.epochs * config.mcd_warmup)),
                          config.epochs - 1)
    else:
        warm_epochs = config.epochs if warm_steps else 0
    phases = [(warm_steps, range(1, warm_epochs + 1)),
              (main_steps, range(warm_epochs + 1, config.epochs + 1))]
    phase_totals = [len(epochs) * n_pairs * sum(step[1] for step in steps)
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
                    for label, n_updates, slices, run in steps:
                        # the schedules at this invocation's phase progress,
                        # lr slice m after the updates of the slices before
                        # it; the reported progress counts every update so far
                        lr = [lr_at(config.schedule,
                                    (done_phase + m * n_updates // slices)
                                    / phase_total) for m in range(slices)]
                        if progress is not None:
                            progress(done, total_updates, done / total_updates)
                        run(xs, ys, xt, lr[0] if slices == 1 else lr,
                            lambda_at(config.schedule, done_phase / phase_total))
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
        programs.clear()  # no later phase runs these sites: free their tapes
    return model, records
