"""The dual-module assembly, inference path, and experiment variants.

Inference only ever touches the invariant module's extractor, transform
layer and primary classifier; the discriminative module exists purely to
push the invariant one toward domain-invariant features during training.

A DualModel stores every parameter of its two modules in one flat float64
buffer, the invariant module's range first (``nn.stack_component_sets``).
Each stacked [2, ...] array and each module's own arrays are views of it,
so names, checkpoints and inference read the values that training updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .nn import (COMPONENT_KEYS, ComponentSet, build_component_set,
                 load_params, save_params, stack_component_sets)

MODULES = ("invariant", "discriminative")


class Variant(str, Enum):
    SOURCE_ONLY = "source_only"
    DANN = "dann"
    MCD = "mcd"
    MCD_DANN = "mcd_dann"
    OURS = "ours"
    OURS_1M = "ours_1m"
    OURS_2M = "ours_2m"

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(v.value for v in cls)
        raise ContractError(f"unknown variant {value!r}; valid values: {valid}")


@dataclass
class DualModel:
    invariant: ComponentSet
    discriminative: ComponentSet

    def __post_init__(self):
        shapes1 = {n: a.shape for n, a in self.invariant.named_arrays()}
        shapes2 = {n: a.shape for n, a in self.discriminative.named_arrays()}
        if shapes1 != shapes2:
            raise ContractError("modules must be structurally identical")
        ids1 = {id(a) for _, a in self.invariant.named_arrays()}
        ids2 = {id(a) for _, a in self.discriminative.named_arrays()}
        if ids1 & ids2:
            raise ContractError("modules must not share parameter arrays")
        self.buffer, self.stacked = stack_component_sets(
            [self.invariant, self.discriminative])

    def modules(self, names: Tuple[str, ...] = MODULES
                ) -> Tuple[ComponentSet, Tuple[str, ...]]:
        """The named modules as one set to bind, with the name prefix of
        each slice: one module's own set, or the stacked set of both."""
        if names == MODULES:
            return self.stacked, tuple(f"{m}." for m in MODULES)
        if len(names) != 1 or names[0] not in MODULES:
            raise ContractError(f"no module set {names!r}")
        return getattr(self, names[0]), (f"{names[0]}.",)

    @classmethod
    def build(cls, input_dim: int, feature_dim: int, num_classes: int, seed,
              g_hidden: Sequence[int] = (64,),
              head_hidden: Sequence[int] = (16,)) -> "DualModel":
        s1, s2 = np.random.SeedSequence(seed).spawn(2)
        kw = dict(g_hidden=tuple(g_hidden), head_hidden=tuple(head_hidden))
        return cls(
            invariant=build_component_set(input_dim, feature_dim, num_classes, s1, **kw),
            discriminative=build_component_set(input_dim, feature_dim, num_classes, s2, **kw),
        )

    @property
    def input_dim(self) -> int:
        return self.invariant.extractor.in_dim

    def named_parameters(self) -> Dict[str, np.ndarray]:
        out = dict(self.invariant.named_arrays("invariant."))
        out.update(self.discriminative.named_arrays("discriminative."))
        return out

    def save(self, path) -> None:
        save_params(path, self.named_parameters())

    def load_state(self, named: Dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        if set(named) != set(params):
            missing = set(params) - set(named)
            extra = set(named) - set(params)
            raise ContractError(
                f"parameter name mismatch (missing {sorted(missing)}, "
                f"unexpected {sorted(extra)})")
        for name, arr in params.items():
            src = named[name]
            if src.shape != arr.shape:
                raise ContractError(
                    f"shape mismatch for {name}: {src.shape} vs {arr.shape}")
            if not np.isfinite(src).all():
                raise ContractError(f"parameter {name} holds NaN or Inf")
        for name, arr in params.items():
            arr[...] = named[name]

    def load(self, path) -> None:
        self.load_state(load_params(path))


class PathOutputs(NamedTuple):
    features: np.ndarray
    transform_out: np.ndarray
    classifier_a_probs: np.ndarray
    classifier_b_probs: np.ndarray
    domain_logits: np.ndarray


def forward_path(comps: ComponentSet, x) -> PathOutputs:
    """Inference-time forward through one module, without a tape; all heads
    read the transform layer's output."""
    feats = comps.extractor.apply(ad.checked_input(x))
    t_out = comps.transform.apply(feats)
    return PathOutputs(feats, t_out,
                       ad.row_softmax(comps.classifier_a.apply(t_out)),
                       ad.row_softmax(comps.classifier_b.apply(t_out)),
                       comps.discriminator.apply(t_out))


def predict(model: DualModel, x) -> np.ndarray:
    """Class indices from the invariant module's primary classifier only,
    computed without a tape.

    Ties are broken toward the lowest class index (np.argmax convention).
    """
    comps = model.invariant
    return predicted_classes(comps.classifier_a.apply(comps.features(x)))


def predicted_classes(logits: np.ndarray) -> np.ndarray:
    """argmax of the primary classifier's softmax: the inference rule."""
    return np.argmax(ad.row_softmax(logits), axis=1)


@dataclass(frozen=True)
class TrainingPlan:
    """Which training steps a variant enables, and on which modules."""

    mcd_modules: Tuple[str, ...]    # modules that run the boundary-learning step
    step2_invariant: str            # "none" | "ce_only" | "adversarial"
    step2_discriminative: bool      # train the second module's own loss
    step3: bool                     # cross-module min-max step

    def trained_components(self) -> frozenset:
        """Exact set of '<module>.<component>' keys this plan may update."""
        comps = set()
        for m in self.mcd_modules:
            comps.update({f"{m}.extractor", f"{m}.transform",
                          f"{m}.classifier_a", f"{m}.classifier_b"})
        if self.step2_invariant != "none":
            comps.update({"invariant.extractor", "invariant.transform",
                          "invariant.classifier_a", "invariant.classifier_b"})
            if self.step2_invariant == "adversarial":
                comps.add("invariant.discriminator")
        if self.step2_discriminative:
            comps.update({f"discriminative.{k}" for k in COMPONENT_KEYS})
        if self.step3:
            comps.update({"invariant.extractor", "invariant.transform",
                          "invariant.classifier_a",
                          "discriminative.extractor", "discriminative.transform",
                          "discriminative.classifier_a"})
        return frozenset(comps)


_PLANS = {
    Variant.SOURCE_ONLY: TrainingPlan((), "ce_only", False, False),
    Variant.DANN: TrainingPlan((), "adversarial", False, False),
    Variant.MCD: TrainingPlan(("invariant",), "none", False, False),
    Variant.MCD_DANN: TrainingPlan(("invariant",), "adversarial", False, False),
    Variant.OURS: TrainingPlan((), "adversarial", True, True),
    Variant.OURS_1M: TrainingPlan(("invariant",), "adversarial", True, True),
    Variant.OURS_2M: TrainingPlan(("invariant", "discriminative"),
                                  "adversarial", True, True),
}


def variant_plan(variant: Variant) -> TrainingPlan:
    return _PLANS[Variant(variant)]
