"""SGD with momentum and the two annealing schedules.

lr follows eta0 / (1 + alpha*p)^beta and the adversarial weight follows
2 / (1 + exp(-gamma*p)) - 1, with p the training progress in [0, 1].

``SGD`` steps one flat buffer (``DualModel.buffer`` holds both modules).
A backward writes each gradient into its parameter's view of the
optimizer's gradient store (``SGD.grad_view``), and each call site builds
its one block at capture (``SGD.block``): the range of the buffer that its
update trains, one row per module. A step is a few numpy calls per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class Schedule:
    eta0: float = 0.002
    alpha: float = 10.0
    beta: float = 0.75
    gamma: float = 10.0
    momentum: float = 0.9

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ContractError(
                    f"{field.name} must be finite, got {value}")
        if self.eta0 <= 0:
            raise ContractError(f"eta0 must be > 0, got {self.eta0}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ContractError("alpha, beta and gamma must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ContractError(f"momentum must lie in [0, 1), got {self.momentum}")


def _check_progress(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"progress p must lie in [0, 1], got {p}")
    return p


def lr_at(s: Schedule, p: float) -> float:
    """eta0 / (1 + alpha*p)^beta; 0.0 (eta0 / inf) where the power overflows
    float64."""
    p = _check_progress(p)
    try:
        return s.eta0 / (1.0 + s.alpha * p) ** s.beta
    except OverflowError:
        return s.eta0 / math.inf


def lambda_at(s: Schedule, p: float) -> float:
    p = _check_progress(p)
    return 2.0 / (1.0 + math.exp(-s.gamma * p)) - 1.0


class SGD:
    """Momentum SGD on one flat float64 buffer.

    A parameter is a view of the buffer, named by a tuple with one name per
    module: a module's own array, or a stacked [M, ...] array with one
    slice per module; lr is one float, or one per module. The optimizer
    keeps a velocity store and a gradient store of the buffer's size, so a
    velocity belongs to the elements it moves, whatever their name. A step
    decays each block's velocity, adds its gradients and moves it at its
    rows' lr: the per-element arithmetic of updating array by array, so
    the same bits. Each block checks that its parameters stayed finite, so
    training that diverges stops at the first update that produced NaN or
    Inf (forward passes bind parameters without checking them), naming the
    slice.
    """

    def __init__(self, buffer: np.ndarray, momentum: float):
        if not 0 <= momentum < 1:
            raise ContractError(f"momentum must lie in [0, 1), got {momentum}")
        self.buffer, self.momentum = buffer, momentum
        self._velocity, self._grads = np.zeros_like(buffer), np.zeros_like(buffer)

    def _offset(self, names: Tuple[str, ...], param: np.ndarray) -> int:
        """The buffer index of param's first element."""
        if param.base is not self.buffer or param.dtype != np.float64:
            raise ContractError(f"sgd: parameter {names[0]} is not a view of "
                                f"the optimizer's buffer")
        return (param.__array_interface__["data"][0]
                - self.buffer.__array_interface__["data"][0]) // 8

    def grad_view(self, names: Tuple[str, ...], param: np.ndarray
                  ) -> np.ndarray:
        """The gradient store's view at param's place: a gradient written
        there is what a step applies."""
        return np.ndarray(param.shape, np.float64, self._grads,
                          8 * self._offset(names, param), param.strides)

    def block(self, named: Sequence[Tuple[Tuple[str, ...], np.ndarray]]
              ) -> tuple:
        """The block that a step trains for these (slice names, parameter)
        items: the [modules, length] views of the velocity, gradient and
        parameter stores, one row per module, and the items, kept for the
        divergence message. Each item has one slice per module, all at one
        spacing, and each module's slices must cover one gap-free range of
        the buffer, each element once."""
        named = tuple(named)
        rows, spans = len(named[0][0]), []
        for names, param in named:
            part = param[0] if rows > 1 else param
            if len(names) != rows or rows > 1 and len(param) != rows \
                    or not part.flags.c_contiguous:
                raise ContractError(f"sgd: parameter {names[0]} is not one "
                                    f"contiguous slice per module, of {rows}")
            spans.append((self._offset(names, param), part.size,
                          param.strides[0] // 8 if rows > 1 else 0, names))
        start = stop = min(spans)[0]
        spacing = spans[0][2]
        for offset, size, step, names in sorted(spans):
            if offset != stop or step != spacing:
                raise ContractError(
                    f"sgd: parameter {names[0]} does not continue its step's "
                    f"range: a step trains one gap-free range per module, "
                    f"each element once")
            stop += size
        if rows > 1 and spacing < stop - start:
            raise ContractError("sgd: a step's module ranges overlap")
        return (*(np.ndarray((rows, stop - start), np.float64, store,
                             8 * start, (8 * spacing, 8))
                  for store in (self._velocity, self._grads, self.buffer)),
                named)

    def step(self, blocks: Iterable[tuple],
             lr: Union[float, Sequence[float]]) -> None:
        """One update of each block from the gradients in the store."""
        rates = np.asarray(lr, dtype=np.float64)
        for velocity, grads, params, items in blocks:
            if rates.ndim and rates.shape != (len(params),):
                raise ContractError(f"sgd: {rates.size} lr values for a step "
                                    f"of {len(params)} modules")
            velocity *= self.momentum
            velocity += grads
            params -= (rates[:, None] if rates.ndim else rates) * velocity
            if not np.isfinite(params).all():
                self._diverged(items, rates)

    @staticmethod
    def _diverged(items, rates: np.ndarray) -> None:
        """Name the first slice, in step order, that is no longer finite."""
        for names, param in items:
            for m, part in enumerate(param if len(names) > 1 else (param,)):
                if not np.isfinite(part).all():
                    rate = rates[m] if rates.ndim else rates
                    raise ContractError(
                        f"sgd: parameter {names[m]} is no longer finite after "
                        f"an update with lr {rate:g}; training diverged")
