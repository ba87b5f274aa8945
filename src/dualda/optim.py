"""SGD with momentum and the two annealing schedules.

lr follows eta0 / (1 + alpha*p)^beta and the adversarial weight follows
2 / (1 + exp(-gamma*p)) - 1, with p the training progress in [0, 1].

``SGD`` steps parameters through the flat buffer they are views of (one
``DualModel.buffer`` holds both modules): one velocity element per
parameter element, and an update is a few numpy calls per contiguous range
of the buffer (one range per module for every update that training makes)
plus one per array, to add its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ContractError

# a parameter's name, or the name of each slice of a stacked parameter
NameKey = Union[str, Tuple[str, ...]]


@dataclass(frozen=True)
class Schedule:
    eta0: float = 0.002
    alpha: float = 10.0
    beta: float = 0.75
    gamma: float = 10.0
    momentum: float = 0.9

    def __post_init__(self):
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
    p = _check_progress(p)
    return s.eta0 / (1.0 + s.alpha * p) ** s.beta


def lambda_at(s: Schedule, p: float) -> float:
    p = _check_progress(p)
    return 2.0 / (1.0 + math.exp(-s.gamma * p)) - 1.0


class SGD:
    """Momentum SGD that steps every parameter through the buffer it lies in.

    A parameter is a float64 array: a view into a flat store (the array
    that owns its data, such as ``DualModel.buffer``), or a plain array,
    which is its own buffer. It is named by one str, or by a tuple with one
    name per slice of a stacked [M, ...] array; lr is one float, or one per
    slice. The optimizer keeps one velocity element per buffer element, so
    a velocity belongs to the elements it moves, whatever their name. A
    step decays the velocity of each contiguous range of the buffer that
    its parameters cover, adds each gradient at its parameter's place, and
    moves each range at its slice's lr: a few numpy calls per range and
    one per array, with the per-element arithmetic of updating array by
    array, so the same bits.
    Each update checks that its parameters stayed finite, so training that
    diverges stops at the first update that produced NaN or Inf (forward
    passes bind parameters without checking them), naming the slice.
    """

    def __init__(self, momentum: float = 0.9):
        if not 0 <= momentum < 1:
            raise ContractError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = momentum
        # id(buffer) -> (buffer, its flat view, flat velocity, its address)
        self._buffers: Dict[int, tuple] = {}
        # id(param) -> (param, buffer entry, velocity view, span per slice);
        # the entry keeps param alive, so its id names it for good
        self._places: Dict[int, tuple] = {}
        # param ids -> [(buffer entry, slice, start, stop)]
        self._runs: Dict[tuple, list] = {}

    def _place(self, param: np.ndarray, names: Tuple[str, ...]) -> tuple:
        """Where param lies in its buffer: the buffer's entry, the view of
        the velocity at param's place, and the [start, stop) element span
        of each of its slices."""
        place = self._places.get(id(param))
        if place is not None:
            return place
        buffer = param if param.base is None else param.base
        stacked = len(names) > 1
        if not (isinstance(buffer, np.ndarray) and param.dtype == np.float64
                and buffer.dtype == np.float64 and buffer.flags.c_contiguous
                and (param[0] if stacked else param).flags.c_contiguous):
            raise ContractError(f"sgd: parameter {names[0]} is not a "
                                f"contiguous range of a float64 array")
        entry = self._buffers.get(id(buffer))
        if entry is None:
            flat = buffer.reshape(-1)
            entry = self._buffers[id(buffer)] = (
                buffer, flat, np.zeros_like(flat),
                buffer.__array_interface__["data"][0])
        start = (param.__array_interface__["data"][0] - entry[3]) // 8
        size, step = ((param[0].size, param.strides[0] // 8) if stacked
                      else (param.size, 0))
        spans = [(start + m * step, start + m * step + size)
                 for m in range(len(names))]
        velocity = np.ndarray(param.shape, np.float64, entry[2], start * 8,
                              param.strides)
        place = self._places[id(param)] = (param, entry, velocity, spans)
        return place

    @staticmethod
    def _merge(places: Sequence[tuple]) -> list:
        """The spans of the places' slices, joined into maximal contiguous
        runs per buffer and slice index (the slice's lr)."""
        groups: Dict[tuple, tuple] = {}
        for _, entry, _, spans in places:
            for m, span in enumerate(spans):
                groups.setdefault((id(entry[0]), m), (entry, m, []))[2].append(span)
        runs = []
        for entry, k, spans in groups.values():
            spans.sort()
            start, stop = spans[0]
            for s, e in spans[1:]:
                if s < stop:
                    raise ContractError("sgd: one step names a parameter twice")
                if s > stop:
                    runs.append((entry, k, start, stop))
                    start = s
                stop = e
            runs.append((entry, k, start, stop))
        return runs

    def step(self, named: Iterable[Tuple[NameKey, np.ndarray,
                                         Optional[np.ndarray]]],
             lr: Union[float, Sequence[float]]) -> None:
        rates = None if np.isscalar(lr) else np.asarray(lr, dtype=np.float64)
        items = []
        for name, param, grad in named:
            names = (name,) if isinstance(name, str) else name
            if grad is None:
                raise ContractError(
                    f"sgd: missing gradient for {', '.join(names)}")
            items.append((names, self._place(param, names), grad))
        key = tuple(id(place[0]) for _, place, _ in items)
        runs = self._runs.get(key)
        if runs is None:
            runs = self._runs[key] = self._merge(
                [place for _, place, _ in items])
        for (_, _, velocity, _), _, start, stop in runs:
            v = velocity[start:stop]
            v *= self.momentum
        for _, (_, _, velocity, _), grad in items:
            velocity += grad
        for (_, flat, velocity, _), k, start, stop in runs:
            p = flat[start:stop]
            p -= (lr if rates is None else rates[k]) * velocity[start:stop]
        if not all(np.isfinite(entry[1][start:stop]).all()
                   for entry, _, start, stop in runs):
            self._diverged(items, lr, rates)

    @staticmethod
    def _diverged(items, lr, rates) -> None:
        """Name the first slice, in step order, that is no longer finite."""
        for names, (param, *_), _ in items:
            for m, part in enumerate(param if len(names) > 1 else (param,)):
                if not np.isfinite(part).all():
                    raise ContractError(
                        f"sgd: parameter {names[m]} is no longer finite after "
                        f"an update with lr "
                        f"{lr if rates is None else rates[m]:g}; training "
                        f"diverged")
