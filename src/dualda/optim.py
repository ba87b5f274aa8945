"""SGD with momentum and the two annealing schedules.

lr follows eta0 / (1 + alpha*p)^beta and the adversarial weight follows
2 / (1 + exp(-gamma*p)) - 1, with p the training progress in [0, 1].

``SGD`` steps parameters through the flat buffer they are views of (one
``DualModel.buffer`` holds both modules): one velocity element and one
gradient element per parameter element, and an update is a few numpy calls
per contiguous range of the buffer (one range per module for every update
that training makes). A backward writes each gradient straight into its
parameter's view of the gradient store (``SGD.grad_view``); any other
gradient is copied there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
    """Momentum SGD that steps every parameter through the buffer it lies in.

    A parameter is a float64 array: a view into a flat store (the array
    that owns its data, such as ``DualModel.buffer``), or a plain array,
    which is its own buffer. It is named by one str, or by a tuple with one
    name per slice of a stacked [M, ...] array; lr is one float, or one per
    slice. The optimizer keeps a velocity store and a gradient store laid
    out like each buffer, so a velocity belongs to the elements it moves,
    whatever their name. A step takes each gradient in the gradient store:
    as it is when it is the parameter's own view of the store
    (``grad_view``), else copied there. Then it decays the velocity of each
    contiguous range of the buffer that its parameters cover, adds the
    range's gradients and moves the range at its slice's lr: a few numpy
    calls per range, with the per-element arithmetic of updating array by
    array, so the same bits.
    Each update checks that its parameters stayed finite, so training that
    diverges stops at the first update that produced NaN or Inf (forward
    passes bind parameters without checking them), naming the slice.
    """

    def __init__(self, momentum: float = 0.9):
        if not 0 <= momentum < 1:
            raise ContractError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = momentum
        # id(buffer) -> (buffer, its flat view, flat velocity, flat gradient
        # store, its address)
        self._buffers: Dict[int, tuple] = {}
        # id(param) -> (param, buffer entry, gradient view, span per slice);
        # the entry keeps param alive, so its id names it for good
        self._places: Dict[int, tuple] = {}
        # param ids -> [(velocity, gradients, parameters, lr index)] per
        # block of the buffer that a step with these parameters moves
        self._blocks_of: Dict[tuple, list] = {}
        # id(items tuple) -> its layout (see _layout)
        self._layouts: Dict[int, tuple] = {}

    def _place(self, param: np.ndarray, name: NameKey) -> tuple:
        """Where param lies in its buffer: the buffer's entry, the view of
        the gradient store at param's place, and the [start, stop) element
        span of each of its slices."""
        place = self._places.get(id(param))
        if place is not None:
            return place
        names = (name,) if isinstance(name, str) else name
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
                buffer, flat, np.zeros_like(flat), np.zeros_like(flat),
                buffer.__array_interface__["data"][0])
        start = (param.__array_interface__["data"][0] - entry[4]) // 8
        size, step = ((param[0].size, param.strides[0] // 8) if stacked
                      else (param.size, 0))
        spans = [(start + m * step, start + m * step + size)
                 for m in range(len(names))]
        grad = np.ndarray(param.shape, np.float64, entry[3], start * 8,
                          param.strides)
        place = self._places[id(param)] = (param, entry, grad, spans)
        return place

    def grad_view(self, name: NameKey, param: np.ndarray) -> np.ndarray:
        """The gradient store's view at param's place: a gradient written
        there is stepped without a copy."""
        return self._place(param, name)[2]

    @staticmethod
    def _blocks(places: Sequence[tuple]) -> list:
        """The spans of the places' slices, joined into maximal contiguous
        runs of one slice index (the slice's lr) per buffer. A buffer's runs
        of one length at an even spacing (the slices of stacked modules)
        form one [runs, length] block, any other run a block of its own;
        each block as views of the velocity, gradient and parameter stores,
        with the index of its rows' lr."""
        groups: Dict[int, tuple] = {}
        for _, entry, _, spans in places:
            for k, (start, stop) in enumerate(spans):
                groups.setdefault(id(entry[0]), (entry, []))[1].append(
                    (start, stop, k))
        blocks = []
        for (_, flat, velocity, grads, _), spans in groups.values():
            spans.sort()
            runs = [list(spans[0])]
            for start, stop, k in spans[1:]:
                if start < runs[-1][1]:
                    raise ContractError("sgd: one step names a parameter twice")
                if start > runs[-1][1] or k != runs[-1][2]:
                    runs.append([start, stop, k])
                runs[-1][1] = stop
            lengths = {stop - start for start, stop, _ in runs}
            spacings = {b[0] - a[0] for a, b in zip(runs, runs[1:])}
            if len(runs) > 1 and len(lengths) == 1 and len(spacings) == 1:
                specs = [(runs[0][0], (len(runs), lengths.pop()),
                          (8 * spacings.pop(), 8),
                          np.array([[k] for *_, k in runs]))]
            else:
                specs = [(start, (stop - start,), (8,), k)
                         for start, stop, k in runs]
            blocks += [(*(np.ndarray(shape, np.float64, store, 8 * start,
                                     strides)
                          for store in (velocity, grads, flat)), rows)
                       for start, shape, strides, rows in specs]
        return blocks

    def _layout(self, named) -> tuple:
        """(named, its (name, place) items, the blocks they cover), each
        gradient taken into the store: as it is when it is its parameter's
        own view (grad_view), else copied there. A tuple of items whose
        every gradient is such a view is remembered, so that a step given
        it again (a call site's items, as the trainer keeps them) reads
        this layout and does not go through the items; the tuple cannot
        change, and the memo keeps it alive, so its id names it."""
        places, items, key, copied = self._places, [], [], False
        for name, param, grad in named:
            if grad is None:
                raise ContractError(
                    f"sgd: missing gradient for "
                    f"{name if isinstance(name, str) else ', '.join(name)}")
            place = places.get(id(param)) or self._place(param, name)
            if grad is not place[2]:
                np.copyto(place[2], grad)
                copied = True
            items.append((name, place))
            key.append(id(param))
        key = tuple(key)
        blocks = self._blocks_of.get(key)
        if blocks is None:
            blocks = self._blocks_of[key] = self._blocks(
                [place for _, place in items])
        layout = (named, items, blocks)
        if isinstance(named, tuple) and not copied:
            self._layouts[id(named)] = layout
        return layout

    def step(self, named: Iterable[Tuple[NameKey, np.ndarray,
                                         Optional[np.ndarray]]],
             lr: Union[float, Sequence[float]]) -> None:
        rates = None if np.isscalar(lr) else np.asarray(lr, dtype=np.float64)
        if rates is not None and rates.ndim == 0:  # one lr, as an array
            lr, rates = float(rates), None
        layout = self._layouts.get(id(named))
        if layout is None or layout[0] is not named:
            layout = self._layout(named)
        _, items, blocks = layout
        momentum = self.momentum
        for velocity, grads, params, rows in blocks:
            velocity *= momentum
            velocity += grads
            params -= (lr if rates is None else rates[rows]) * velocity
        if not all(np.isfinite(params).all() for _, _, params, _ in blocks):
            self._diverged(items, lr, rates)

    @staticmethod
    def _diverged(items, lr, rates) -> None:
        """Name the first slice, in step order, that is no longer finite."""
        for name, (param, *_) in items:
            names = (name,) if isinstance(name, str) else name
            for m, part in enumerate(param if len(names) > 1 else (param,)):
                if not np.isfinite(part).all():
                    raise ContractError(
                        f"sgd: parameter {names[m]} is no longer finite after "
                        f"an update with lr "
                        f"{lr if rates is None else rates[m]:g}; training "
                        f"diverged")
