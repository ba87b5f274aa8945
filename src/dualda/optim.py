"""SGD with momentum and the two annealing schedules.

lr follows eta0 / (1 + alpha*p)^beta and the adversarial weight follows
2 / (1 + exp(-gamma*p)) - 1, with p the training progress in [0, 1].
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
    """Momentum SGD with one velocity buffer per named parameter.

    A parameter is named by one str, or by a tuple with one name per slice
    of a stacked [M, ...] array; lr is one float, or one per slice. Each
    update checks that its parameter stayed finite, so training that
    diverges stops at the first update that produced NaN or Inf (forward
    passes bind parameters without checking them), naming the slice.
    """

    def __init__(self, momentum: float = 0.9):
        if not 0 <= momentum < 1:
            raise ContractError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: Dict[NameKey, np.ndarray] = {}

    def step(self, named: Iterable[Tuple[NameKey, np.ndarray,
                                         Optional[np.ndarray]]],
             lr: Union[float, Sequence[float]]) -> None:
        rates = None if np.isscalar(lr) else np.asarray(lr, dtype=np.float64)
        for name, param, grad in named:
            names = (name,) if isinstance(name, str) else name
            if grad is None:
                raise ContractError(
                    f"sgd: missing gradient for {', '.join(names)}")
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(param)
                self._velocity[name] = v
            v *= self.momentum
            v += grad
            if rates is None:
                param -= lr * v
            else:
                param -= rates.reshape((-1,) + (1,) * (param.ndim - 1)) * v
            if not np.isfinite(param).all():
                m = 0 if len(names) == 1 else next(
                    i for i in range(len(names)) if not np.isfinite(param[i]).all())
                raise ContractError(
                    f"sgd: parameter {names[m]} is no longer finite after an "
                    f"update with lr {lr if rates is None else rates[m]:g}; "
                    f"training diverged")
