"""SGD with momentum and the two annealing schedules.

lr follows eta0 / (1 + alpha*p)^beta and the adversarial weight follows
2 / (1 + exp(-gamma*p)) - 1, with p the training progress in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

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

    Each update checks that its parameter stayed finite, so training that
    diverges stops at the first update that produced NaN or Inf (forward
    passes bind parameters without checking them).
    """

    def __init__(self, momentum: float = 0.9):
        if not 0 <= momentum < 1:
            raise ContractError(f"momentum must lie in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self, named: Iterable[Tuple[str, np.ndarray, Optional[np.ndarray]]],
             lr: float) -> None:
        for name, param, grad in named:
            if grad is None:
                raise ContractError(f"sgd: missing gradient for {name}")
            v = self._velocity.get(name)
            if v is None:
                v = np.zeros_like(param)
                self._velocity[name] = v
            v *= self.momentum
            v += grad
            param -= lr * v
            if not np.isfinite(param).all():
                raise ContractError(
                    f"sgd: parameter {name} is no longer finite after an "
                    f"update with lr {lr:g}; training diverged")
