"""Golden run: one short fixed ``ours_2m`` training pinned bit for bit.

Any refactor or speed-up must leave the final parameters and the metrics
rows of this run unchanged. The run covers step 1 on both modules (the
first epoch is the warmup), then step 2 and step 3.
"""

import hashlib

import numpy as np

from dualda.data import domain_shift, gen_two_moons
from dualda.model import Variant
from dualda.optim import Schedule
from dualda.trainer import TrainConfig, train

GOLDEN_PARAMS_SHA256 = (
    "3d300f3f6533971c964c9179c2652745413d13afafebdc83ab020db477348715")
GOLDEN_METRICS_REPR = (
    "[[2, 1.4799209801055517, 1.3648441247696361, 1.402467646519534, "
    "0.14528777444433089, 0.21657384618949396, 0.054059570832338574, 0.5, "
    "0.625], [4, 1.4102106561683443, 1.366252269834868, 1.3995367806995107, "
    "0.16802262691348213, 0.14818749629557038, 0.058037988956384096, 0.5, "
    "0.5625]]")


def _golden_run():
    source = gen_two_moons(48, 0.1, seed=1)
    target = domain_shift(gen_two_moons(48, 0.1, seed=2), 40.0)
    config = TrainConfig(variant=Variant.OURS_2M, epochs=4, batch_size=16,
                         eval_every=2, feature_dim=4, g_hidden=(6,),
                         head_hidden=(4,), seed=3,
                         schedule=Schedule(eta0=0.012))
    return train(config, source, target)


def params_digest(named) -> str:
    """sha256 over sorted names, each followed by its float64 LE bytes."""
    h = hashlib.sha256()
    for name in sorted(named):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(named[name], dtype="<f8").tobytes())
    return h.hexdigest()


def test_golden_ours_2m_run():
    model, records = _golden_run()
    assert params_digest(model.named_parameters()) == GOLDEN_PARAMS_SHA256
    assert repr([r.row() for r in records]) == GOLDEN_METRICS_REPR
