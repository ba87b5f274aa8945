"""Golden runs: short fixed trainings pinned bit for bit.

Any refactor or speed-up must leave the final parameters and the metrics
rows of these runs unchanged. The ``ours_2m`` run covers step 1 on both
modules (the first epoch is the warmup), then step 2 and step 3; the
per-variant runs pin every variant's composition of the steps with k = 3.
"""

import hashlib

import numpy as np
import pytest

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


# variant -> (params digest, sha256 of the metrics rows' repr), k = 3
GOLDEN_VARIANTS = {
    "source_only": (
        "b13f8e04bff40bfda05b750397ae6ec2783adb02f4a0134f8bdbed0ac3d62336",
        "d8e730c2b6bcbddfd7de0a63deaf56e196a657099a6581eafdeb10f9a22169d7"),
    "dann": (
        "dc9fef7ef5aa3dd81940375ef741513c9329ffa21549b8f93cc6d865ee963742",
        "c20b61d54e1d44e44c73961b9e20b3658d22239aa748f5ff32b84c7a92b6996d"),
    "mcd": (
        "3a2dae93958311f2de143ee6a360bdf03a00ecfab8aa81f92c935782961cab66",
        "2f434dcd89651e90ec3d6d6db37540dcb6e53cba047e573deef1a36c3d3063c7"),
    "mcd_dann": (
        "6d708feab5825fad97e537efd92be21b42ff837c936314940a0cbc9d5335a9f5",
        "28e0bad9165ee16e72d1fca91c3933dfc6dd4443177b25ea9e923eae9052fe4e"),
    "ours": (
        "133fb37dd1d21b0e6d80231c7719fd4f9162e03d675722f6942fc06377c025a8",
        "70fb196114a107d960f3ad5dd7870470393099e780fde595a392b27bc0ed1aa9"),
    "ours_1m": (
        "8e77e5901de510a830213b014c3c645a029614a83dd3ae508d0f9844f19f9110",
        "c3eef4f63d822aed3eccede2d64ed8d3e19614e70435e366284d269a23795a69"),
    "ours_2m": (
        "c16aebf39dd64a71126b78c9604c114d6b39bba994f49736521e5b9f37686b73",
        "27ec9d4689d388b5c69483b83b6815f5094f6bf8c6a8a08e002e901b61ee06e4"),
}


def _golden_run(variant=Variant.OURS_2M, **kw):
    source = gen_two_moons(48, 0.1, seed=1)
    target = domain_shift(gen_two_moons(48, 0.1, seed=2), 40.0)
    config = TrainConfig(variant=variant, epochs=4, batch_size=16,
                         eval_every=2, feature_dim=4, g_hidden=(6,),
                         head_hidden=(4,), seed=3,
                         schedule=Schedule(eta0=0.012), **kw)
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


@pytest.mark.parametrize("variant", list(GOLDEN_VARIANTS))
def test_golden_run_of_each_variant(variant):
    model, records = _golden_run(Variant(variant), k=3)
    rows = repr([r.row() for r in records]).encode("utf-8")
    assert (params_digest(model.named_parameters()),
            hashlib.sha256(rows).hexdigest()) == GOLDEN_VARIANTS[variant]
