"""compute_metrics runs both modules over the full datasets without a tape
(test_replay checks that it builds none). Its record must be bitwise the
one the tape-built evaluation reads off module_loss, dual_loss and
classifier_discrepancy (oracles.py)."""

import numpy as np
import pytest

import dualda.trainer as trainer
from dualda.data import DomainDataset, domain_shift, gen_blob_shift, gen_two_moons
from dualda.errors import ContractError, DimensionError
from dualda.model import DualModel, Variant
from dualda.optim import Schedule
from dualda.trainer import TrainConfig, compute_metrics, train

from oracles import compute_metrics_on_tape


def _bits(record) -> bytes:
    return np.array(record.row(), dtype=np.float64).tobytes()


def _assert_equals_the_tape(model, source, target, epoch=1):
    got = compute_metrics(model, source, target, epoch)
    want = compute_metrics_on_tape(model, source, target, epoch)
    assert _bits(got) == _bits(want), (got, want)
    return got


def _moons(n_source=60, n_target=60):
    source = gen_two_moons(n_source, 0.1, seed=1)
    return source, domain_shift(gen_two_moons(n_target, 0.1, seed=2), 40.0)


def _blobs(n=90):
    return gen_blob_shift(n, 3, 4.0, (2.0, 0.0), seed=3)


def _wide(n_source=70, n_target=50, width=784, classes=10):
    rng = np.random.default_rng(4)

    def domain(n, tag, shift):
        return DomainDataset(rng.uniform(0.0, 1.0, (n, width)) + shift,
                             rng.integers(0, classes, n), tag, classes)

    return domain(n_source, "source", 0.0), domain(n_target, "target", 0.2)


@pytest.mark.parametrize("variant", list(Variant))
def test_every_recorded_evaluation_of_training_equals_the_tape(monkeypatch,
                                                               variant):
    """Each evaluation train() records, for all 7 variants, on unequal
    domain sizes."""
    source, target = _moons(64, 40)
    seen = []

    def checked(model, source, target, epoch):
        seen.append(_assert_equals_the_tape(model, source, target, epoch))
        return seen[-1]

    monkeypatch.setattr(trainer, "compute_metrics", checked)
    config = TrainConfig(variant=variant, epochs=3, batch_size=16,
                         eval_every=1, feature_dim=6, g_hidden=(8,),
                         head_hidden=(5,), schedule=Schedule(eta0=0.02))
    _, records = train(config, source, target)
    assert records == seen and len(seen) == 3


@pytest.mark.parametrize("data", [_moons, _blobs, _wide,
                                  lambda: _moons(83, 29),
                                  lambda: _wide(30, 90, width=5, classes=4)],
                         ids=["two_moons", "blobs_3", "width_784",
                              "moons_83_29", "wide_30_90"])
@pytest.mark.parametrize("seed", [0, 1])
def test_an_initial_model_evaluates_as_the_tape(data, seed):
    source, target = data()
    model = DualModel.build(source.input_dim, 16, source.num_classes, seed,
                            g_hidden=(24,), head_hidden=(8,))
    _assert_equals_the_tape(model, source, target)


def test_deep_stacks_evaluate_as_the_tape():
    source, target = _blobs(60)
    model = DualModel.build(2, 6, 3, 5, g_hidden=(9, 7), head_hidden=(5, 4))
    _assert_equals_the_tape(model, source, target)


def test_compute_metrics_keeps_the_input_label_and_dimension_checks():
    source, target = _moons()
    model = DualModel.build(2, 8, 2, 0)
    bad = DomainDataset(source.features.copy(), source.labels, "source", 2)
    bad.features[3, 1] = np.nan
    with pytest.raises(ContractError, match="input contains NaN or Inf"):
        compute_metrics(model, bad, target, 1)
    with pytest.raises(ContractError, match="input contains NaN or Inf"):
        compute_metrics(model, source,
                        DomainDataset(bad.features, target.labels, "target", 2),
                        1)
    three = DomainDataset(source.features, source.labels * 2, "source", 3)
    with pytest.raises(ContractError,
                       match=r"cross_entropy: index out of range \[0, 2\)"):
        compute_metrics(model, three, target, 1)
    wide_source, wide_target = _wide(width=3)
    with pytest.raises(DimensionError, match="does not fit a stack of input "
                                             "width 2"):
        compute_metrics(model, wide_source, wide_target, 1)
