"""The benchmark's tracer rebinds package callables by name and reads
their arguments: renaming one it wraps, calling a training step other than
through its module global, or an op whose operands the tracer cannot read
(a stacked record) must fail here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import dualda
import dualda.trainer as trainer
from dualda.data import domain_shift, gen_two_moons, num_batch_pairs
from dualda.optim import Schedule

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
_spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _traced_train(variant):
    source = gen_two_moons(48, 0.1, seed=1)
    target = domain_shift(gen_two_moons(48, 0.1, seed=2), 40.0)
    # two epochs: for ours_2m epoch 1 is the step-1 warmup and epoch 2 runs
    # steps 2 and 3 once per batch; dann runs step 2 in both
    config = dualda.TrainConfig(variant=variant, epochs=2, batch_size=16,
                                eval_every=1, feature_dim=4, g_hidden=(6,),
                                head_hidden=(4,), schedule=Schedule(eta0=0.01))
    untraced = trainer.step2_modules
    with tracing.install(tracing.Tracer()) as tracer:
        assert trainer.step2_modules is not untraced
        dualda.train(config, source, target)
    n_pairs = num_batch_pairs(source, target, config.batch_size)
    return tracing.layer_metrics(tracer), n_pairs, config.k


def test_tracer_sees_every_train_step_and_restores_the_originals():
    originals = {name: getattr(trainer, name)
                 for name in (*tracing.TRAIN_STEPS, "train")}
    metrics, n_pairs, k = _traced_train("ours_2m")
    assert metrics["trainer.step1_mcd.calls"][0] == n_pairs
    assert metrics["trainer.step2_modules.calls"][0] == n_pairs
    assert metrics["trainer.step3_dual.calls"][0] == n_pairs
    assert metrics["trainer.compute_metrics.calls"][0] == 2
    # both modules train as one stacked graph: one backward per loss term
    # and one SGD step per update, whatever the number of modules; step 1
    # runs 2 + k updates per batch, step 2 one, step 3 one with two terms
    assert metrics["autodiff.backward.calls"][0] == n_pairs * (2 + k) + n_pairs * 3
    assert metrics["optim.SGD.step.calls"][0] == n_pairs * (2 + k) + n_pairs * 2
    assert all(getattr(trainer, name) is fn for name, fn in originals.items())


def test_tracer_counts_a_one_module_variant():
    metrics, n_pairs, _ = _traced_train("dann")
    assert metrics["trainer.step1_mcd.calls"][0] == 0
    assert metrics["trainer.step2_modules.calls"][0] == 2 * n_pairs
    assert metrics["trainer.step3_dual.calls"][0] == 0
    assert metrics["autodiff.backward.calls"][0] == 2 * n_pairs
    assert metrics["optim.SGD.step.calls"][0] == 2 * n_pairs
    assert metrics["autodiff.fwd.matmul.gflop"][0] > 0
