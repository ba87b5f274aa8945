"""The benchmark's tracer rebinds package callables by name: renaming one
it wraps, or calling a training step other than through its module
global, must fail here and not only in a traced benchmark run."""

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


def test_tracer_sees_every_train_step_and_restores_the_originals():
    originals = {name: getattr(trainer, name)
                 for name in (*tracing.TRAIN_STEPS, "train")}
    source = gen_two_moons(48, 0.1, seed=1)
    target = domain_shift(gen_two_moons(48, 0.1, seed=2), 40.0)
    # two epochs of ours_2m: epoch 1 is the step-1 warmup, epoch 2 runs
    # steps 2 and 3 once per batch
    config = dualda.TrainConfig(variant="ours_2m", epochs=2, batch_size=16,
                                eval_every=1, feature_dim=4, g_hidden=(6,),
                                head_hidden=(4,), schedule=Schedule(eta0=0.01))
    with tracing.install(tracing.Tracer()) as tracer:
        assert trainer.step2_modules is not originals["step2_modules"]
        dualda.train(config, source, target)
    metrics = tracing.layer_metrics(tracer)
    n_pairs = num_batch_pairs(source, target, config.batch_size)
    assert metrics["trainer.step2_modules.calls"][0] == n_pairs
    assert metrics["trainer.step3_dual.calls"][0] == n_pairs
    assert metrics["trainer.compute_metrics.calls"][0] == 2
    assert all(getattr(trainer, name) is fn for name, fn in originals.items())
