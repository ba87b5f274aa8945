"""The benchmark's three workloads.

Each workload makes all of its inputs from the workload seed in ``setup``,
runs its timed ``body`` through the public API only (``dualda.train``,
``dualda.predict``, ``dualda.cli.main``), and ``inspect`` turns the body's
result into the trained model, a parameter digest and the workload's own
correctness checks. The benchmark times ``body`` and traces ``setup`` and
``body``; ``inspect`` runs outside both.

- moons_b16: 500+500 two moons, target rotated 40 degrees, batch 16. Tiny
  arrays, so Python bookkeeping per tape op dominates.
- idx_b128: 28x28 uint8 images in 10 classes, written as IDX files and read
  back with load_idx, batch 128. 784-wide inputs, so numpy array work
  dominates.
- ablate_blobs: `dualda ablate` over all 7 variants on a 3-class blobs
  config with eval_every = 1: the CLI, its CSV/manifest/checkpoint output
  and full-dataset evaluation beside small-batch training.
"""

from __future__ import annotations

import functools
import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import dualda
import dualda.cli

# Short repeats, so that a run holds tens of them. With ours_2m, 3 epochs
# split the step invocations into equal thirds of steps 1, 2 and 3, so the
# median of the per-update samples falls in the middle of the step-2
# samples and the 90th percentile among the step-3 samples, not on a
# border between two kinds of step.
MOONS_EPOCHS = 3         # the ROADMAP ordering config, cut from 60 epochs
IDX_IMAGES = 2560        # per domain: 119 step invocations, so 11 samples lie beyond the 90th percentile
IDX_EPOCHS = 3
ABLATE_EPOCHS = 2
ABLATE_TRIALS = 2
ABLATE_CONFIG = """\
variant = ours_2m
dataset = blobs
blob_classes = 3
n_source = 500
n_target = 500
batch_size = 64
epochs = {epochs}
eval_every = 1
trials = {trials}
eta0 = 0.012
seed = {seed}
"""


def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def param_digest(named: dict) -> str:
    """sha256 over sorted parameter names, shapes and float64 LE bytes."""
    h = hashlib.sha256()
    for name in sorted(named):
        arr = np.ascontiguousarray(named[name], dtype="<f8")
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class BodyClock:
    """The progress callback of one run of a body. It takes one sample per
    step invocation: the time between two consecutive callbacks of one
    train() call, in ms per update that invocation performed. It also marks
    the time of every callback and of every entry into and exit from
    train(), so that the body splits into segments that every repeat of it
    has in the same order."""

    def __init__(self):
        self.update_ms: list = []
        self.total_updates = 0      # the final progress totals, summed
        self.marks: list = []       # (time, whether the segment it opens is in train())
        self._last = None           # (time, done) at the previous callback
        self._total = 0

    def __call__(self, done, total, p):
        now = perf_counter()
        if self._last is not None:
            then, done_then = self._last
            self.update_ms.append((now - then) * 1e3 / (done - done_then))
        self._last = (now, done)
        self._total = total
        self.marks.append((now, True))

    def timed_train(self, train, config, source, target, checkpoint_dir=None):
        self._last, self._total = None, 0
        self.marks.append((perf_counter(), True))
        result = train(config, source, target, checkpoint_dir, progress=self)
        self.marks.append((perf_counter(), False))
        self.total_updates += self._total
        return result


@dataclass
class Repeat:
    """What one run of a workload's body produced, as the checks see it."""

    model: object                       # dualda.DualModel to predict with
    x_predict: np.ndarray               # target features for predict
    params: dict                        # every trained parameter, by name
    tgt_acc: float
    checks: dict = field(default_factory=dict)   # check name -> passed
    outputs: dict = field(default_factory=dict)  # file -> bytes, must repeat

    @property
    def digest(self) -> str:
        return param_digest(self.params)


@dataclass
class TrainInputs:
    config: object
    source: object
    target: object


class _TrainWorkload:
    """A workload whose timed body is one dualda.train() call."""

    def body(self, inputs: TrainInputs, tmp: Path, rep: int):
        clock = BodyClock()
        model, records = clock.timed_train(dualda.train, inputs.config,
                                           inputs.source, inputs.target)
        return clock, (model, records)

    def inspect(self, inputs: TrainInputs, result) -> Repeat:
        model, records = result
        return Repeat(model=model, x_predict=inputs.target.features,
                      params=model.named_parameters(),
                      tgt_acc=records[-1].tgt_acc)


class MoonsB16(_TrainWorkload):
    name = "moons_b16"

    def setup(self, seed: int, tmp: Path) -> TrainInputs:
        source = dualda.gen_two_moons(500, 0.1, derived_seed(seed, 0))
        target = dualda.domain_shift(
            dualda.gen_two_moons(500, 0.1, derived_seed(seed, 1)), 40.0)
        config = dualda.TrainConfig(
            variant="ours_2m", epochs=MOONS_EPOCHS, batch_size=16,
            eval_every=MOONS_EPOCHS, seed=seed,
            schedule=dualda.Schedule(eta0=0.012, momentum=0.9))
        return TrainInputs(config, source, target)


def _idx_images(rng, labels: np.ndarray) -> np.ndarray:
    """One bright bar per class at its own place, under Gaussian noise."""
    protos = np.zeros((10, 28, 28))
    for c in range(10):
        row, col = divmod(c, 5)
        protos[c, 2 + 12 * row:12 + 12 * row, 1 + 5 * col:6 + 5 * col] = 255.0
    noisy = 0.7 * protos[labels] + rng.normal(0.0, 35.0, (len(labels), 28, 28))
    return np.clip(noisy, 0, 255).astype(np.uint8)


class IdxB128(_TrainWorkload):
    name = "idx_b128"

    def setup(self, seed: int, tmp: Path) -> TrainInputs:
        rng = np.random.default_rng(derived_seed(seed, 2))
        domains = {}
        for tag in ("source", "target"):
            labels = rng.permutation(np.arange(IDX_IMAGES) % 10).astype(np.uint8)
            images = _idx_images(rng, labels)
            if tag == "target":   # intensity shift: lower contrast, brighter
                images = (0.5 * images + 100).astype(np.uint8)
            dualda.write_idx_images(tmp / f"{tag}-images.idx", images)
            dualda.write_idx_labels(tmp / f"{tag}-labels.idx", labels)
            domains[tag] = dualda.load_idx(tmp / f"{tag}-images.idx",
                                           tmp / f"{tag}-labels.idx", tag)
        config = dualda.TrainConfig(
            variant="ours_2m", epochs=IDX_EPOCHS, batch_size=128,
            eval_every=IDX_EPOCHS, seed=seed, schedule=dualda.Schedule())
        return TrainInputs(config, domains["source"], domains["target"])


class AblateBlobs:
    name = "ablate_blobs"

    def setup(self, seed: int, tmp: Path) -> Path:
        path = tmp / "blobs.cfg"
        path.write_text(ABLATE_CONFIG.format(epochs=ABLATE_EPOCHS,
                                             trials=ABLATE_TRIALS, seed=seed))
        return path

    def body(self, config_path: Path, tmp: Path, rep: int):
        out = tmp / f"ablate-{rep}"
        clock = BodyClock()
        train = dualda.cli.train

        @functools.wraps(train)
        def train_with_clock(config, source, target, checkpoint_dir=None,
                             progress=None):
            return clock.timed_train(train, config, source, target,
                                     checkpoint_dir)

        # run_experiment passes no progress callback; this one only adds
        # the update clock the training workloads get from their train call
        dualda.cli.train = train_with_clock
        try:
            code = dualda.cli.main(["ablate", "--config", str(config_path),
                                    "--out", str(out)])
        finally:
            dualda.cli.train = train
        return clock, (code, out)

    def inspect(self, config_path: Path, result) -> Repeat:
        code, out = result
        cfg = dualda.parse_config(config_path)
        rows = (out / "ablation.csv").read_text().splitlines()[1:] \
            if (out / "ablation.csv").is_file() else []
        table = dict(line.split(",", 1) for line in rows)
        params = {}
        for ckpt in sorted(out.rglob("checkpoint_*.bin")):
            for name, arr in dualda.load_params(ckpt).items():
                params[f"{ckpt.relative_to(out)}:{name}"] = arr
        source, target = dualda.build_datasets(cfg, cfg.seed)
        checkpoint = out / "blobs" / "ours_2m" / "checkpoint_0.bin"
        model = None
        if checkpoint.is_file():
            model = dualda.DualModel.build(
                source.input_dim, cfg.feature_dim, source.num_classes,
                cfg.seed, g_hidden=(cfg.g_hidden,),
                head_hidden=(cfg.head_hidden,))
            model.load(checkpoint)
        ours = table.get("ours_2m")
        repeat = Repeat(
            model=model, x_predict=target.features, params=params,
            tgt_acc=float(ours.split(",")[0]) if ours else float("nan"),
            checks={"exit_code_0": code == 0,
                    "ablation_csv_7_rows": len(rows) == 7,
                    "no_incomplete_marker": not any(out.rglob("INCOMPLETE"))},
            outputs={str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*.csv"))})
        shutil.rmtree(out)
        return repeat


WORKLOADS = {w.name: w for w in (MoonsB16(), IdxB128(), AblateBlobs())}
