"""Experiment orchestration: config files, multi-trial runs, the ablation
matrix, embedding export, and the `dualda` command line.

Config files are `key = value` lines; a `#` at the start of a line or
after whitespace starts a comment, so a value cannot contain ` #`. A
minimal file needs only `variant` and `dataset`; everything else has
defaults. CSV outputs use '.' decimals, LF line endings, and repr()
floats so reruns are byte-identical.

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Dict, List, Optional, Sequence, Tuple, get_args,
                    get_type_hints)

import numpy as np

from .data import (DomainDataset, dataset_checksum, derived_seed,
                   domain_shift, gen_blob_shift, gen_two_moons, load_idx)
from .errors import ConfigError, ContractError
from .model import DualModel, Variant
from .optim import Schedule
from .trainer import MetricsRecord, TrainConfig, initial_model, train

DATASETS = ("two_moons", "blobs", "idx")
VARIANT_ORDER = tuple(v.value for v in Variant)


@dataclass
class RunConfig:
    variant: str = ""
    dataset: str = ""
    # training; the defaults are the library's
    epochs: int = TrainConfig.epochs
    batch_size: Optional[int] = None   # resolved: 64 synthetic, 128 idx
    k: int = TrainConfig.k
    mcd_warmup: float = TrainConfig.mcd_warmup
    eta0: float = Schedule.eta0
    alpha: float = Schedule.alpha
    beta: float = Schedule.beta
    gamma: float = Schedule.gamma
    momentum: float = Schedule.momentum
    seed: int = TrainConfig.seed
    trials: int = 5
    eval_every: int = TrainConfig.eval_every
    # model
    feature_dim: int = TrainConfig.feature_dim
    g_hidden: int = TrainConfig.g_hidden[0]
    head_hidden: int = TrainConfig.head_hidden[0]
    # synthetic datasets
    n_source: int = 500
    n_target: int = 500
    noise_sigma: float = 0.1
    theta_degrees: float = 40.0
    translate_x: float = 0.0
    translate_y: float = 0.0
    blob_classes: int = 3
    separation: float = 4.0
    shift_x: float = 2.0
    shift_y: float = 0.0
    # idx dataset paths
    source_images: str = ""
    source_labels: str = ""
    target_images: str = ""
    target_labels: str = ""
    # outputs
    out_dir: str = "runs"
    embed_per_domain: int = 1000

    def resolved_batch_size(self) -> int:
        if self.batch_size is not None:
            return self.batch_size
        return TrainConfig.batch_size if self.dataset == "idx" else 64

    def train_config(self, trial_seed: int) -> TrainConfig:
        return TrainConfig(
            variant=Variant(self.variant),
            epochs=self.epochs,
            batch_size=self.resolved_batch_size(),
            k=self.k,
            schedule=Schedule(self.eta0, self.alpha, self.beta, self.gamma,
                              self.momentum),
            seed=trial_seed,
            eval_every=self.eval_every,
            feature_dim=self.feature_dim,
            g_hidden=(self.g_hidden,),
            head_hidden=(self.head_hidden,),
            mcd_warmup=self.mcd_warmup,
        )


def _key_type(hint) -> type:
    """int, float or str; an Optional[int] key parses as int."""
    args = get_args(hint)
    return args[0] if args else hint


_KEY_TYPES = {name: _key_type(hint)
              for name, hint in get_type_hints(RunConfig).items()}


# a comment starts at a '#' that opens the line or follows whitespace; any
# other '#' belongs to the value (a path such as /data/set#1/img.idx)
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config(path) -> RunConfig:
    """Parse and validate a key=value config file into a RunConfig."""
    cfg = RunConfig()
    seen: Dict[str, int] = {}
    with open(path, "rb") as f:
        lines = f.read().splitlines()  # at \n, \r and \r\n, as text mode
    for lineno, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"line {lineno}: not UTF-8 text (byte "
                              f"{raw[e.start]:#04x} at column {e.start + 1})"
                              ) from None
        line = _COMMENT.split(text, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: config key {key} is "
                              f"already set on line {seen[key]}")
        seen[key] = lineno
        try:
            setattr(cfg, key, kind(value))
        except ValueError:
            noun = "integer" if kind is int else "number"
            raise ConfigError(
                f"line {lineno}: invalid {noun} for {key}: {value!r}")
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not cfg.variant:
        raise ConfigError("missing required config key 'variant'")
    if not cfg.dataset:
        raise ConfigError("missing required config key 'dataset'")
    if cfg.dataset not in DATASETS:
        raise ConfigError(
            f"unknown dataset {cfg.dataset!r}; valid values: {', '.join(DATASETS)}")
    for key, kind in _KEY_TYPES.items():
        value = getattr(cfg, key)
        if kind is int and key != "seed" and value is not None and value < 1:
            raise ConfigError(f"{key} must be a positive integer, got {value}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value}")
    if cfg.noise_sigma < 0:
        raise ConfigError("noise_sigma must be >= 0")
    if cfg.dataset == "two_moons":
        for key in ("n_source", "n_target"):
            if getattr(cfg, key) < 2:
                raise ConfigError(f"{key} must be >= 2 for two_moons, got "
                                  f"{getattr(cfg, key)}")
    if cfg.dataset == "blobs":
        if cfg.blob_classes < 2:
            raise ConfigError(f"blob_classes must be >= 2, got {cfg.blob_classes}")
        if cfg.n_source < cfg.blob_classes:
            raise ConfigError(f"n_source must be >= blob_classes "
                              f"({cfg.blob_classes}): one sample per class")
    try:
        cfg.train_config(cfg.seed)  # the variant, schedule and training checks
    except ContractError as e:
        raise ConfigError(str(e))
    smaller = {"two_moons": min(cfg.n_source, cfg.n_target),
               "blobs": cfg.n_source}.get(cfg.dataset)  # idx: sized on loading
    if smaller is not None and cfg.resolved_batch_size() > smaller:
        raise ConfigError(f"batch_size {cfg.resolved_batch_size()} exceeds the "
                          f"smaller domain ({smaller} samples)")
    if cfg.dataset == "idx":
        if not cfg.source_images or not cfg.source_labels:
            raise ConfigError("idx dataset needs source_images and source_labels")
        if not cfg.target_images or not cfg.target_labels:
            raise ConfigError("idx dataset needs target_images and target_labels "
                              "(target labels are used for evaluation only)")


def build_datasets(cfg: RunConfig, trial_seed: int
                   ) -> Tuple[DomainDataset, DomainDataset]:
    """Source/target pair for one trial, deterministic in trial_seed."""
    if cfg.dataset == "two_moons":
        source = gen_two_moons(cfg.n_source, cfg.noise_sigma,
                               derived_seed(trial_seed, 0))
        raw_target = gen_two_moons(cfg.n_target, cfg.noise_sigma,
                                   derived_seed(trial_seed, 1))
        target = domain_shift(raw_target, cfg.theta_degrees,
                              (cfg.translate_x, cfg.translate_y))
        return source, target
    if cfg.dataset == "blobs":
        return gen_blob_shift(cfg.n_source, cfg.blob_classes, cfg.separation,
                              (cfg.shift_x, cfg.shift_y),
                              derived_seed(trial_seed, 0))
    source = load_idx(cfg.source_images, cfg.source_labels, "source")
    target = load_idx(cfg.target_images, cfg.target_labels, "target",
                      num_classes=source.num_classes)
    return source, target


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal, '.' separator
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    mean = float(np.mean(values))
    std = 0.0 if len(values) < 2 else float(np.std(values, ddof=1))
    return mean, std


def run_experiment(cfg: RunConfig) -> int:
    """Train `trials` seeds, writing run_{i}.csv, checkpoints, a manifest,
    and a summary with mean/sample-std of the final target accuracy."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    marker = out / "INCOMPLETE"
    marker.write_text("experiment in progress or aborted\n")
    trial = None  # the trial running, named when it fails
    try:
        finals: List[Tuple[int, int, str, float, float]] = []
        for trial in range(cfg.trials):
            trial_seed = cfg.seed + trial
            source, target = build_datasets(cfg, trial_seed)
            model, records = train(cfg.train_config(trial_seed), source, target)
            _write_csv(out / f"run_{trial}.csv", MetricsRecord.COLUMNS,
                       [r.row() for r in records])
            model.save(out / f"checkpoint_{trial}.bin")
            checksum = dataset_checksum(source) + ":" + dataset_checksum(target)
            finals.append((trial, trial_seed, checksum,
                           records[-1].src_acc, records[-1].tgt_acc))
        trial = None
        _write_csv(out / "manifest.csv",
                   ("trial", "seed", "dataset_checksum", "final_src_acc",
                    "final_tgt_acc"), finals)
        mean, std = _mean_std([f[4] for f in finals])
        _write_csv(out / "summary.csv",
                   ("variant", "dataset", "trials", "mean_tgt_acc", "std_tgt_acc"),
                   [(cfg.variant, cfg.dataset, cfg.trials, mean, std)])
    except Exception as e:
        if trial is None:
            marker.write_text(f"experiment failed: {e}\n")
            print(f"error: {e}", file=sys.stderr)
        else:
            marker.write_text(f"experiment failed in trial {trial} (seed "
                              f"{cfg.seed + trial}): {e}\n")
            print(f"error: {e} (trial {trial}, seed {cfg.seed + trial})",
                  file=sys.stderr)
        return 2
    marker.unlink()
    return 0


def export_embeddings(model: DualModel, source: DomainDataset,
                      target: DomainDataset, n_per_domain: int,
                      out_path) -> None:
    """Project transform-layer outputs of both domains to 2-D by PCA and
    write x,y,domain,label rows.

    The principal axes come from the top-2 eigenvectors of the centered
    covariance; each eigenvector's largest-magnitude loading is made
    positive so the projection is sign-deterministic.
    """
    if n_per_domain > min(source.n, target.n):
        raise ContractError(
            f"n_per_domain {n_per_domain} exceeds a dataset "
            f"({min(source.n, target.n)} samples)")

    feats = np.vstack([model.invariant.features(ds.features[:n_per_domain])
                       for ds in (source, target)])
    centered = feats - feats.mean(axis=0)
    cov = centered.T @ centered / max(feats.shape[0] - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    if eigvals[1] <= 1e-12 * max(eigvals[0], 1.0):
        raise ContractError(
            f"embedding covariance is rank-deficient (second eigenvalue "
            f"{eigvals[1]:.3e}); cannot project to 2-D")
    axes = eigvecs[:, :2]
    for j in range(2):
        if axes[np.argmax(np.abs(axes[:, j])), j] < 0:
            axes[:, j] = -axes[:, j]
    coords = centered @ axes

    rows = []
    for i, ds in ((0, source), (1, target)):
        for j in range(n_per_domain):
            label = "" if ds.labels is None else int(ds.labels[j])
            rows.append((coords[i * n_per_domain + j, 0],
                         coords[i * n_per_domain + j, 1], ds.domain_tag, label))
    _write_csv(out_path, ("x", "y", "domain", "label"), rows)


def ablation_matrix(configs: Sequence[RunConfig], out_dir) -> List[Dict]:
    """Run all seven variants over each dataset config with shared seeds.

    Returns one row per variant with per-dataset mean/std target accuracy,
    plus an `avg` of the means when several dataset configs are given;
    also writes ablation.csv under out_dir.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds_names = []
    for i, cfg in enumerate(configs):
        name = cfg.dataset if len(configs) == 1 else f"ds{i}_{cfg.dataset}"
        ds_names.append(name)

    table: List[Dict] = [{"variant": v} for v in VARIANT_ORDER]
    for name, cfg in zip(ds_names, configs):
        for row in table:
            sub = replace(cfg, variant=row["variant"],
                          out_dir=str(out / name / row["variant"]))
            status = run_experiment(sub)
            if status != 0:
                raise RuntimeError(
                    f"run failed for variant {row['variant']} on {name}")
            with open(Path(sub.out_dir) / "summary.csv") as f:
                summary = list(csv.DictReader(f))[0]
            row[f"{name}_mean"] = float(summary["mean_tgt_acc"])
            row[f"{name}_std"] = float(summary["std_tgt_acc"])
    header = ["variant"]
    for name in ds_names:
        header += [f"{name}_mean", f"{name}_std"]
    if len(ds_names) > 1:
        header.append("avg")
        for row in table:
            row["avg"] = float(np.mean([row[f"{n}_mean"] for n in ds_names]))
    _write_csv(out / "ablation.csv", header,
               [[row[h] for h in header] for row in table])
    return table


def _load_cli_config(path, args) -> RunConfig:
    """A config file with the --out/--seed overrides applied and validated."""
    cfg = parse_config(path)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    _validate(cfg)
    return cfg


def _cmd_run(args) -> int:
    return run_experiment(_load_cli_config(args.config, args))


def _cmd_ablate(args) -> int:
    configs = [_load_cli_config(path, args) for path in args.config]
    ablation_matrix(configs, configs[0].out_dir)
    return 0


def _cmd_embed(args) -> int:
    cfg = _load_cli_config(args.config, args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    source, target = build_datasets(cfg, cfg.seed)
    config = cfg.train_config(cfg.seed)
    if args.checkpoint:
        model = initial_model(config, source)
        model.load(args.checkpoint)
    else:
        model, _ = train(config, source, target)
    n = min(cfg.embed_per_domain, source.n, target.n)
    export_embeddings(model, source, target, n, out / "embeddings.csv")
    print(f"wrote {out / 'embeddings.csv'}")
    return 0


def _cmd_check_grad(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be a positive integer, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    from . import gradcheck  # only this subcommand reads it
    ok = gradcheck.run_suite(args.trials, args.seed)
    print("gradient suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dualda",
        description="Dual-module adversarial domain adaptation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one variant over several seeds")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_ablate = sub.add_parser("ablate", help="run the 7-variant ablation matrix")
    p_ablate.add_argument("--config", action="append", required=True,
                          help="dataset config; repeat for several datasets")
    p_ablate.add_argument("--out", default=None)
    p_ablate.add_argument("--seed", type=int, default=None)
    p_ablate.set_defaults(fn=_cmd_ablate)

    p_embed = sub.add_parser("embed", help="train and export a 2-D PCA embedding")
    p_embed.add_argument("--config", required=True)
    p_embed.add_argument("--out", default=None)
    p_embed.add_argument("--seed", type=int, default=None)
    p_embed.add_argument("--checkpoint", default=None,
                         help="load parameters instead of the fresh training result")
    p_embed.set_defaults(fn=_cmd_embed)

    p_grad = sub.add_parser("check-grad", help="finite-difference gradient suite")
    p_grad.add_argument("--trials", type=int, default=25)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=_cmd_check_grad)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as e:
        # every library error is a ValueError; a failed ablation run is a
        # RuntimeError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
