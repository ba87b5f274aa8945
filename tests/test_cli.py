import csv
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dualda.autodiff as ad
from dualda.cli import (DATASETS, VARIANT_ORDER, RunConfig, _validate,
                        ablation_matrix, export_embeddings, main, parse_config,
                        run_experiment)
from dualda.data import (DomainDataset, domain_shift, gen_two_moons,
                         write_idx_images, write_idx_labels)
from dualda.errors import ConfigError, ContractError
from dualda.model import DualModel
from dualda.nn import BoundComponents, ComponentSet
from dualda.trainer import MetricsRecord


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = "variant = dann\ndataset = two_moons\n"
BLOBS = "variant = dann\ndataset = blobs\n"


def test_parse_config_minimal_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.variant == "dann" and cfg.dataset == "two_moons"
    assert cfg.eta0 == 0.002 and cfg.alpha == 10.0 and cfg.beta == 0.75
    assert cfg.gamma == 10.0 and cfg.k == 4 and cfg.momentum == 0.9
    assert cfg.trials == 5
    assert cfg.resolved_batch_size() == 64  # synthetic default


def test_parse_config_idx_batch_default(tmp_path):
    text = ("variant = mcd\ndataset = idx\nsource_images = a\n"
            "source_labels = b\ntarget_images = c\ntarget_labels = d\n")
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.resolved_batch_size() == 128


def test_parse_config_comments_and_values(tmp_path):
    text = ("# full line comment\n"
            "variant = ours_2m  # trailing comment\n"
            "dataset = blobs\n"
            "epochs = 7\n"
            "eta0 = 0.01\n")
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.variant == "ours_2m" and cfg.epochs == 7 and cfg.eta0 == 0.01


@pytest.mark.parametrize("line,key,value", [
    ("source_images = /data/set#1/img.idx", "source_images", "/data/set#1/img.idx"),
    ("out_dir = runs#2  # a comment", "out_dir", "runs#2"),
    ("out_dir = runs #2", "out_dir", "runs"),
    ("out_dir = runs\t# tab, then a comment", "out_dir", "runs"),
    ("#out_dir = commented out", "out_dir", "runs"),
])
def test_parse_config_hash_starts_a_comment_only_after_whitespace(
        tmp_path, line, key, value):
    cfg = parse_config(write_config(tmp_path, MINIMAL + line + "\n"))
    assert getattr(cfg, key) == value


def test_parse_config_hash_glued_to_a_number_is_a_config_error(tmp_path,
                                                                 capsys):
    path = write_config(tmp_path, MINIMAL + "seed = 3#x\n")
    with pytest.raises(ConfigError, match="invalid integer for seed: '3#x'"):
        parse_config(path)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_parse_config_reads_utf8_and_names_a_line_that_is_not(tmp_path,
                                                               capsys):
    path = tmp_path / "exp.cfg"
    path.write_bytes(MINIMAL.encode() + "out_dir = données\n".encode())
    assert parse_config(path).out_dir == "données"
    path.write_bytes(MINIMAL.encode() + b"out_dir = runs\r\nseed = \xff3\n")
    with pytest.raises(ConfigError, match=r"^line 4: not UTF-8 text "
                                          r"\(byte 0xff at column 8\)$"):
        parse_config(path)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: line 4:") and err.count("\n") == 1


def test_parse_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key 'learning_rate'"):
        parse_config(write_config(tmp_path, MINIMAL + "learning_rate = 3\n"))


def test_parse_config_missing_required(tmp_path):
    with pytest.raises(ConfigError, match="variant"):
        parse_config(write_config(tmp_path, "dataset = two_moons\n"))
    with pytest.raises(ConfigError, match="dataset"):
        parse_config(write_config(tmp_path, "variant = dann\n"))


def test_parse_config_wrong_case_variant_lists_valid(tmp_path):
    with pytest.raises(ConfigError, match="valid values.*source_only.*ours_2m"):
        parse_config(write_config(tmp_path, "variant = DANN\ndataset = two_moons\n"))


def test_parse_config_k_zero_rejected(tmp_path):
    with pytest.raises(ConfigError, match="k must be"):
        parse_config(write_config(tmp_path, MINIMAL + "k = 0\n"))


def test_parse_config_malformed_value_names_line(tmp_path):
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(write_config(tmp_path, MINIMAL + "epochs = seven\n"))


def test_parse_config_key_given_twice_names_both_lines(tmp_path):
    with pytest.raises(ConfigError, match="line 3: config key variant is "
                                          "already set on line 1"):
        parse_config(write_config(tmp_path, MINIMAL + "variant = ours_2m\n"))


POSITIVE_INT_KEYS = ("epochs", "batch_size", "k", "trials", "eval_every",
                     "feature_dim", "g_hidden", "head_hidden", "n_source",
                     "n_target", "blob_classes", "embed_per_domain")
IDX_PATHS = {"source_images": "a", "source_labels": "b",
             "target_images": "c", "target_labels": "d"}


def _idx_missing(key):
    kept = "".join(f"{k} = {v}\n" for k, v in IDX_PATHS.items() if k != key)
    return "variant = mcd\ndataset = idx\n" + kept


REJECTIONS = (
    [(f"{key}_zero", MINIMAL + f"{key} = 0\n", key) for key in POSITIVE_INT_KEYS]
    + [("eta0_zero", MINIMAL + "eta0 = 0\n", "eta0"),
       ("alpha_negative", MINIMAL + "alpha = -1\n", "alpha"),
       ("momentum_one", MINIMAL + "momentum = 1.0\n", "momentum"),
       ("mcd_warmup_zero", MINIMAL + "mcd_warmup = 0\n", "mcd_warmup"),
       ("mcd_warmup_one", MINIMAL + "mcd_warmup = 1\n", "mcd_warmup"),
       ("noise_sigma_negative", MINIMAL + "noise_sigma = -1\n", "noise_sigma"),
       ("seed_negative", MINIMAL + "seed = -1\n", "seed"),
       ("unknown_dataset", "variant = dann\ndataset = mnist\n", "dataset"),
       ("non_numeric_float", MINIMAL + "eta0 = fast\n", "eta0"),
       ("eta0_nan", MINIMAL + "eta0 = nan\n", "eta0"),
       ("alpha_nan", MINIMAL + "alpha = nan\n", "alpha"),
       ("noise_sigma_nan", MINIMAL + "noise_sigma = nan\n", "noise_sigma"),
       ("theta_degrees_inf", MINIMAL + "theta_degrees = inf\n",
        "theta_degrees"),
       ("two_moons_n_source_one", MINIMAL + "n_source = 1\n", "n_source"),
       ("two_moons_n_target_one", MINIMAL + "n_target = 1\n", "n_target"),
       ("blob_classes_one", BLOBS + "blob_classes = 1\n", "blob_classes"),
       ("blobs_fewer_points_than_classes",
        BLOBS + "n_source = 4\nblob_classes = 5\n", "n_source"),
       ("two_moons_batch_exceeds_both_domains",
        MINIMAL + "n_source = 40\nn_target = 40\nbatch_size = 64\n",
        "batch_size"),
       ("two_moons_default_batch_exceeds_target",
        MINIMAL + "n_target = 40\n", "batch_size"),
       ("blobs_batch_exceeds_n_source",
        BLOBS + "n_source = 40\nbatch_size = 41\n", "batch_size"),
       ("variant_given_twice", MINIMAL + "variant = ours_2m\n", "variant"),
       ("epochs_given_twice", "epochs = 3\n" + MINIMAL + "epochs = 3\n",
        "epochs")]
    + [(f"idx_missing_{key}", _idx_missing(key), key) for key in IDX_PATHS])


@pytest.mark.parametrize("text,key", [case[1:] for case in REJECTIONS],
                         ids=[case[0] for case in REJECTIONS])
def test_parse_config_rejections_name_the_key(tmp_path, capsys, text, key):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(path)
    # the key as written in the config file, not a longer internal name
    assert re.search(rf"(?<!\w){key}(?!\w)", str(excinfo.value))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_parse_config_blobs_batch_limit_ignores_n_target(tmp_path):
    # a blobs target is the source draw shifted: n_target plays no part
    text = BLOBS + "n_source = 40\nn_target = 2\nbatch_size = 40\n"
    assert parse_config(write_config(tmp_path, text)).batch_size == 40


# a config-file string value: no line break, nothing that the parser's
# strip() would remove, and no '#' that would start a comment (first, or
# after whitespace); any other '#' is part of the value
_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                max_size=12).filter(
    lambda s: s == s.strip() and not s.startswith("#")
    and not re.search(r"\s#", s))
_NONNEG = st.floats(min_value=0.0, allow_infinity=False)
_VALUES = {
    int: st.integers(1, 2**40),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: _TEXT,
    "variant": st.sampled_from(VARIANT_ORDER),
    "dataset": st.sampled_from(DATASETS),
    "seed": st.integers(0, 2**40),
    "mcd_warmup": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "eta0": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "alpha": _NONNEG, "beta": _NONNEG, "gamma": _NONNEG, "noise_sigma": _NONNEG,
    "momentum": st.floats(0.0, 1.0, exclude_max=True),
    "n_source": st.integers(2, 2**40), "n_target": st.integers(2, 2**40),
    "blob_classes": st.integers(2, 1000),
    "batch_size": st.one_of(st.none(), st.integers(1, 2**12)),
}


@st.composite
def valid_run_configs(draw):
    # each field by its name, else by the type of its default
    cfg = RunConfig(**{f.name: draw(_VALUES.get(f.name,
                                                _VALUES.get(type(f.default))))
                       for f in fields(RunConfig)})
    try:
        _validate(cfg)
    except ConfigError:
        assume(False)
    return cfg


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=valid_run_configs())
def test_config_file_round_trip(tmp_path, cfg):
    lines = [f"{f.name} = {value if isinstance(value, str) else repr(value)}"
             for f in fields(RunConfig)
             if (value := getattr(cfg, f.name)) is not None]
    path = tmp_path / "round_trip.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert parse_config(path) == cfg


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_parses_and_shows_the_defaults(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    cfg = parse_config(write_config(tmp_path, block))
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if "=" in line.split("#", 1)[0]]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
    set_by_example = {"variant", "dataset", "batch_size", *IDX_PATHS}
    for f in fields(RunConfig):
        if f.name not in set_by_example:
            assert getattr(cfg, f.name) == f.default, f.name


def fast_config(tmp_path, variant="dann", trials=2, **extra):
    keys = {"variant": variant, "dataset": "two_moons", "epochs": 2,
            "batch_size": 32, "n_source": 80, "n_target": 80,
            "trials": trials, "eval_every": 1, "feature_dim": 8,
            "g_hidden": 12, "head_hidden": 6, "eta0": 0.01,
            "out_dir": tmp_path / "out", **extra}
    lines = [f"{k} = {v}" for k, v in keys.items()]
    return parse_config(write_config(tmp_path, "\n".join(lines) + "\n"))


def test_run_experiment_outputs(tmp_path):
    cfg = fast_config(tmp_path)
    assert run_experiment(cfg) == 0
    out = tmp_path / "out"
    for trial in range(2):
        assert (out / f"run_{trial}.csv").exists()
        assert (out / f"checkpoint_{trial}.bin").exists()
    assert not (out / "INCOMPLETE").exists()

    with open(out / "run_0.csv") as f:
        rows = list(csv.DictReader(f))
    assert tuple(rows[0].keys()) == MetricsRecord.COLUMNS
    assert len(rows) == 2  # eval_every=1, epochs=2

    with open(out / "summary.csv") as f:
        summary = list(csv.DictReader(f))[0]
    finals = []
    for trial in range(2):
        with open(out / f"run_{trial}.csv") as f:
            finals.append(float(list(csv.DictReader(f))[-1]["tgt_acc"]))
    assert float(summary["mean_tgt_acc"]) == pytest.approx(np.mean(finals), abs=1e-12)
    assert float(summary["std_tgt_acc"]) == pytest.approx(np.std(finals, ddof=1), abs=1e-12)
    assert summary["trials"] == "2"


def test_run_experiment_single_trial_std_zero(tmp_path):
    cfg = fast_config(tmp_path, trials=1)
    assert run_experiment(cfg) == 0
    with open(tmp_path / "out" / "summary.csv") as f:
        summary = list(csv.DictReader(f))[0]
    assert summary["std_tgt_acc"] == "0.0"


def test_run_experiment_rerun_byte_identical(tmp_path):
    cfg = fast_config(tmp_path)
    assert run_experiment(cfg) == 0
    first = {p.name: p.read_bytes()
             for p in (tmp_path / "out").glob("*.csv")}
    assert run_experiment(cfg) == 0
    second = {p.name: p.read_bytes()
              for p in (tmp_path / "out").glob("*.csv")}
    assert first == second


def test_run_experiment_failure_leaves_marker(tmp_path, capsys):
    cfg = fast_config(tmp_path, seed=5)
    cfg.batch_size = 4096  # larger than the dataset: training will refuse
    assert run_experiment(cfg) == 2
    marker = (tmp_path / "out" / "INCOMPLETE").read_text()
    assert marker.startswith("experiment failed in trial 0 (seed 5): "), marker
    assert "batch" in marker
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert err[0].endswith(" (trial 0, seed 5)"), err


def test_manifest_checksums_shared_across_variants(tmp_path):
    rows = ablation_matrix([fast_config(tmp_path, trials=1, epochs=1)],
                           tmp_path / "ablation")
    assert len(rows) == 7
    assert [r["variant"] for r in rows] == [
        "source_only", "dann", "mcd", "mcd_dann", "ours", "ours_1m", "ours_2m"]

    checksums = []
    for variant in ("source_only", "ours_2m"):
        with open(tmp_path / "ablation" / "two_moons" / variant /
                  "manifest.csv") as f:
            checksums.append([r["dataset_checksum"] for r in csv.DictReader(f)])
    assert checksums[0] == checksums[1]

    with open(tmp_path / "ablation" / "ablation.csv") as f:
        table = list(csv.DictReader(f))
    assert len(table) == 7
    assert "two_moons_mean" in table[0]


def test_ablation_multiple_datasets_adds_avg(tmp_path):
    cfg_a = fast_config(tmp_path, trials=1, epochs=1)
    cfg_b = fast_config(tmp_path, trials=1, epochs=1)
    cfg_b.dataset = "blobs"
    rows = ablation_matrix([cfg_a, cfg_b], tmp_path / "ab2")
    for row in rows:
        means = [row["ds0_two_moons_mean"], row["ds1_blobs_mean"]]
        assert row["avg"] == pytest.approx(np.mean(means), abs=1e-12)


# --- embeddings -----------------------------------------------------------------

def test_export_embeddings_properties(tmp_path):
    model = DualModel.build(2, 8, 2, seed=0)
    source = gen_two_moons(60, 0.1, seed=1)
    target = domain_shift(gen_two_moons(60, 0.1, seed=2), 30.0)
    out = tmp_path / "emb.csv"
    export_embeddings(model, source, target, 50, out)
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 100
    assert set(r["domain"] for r in rows) == {"source", "target"}
    xy = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    assert np.abs(xy.mean(axis=0)).max() < 1e-9
    assert xy[:, 0].var() >= xy[:, 1].var()


def test_export_embeddings_identical_domains_coincide(tmp_path):
    model = DualModel.build(2, 8, 2, seed=3)
    source = gen_two_moons(40, 0.1, seed=4)
    twin = DomainDataset(source.features.copy(), source.labels.copy(),
                         "target", 2)
    out = tmp_path / "emb.csv"
    export_embeddings(model, source, twin, 40, out)
    with open(out) as f:
        rows = list(csv.DictReader(f))
    src = np.array([[float(r["x"]), float(r["y"])] for r in rows[:40]])
    tgt = np.array([[float(r["x"]), float(r["y"])] for r in rows[40:]])
    assert np.array_equal(src, tgt)


def test_export_embeddings_equal_a_taped_reference_bytewise(tmp_path,
                                                             monkeypatch):
    model = DualModel.build(2, 8, 2, seed=7)
    model.invariant.extractor.layers[0].bias[3] = 0.0
    source = gen_two_moons(60, 0.1, seed=8)
    source.features[:2] = 0.0  # exact-zero hidden pre-activations
    target = domain_shift(gen_two_moons(60, 0.1, seed=9), 30.0)
    export_embeddings(model, source, target, 50, tmp_path / "emb.csv")

    def taped_features(comps, x):
        tape = ad.Tape()
        return BoundComponents(tape, comps).features(tape.leaf(x)).data

    monkeypatch.setattr(ComponentSet, "features", taped_features)
    export_embeddings(model, source, target, 50, tmp_path / "ref.csv")
    assert (tmp_path / "emb.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_export_embeddings_rank_deficient_errors(tmp_path):
    model = DualModel.build(2, 8, 2, seed=5)
    # constant features -> constant transform outputs -> rank-0 covariance
    const = DomainDataset(np.ones((20, 2)), np.zeros(20, dtype=int), "source", 2)
    with pytest.raises(ContractError, match="rank"):
        export_embeddings(model, const, const, 10, tmp_path / "emb.csv")


def test_export_embeddings_size_check(tmp_path):
    model = DualModel.build(2, 8, 2, seed=6)
    source = gen_two_moons(10, 0.1, seed=0)
    with pytest.raises(ContractError):
        export_embeddings(model, source, source, 11, tmp_path / "e.csv")


# --- command line ----------------------------------------------------------------

def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "variant = source_only\ndataset = two_moons\nepochs = 1\n"
        "batch_size = 16\nn_source = 40\nn_target = 40\ntrials = 1\n"
        "eval_every = 1\nfeature_dim = 4\ng_hidden = 6\nhead_hidden = 4\n")
    out = tmp_path / "cli_out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()


def test_cli_divergent_run_exits_2_naming_the_parameter(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        "variant = ours_2m\ndataset = two_moons\nepochs = 2\n"
        "batch_size = 16\nn_source = 40\nn_target = 40\ntrials = 1\n"
        "eta0 = 1e300\n")
    with np.errstate(all="ignore"):
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: train ours_2m, epoch")
    assert re.search(r"sgd: parameter (invariant|discriminative)\.\w+\.\d+\."
                     r"(weight|bias) is no longer finite", err[0]), err[0]


def test_cli_run_with_an_lr_power_that_overflows_exits_0(tmp_path, capsys):
    """beta = 1000 overflows (1 + alpha*p)^beta early in training: the lr
    is then 0.0, and the run finishes and writes its CSVs."""
    cfg_path = write_config(
        tmp_path,
        "variant = ours_2m\ndataset = two_moons\nepochs = 2\n"
        "batch_size = 16\nn_source = 40\nn_target = 40\ntrials = 1\n"
        "eval_every = 1\nfeature_dim = 4\ng_hidden = 6\nhead_hidden = 4\n"
        "beta = 1000\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    with open(out / "run_0.csv") as f:
        assert len(list(csv.DictReader(f))) == 2
    assert (out / "summary.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, "variant = DANN\ndataset = two_moons\n")
    assert main(["run", "--config", str(cfg_path)]) == 1


def test_cli_missing_file_is_runtime_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_seed_override(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "variant = source_only\ndataset = two_moons\nepochs = 1\n"
        "batch_size = 16\nn_source = 40\nn_target = 40\ntrials = 1\n"
        "eval_every = 1\nfeature_dim = 4\ng_hidden = 6\nhead_hidden = 4\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a),
                 "--seed", "7"]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b),
                 "--seed", "8"]) == 0
    a = (out_a / "manifest.csv").read_text()
    b = (out_b / "manifest.csv").read_text()
    assert a != b


@pytest.mark.parametrize("command", ["run", "ablate", "embed"])
def test_cli_seed_override_is_validated(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, "--config", str(write_config(tmp_path, MINIMAL)),
                 "--out", str(out), "--seed", "-1"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("config error:")
    assert re.search(r"(?<!\w)seed(?!\w)", err[0])
    assert not out.exists()


def test_cli_check_grad_fast():
    assert main(["check-grad", "--trials", "2"]) == 0


CHECK_GRAD_OPS = ("matmul_t", "matmul_bias", "matmul_relu", "matmul_stacked",
                  "add", "sub", "softmax", "cross_entropy", "mean_abs_diff",
                  "reverse_slices")
CHECK_GRAD_SITES = ("step 1 A", "step 1 B", "step 1 C", "step 1 B invariant",
                    "step 1 C invariant", "step 2 source", "step 2 invariant",
                    "step 2 both", "step 3")


def test_cli_check_grad_prints_every_case_once_in_order(capsys):
    """Each op case plain, then each but reverse_slices behind the
    reversal, then each site, one ok line each, then the PASS line."""
    assert main(["check-grad", "--trials", "1"]) == 0
    *cases, last = capsys.readouterr().out.splitlines()
    assert [" ".join(line.split(" max rel err ")[0].split())
            for line in cases] == (
        [f"op {k}" for k in CHECK_GRAD_OPS] +
        [f"grl+{k}" for k in CHECK_GRAD_OPS[:-1]] +
        [f"site {k}" for k in CHECK_GRAD_SITES])
    assert all(line.endswith("  ok") for line in cases)
    assert last == "gradient suite: PASS"


@pytest.mark.parametrize("argv,flag", [
    (["--trials", "0"], "--trials"),
    (["--trials", "-3"], "--trials"),
    (["--trials", "1", "--seed", "-1"], "--seed")])
def test_cli_check_grad_rejects_vacuous_trials_and_negative_seed(capsys, argv,
                                                                 flag):
    assert main(["check-grad", *argv]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("config error:") and flag in captured.err


# --- exit codes of library failures ---------------------------------------------

def write_idx_domain(tmp_path, tag, labels, side=4, seed=0):
    """A labeled IDX image/label pair of side x side images."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=np.uint8)
    images = rng.integers(0, 256, size=(labels.size, side, side), dtype=np.uint8)
    write_idx_images(tmp_path / f"{tag}-images.idx", images)
    write_idx_labels(tmp_path / f"{tag}-labels.idx", labels)
    return {f"{tag}_images": tmp_path / f"{tag}-images.idx",
            f"{tag}_labels": tmp_path / f"{tag}-labels.idx"}


def idx_config(tmp_path, paths, variant="source_only"):
    lines = [f"variant = {variant}", "dataset = idx", "epochs = 1",
             "batch_size = 8", "trials = 1", "eval_every = 1",
             "feature_dim = 4", "g_hidden = 6", "head_hidden = 4",
             "embed_per_domain = 10", f"out_dir = {tmp_path / 'out'}"]
    lines += [f"{k} = {v}" for k, v in paths.items()]
    return write_config(tmp_path, "\n".join(lines) + "\n")


def test_cli_ablate_failed_run_exits_2_naming_variant(tmp_path, capsys):
    # the target images are 5x5, the source images 4x4: training refuses
    paths = write_idx_domain(tmp_path, "source", np.arange(24) % 3)
    paths.update(write_idx_domain(tmp_path, "target", np.arange(24) % 3, side=5))
    code = main(["ablate", "--config", str(idx_config(tmp_path, paths))])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert all(line.startswith("error:") for line in err.splitlines())
    assert err.splitlines()[-1] == \
        "error: run failed for variant source_only on idx"


def test_cli_library_error_exits_2_without_traceback(tmp_path, capsys):
    paths = write_idx_domain(tmp_path, "source", np.arange(24) % 3)
    paths.update(write_idx_domain(tmp_path, "target", np.arange(24) % 3))
    blob = bytearray(paths["source_images"].read_bytes())
    blob[:4] = (0x00000804).to_bytes(4, "big")  # not the image magic
    paths["source_images"].write_bytes(bytes(blob))
    code = main(["embed", "--config", str(idx_config(tmp_path, paths))])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "magic" in err
    assert len(err.splitlines()) == 1


def test_cli_embed_on_an_idx_header_declaring_too_much_exits_2(tmp_path, capsys):
    paths = write_idx_domain(tmp_path, "source", np.arange(24) % 3)
    paths.update(write_idx_domain(tmp_path, "target", np.arange(24) % 3))
    # 2^31 x 2^31 x 2 pixels declared, none present
    paths["source_images"].write_bytes(
        struct.pack(">IIII", 0x00000803, 2**31, 2**31, 2))
    code = main(["embed", "--config", str(idx_config(tmp_path, paths))])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "truncated" in err
    assert len(err.splitlines()) == 1


def test_cli_idx_target_without_highest_source_class_runs(tmp_path):
    paths = write_idx_domain(tmp_path, "source", np.arange(24) % 3)
    paths.update(write_idx_domain(tmp_path, "target", np.arange(24) % 2, seed=1))
    assert main(["run", "--config", str(idx_config(tmp_path, paths))]) == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_python_m_dualda_runs_the_command_line_without_a_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "dualda",
                           "--help"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "{run,ablate,embed,check-grad}" in proc.stdout
