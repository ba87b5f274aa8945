import copy
import re

import numpy as np
import pytest

import dualda.autodiff as ad
import dualda.trainer as trainer
from dualda.data import (batches, derived_seed, domain_shift, gen_blob_shift,
                         gen_two_moons, num_batch_pairs)
from dualda.errors import ContractError
from dualda.losses import module_loss
from dualda.model import DualModel, Variant, variant_plan
from dualda.nn import BoundComponents, build_component_set
from dualda.optim import SGD, Schedule, lr_at
from dualda.trainer import (MetricsRecord, TrainConfig, compute_metrics,
                            step1_mcd, step2_modules, step3_dual, train)

from oracles import (accuracy_counting, discrepancy_brute_force,
                     dual_loss_composition, module_forward_numpy,
                     module_loss_composition, pair_discrepancy, softmax_rows,
                     trained_components)


def small_data(seed=0, n=120, noise=0.1, theta=35.0):
    ss = lambda k: int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
    source = gen_two_moons(n, noise, ss(0))
    target = domain_shift(gen_two_moons(n, noise, ss(1)), theta)
    return source, target


def small_config(variant, **kw):
    defaults = dict(epochs=2, batch_size=32, eval_every=1, seed=0,
                    schedule=Schedule(eta0=0.01),
                    feature_dim=8, g_hidden=(12,), head_hidden=(6,))
    defaults.update(kw)
    return TrainConfig(variant=variant, **defaults)


def snapshot(model):
    return {name: arr.copy() for name, arr in model.named_parameters().items()}


def changed_components(before, model):
    changed = set()
    for name, arr in model.named_parameters().items():
        if not np.array_equal(before[name], arr):
            changed.add(name.rsplit(".", 2)[0])
    return changed


def batch_from(ds, n=16):
    return ds.features[:n], (None if ds.labels is None else ds.labels[:n])


# --- step 1 -------------------------------------------------------------------

def in_buffer(comps):
    """The buffer of a DualModel that takes comps in, with a copy of comps
    as its other module: comps' arrays become views of it, values
    unchanged."""
    return DualModel(comps, copy.deepcopy(comps)).buffer


def run_step1(comps, xs, ys, xt, k, lr):
    """step1_mcd on one module, momentum 0, fresh tapes: the pair's
    discrepancy read before phase C, and the oracle's after it."""
    before = step1_mcd(comps, "", xs, ys, xt, k, lr, SGD(in_buffer(comps), 0.0),
                       {})
    return float(before[0]), float(pair_discrepancy(comps, xt))


def test_step1_identical_classifiers_start_at_zero_discrepancy():
    comps = build_component_set(2, 6, 2, seed=0)
    for la, lb in zip(comps.classifier_a.layers, comps.classifier_b.layers):
        lb.weight[...] = la.weight
        lb.bias[...] = la.bias
    source, target = small_data()
    xt = target.features[:16]
    tape = ad.Tape()
    b = BoundComponents(tape, comps)
    t_t = b.features(tape.leaf(xt))
    p_a = ad.softmax(b.classifier_a.forward(t_t)).data
    p_b = ad.softmax(b.classifier_b.forward(t_t)).data
    assert discrepancy_brute_force(p_a, p_b) == 0.0


def test_step1_lr_zero_changes_nothing():
    comps = build_component_set(2, 6, 2, seed=1)
    named_before = {n: a.copy() for n, a in comps.named_arrays()}
    source, target = small_data()
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    run_step1(comps, xs, ys, xt, k=4, lr=0.0)
    for name, arr in comps.named_arrays():
        assert np.array_equal(named_before[name], arr), name


def test_step1_rejects_bad_k():
    comps = build_component_set(2, 6, 2, seed=1)
    source, target = small_data()
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    for k in (0, True, 7.5):
        with pytest.raises(ContractError, match="k must be an integer >= 1"):
            run_step1(comps, xs, ys, xt, k=k, lr=0.01)


def test_step1_takes_a_numpy_integer_k():
    source, target = small_data()
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    runs = []
    for k in (4, np.int64(4)):
        comps = build_component_set(2, 6, 2, seed=1)
        runs.append((run_step1(comps, xs, ys, xt, k=k, lr=0.01),
                     [a.tobytes() for _, a in comps.named_arrays()]))
    assert runs[0] == runs[1]


def test_step1_untouched_discriminator():
    comps = build_component_set(2, 6, 2, seed=2)
    d_before = [l.weight.copy() for l in comps.discriminator.layers]
    source, target = small_data()
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    run_step1(comps, xs, ys, xt, k=2, lr=0.05)
    for layer, before in zip(comps.discriminator.layers, d_before):
        assert np.array_equal(layer.weight, before)


def oracle_pair_discrepancy(comps, x):
    """Classifier-pair discrepancy of one module by numpy replay."""
    _, logits_a, logits_b, _ = module_forward_numpy(comps, x)
    return discrepancy_brute_force(softmax_rows(logits_a),
                                   softmax_rows(logits_b))


def test_step1_after_matches_oracle_on_returned_parameters():
    """The tape-free read after phase C, which the step-1 tests take as
    `after`, against the numpy replay on the parameters step 1 leaves."""
    source, target = small_data(seed=3)
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    for k in (1, 3):
        comps = build_component_set(2, 6, 2, seed=k, g_hidden=(8,),
                                    head_hidden=(4,))
        _, after = run_step1(comps, xs, ys, xt, k=k, lr=0.05)
        assert after == pytest.approx(oracle_pair_discrepancy(comps, xt),
                                      abs=1e-12)


def test_step1_before_does_not_depend_on_k():
    source, target = small_data(seed=4)
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    runs = {}
    for k in (1, 3):
        comps = build_component_set(2, 6, 2, seed=5)
        runs[k] = run_step1(comps, xs, ys, xt, k=k, lr=0.05)
    assert runs[1][0] == runs[3][0]
    assert runs[1][1] != runs[3][1]


def test_step1_phase_c_descends_discrepancy_statistically():
    wins = 0
    for seed in range(100):
        comps = build_component_set(2, 6, 2, seed=seed, g_hidden=(8,),
                                    head_hidden=(4,))
        rng = np.random.default_rng(seed)
        source, target = small_data(seed=seed, n=64)
        xs, ys = batch_from(source)
        xt, _ = batch_from(target)
        before, after = run_step1(comps, xs, ys, xt, k=4, lr=0.01)
        wins += after <= before
    assert wins >= 90, f"phase C reduced discrepancy in only {wins}/100 trials"


@pytest.mark.parametrize("modules,lr", [
    (("invariant", "discriminative"), [0.1]),
    (("invariant", "discriminative"), [0.1, 0.2, 0.3]),
    (("invariant",), [0.1, 5.0])],
    ids=["one lr, two modules", "three lrs, two modules", "two lrs, one module"])
def test_step1_refuses_an_lr_count_unlike_its_module_count(modules, lr):
    """Before any parameter moves: no module steps at another's lr, and no
    lr goes unused."""
    model = DualModel.build(2, 6, 2, seed=1)
    before = model.buffer.copy()
    source, target = small_data()
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    with pytest.raises(ContractError, match=rf"sgd: {len(lr)} lr values for "
                                            rf"a step of {len(modules)} "
                                            rf"modules"):
        step1_mcd(*model.modules(modules), xs, ys, xt, 2, lr,
                  SGD(model.buffer, 0.0), {})
    assert model.buffer.tobytes() == before.tobytes()


# --- step 2 -------------------------------------------------------------------

def test_step2_dann_leaves_m2_untouched():
    model = DualModel.build(2, 6, 2, seed=3)
    before = snapshot(model)
    source, target = small_data()
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    step2_modules(model, xs, ys, xt, lam=0.4, lr=0.05, variant=Variant.DANN,
                  sgd=SGD(model.buffer, 0.0), programs={})
    changed = changed_components(before, model)
    assert changed == {f"invariant.{c}" for c in
                       ("extractor", "transform", "discriminator",
                        "classifier_a", "classifier_b")}


def test_step2_lambda_zero_extractor_update_is_source_only():
    """With lambda=0 the reversal blocks the domain gradient, so the
    extractor lands exactly where a classifier-only update would put it."""
    source, target = small_data()
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)

    m_full = DualModel.build(2, 6, 2, seed=4)
    m_cls = DualModel.build(2, 6, 2, seed=4)

    step2_modules(m_full, xs, ys, xt, lam=0.0, lr=0.05, variant=Variant.DANN,
                  sgd=SGD(m_full.buffer, 0.0), programs={})
    step2_modules(m_cls, xs, ys, xt, lam=0.0, lr=0.05,
                  variant=Variant.SOURCE_ONLY, sgd=SGD(m_cls.buffer, 0.0),
                  programs={})

    for stack in ("extractor", "transform"):
        got = getattr(m_full.invariant, stack).layers
        want = getattr(m_cls.invariant, stack).layers
        for lg, lw in zip(got, want):
            assert np.allclose(lg.weight, lw.weight, atol=1e-15)


def test_step2_logged_losses_match_composition_oracle():
    model = DualModel.build(2, 6, 2, seed=5)
    source, target = small_data()
    xs, ys = batch_from(source)
    xt, _ = batch_from(target)
    cls_ce, dom_ce = module_loss_composition(model.invariant, xs, ys, xt)
    tape = ad.Tape()
    b = BoundComponents(tape, model.invariant)
    parts = module_loss(b, b.features(tape.leaf(xs)), ys,
                        b.features(tape.leaf(xt)), 0.3)
    assert float(parts.classifier_ce.data[0]) == pytest.approx(cls_ce, abs=1e-10)
    assert float(parts.domain_ce.data[0]) == pytest.approx(dom_ce, abs=1e-10)


# --- step 3 -------------------------------------------------------------------

def test_step3_identical_modules_no_change():
    c1 = build_component_set(2, 6, 2, seed=6)
    c2 = build_component_set(2, 6, 2, seed=6)
    model = DualModel(c1, c2)
    before = snapshot(model)
    source, target = small_data()
    step3_dual(model, source.features[:16], target.features[:16],
               lam=0.5, lr=0.1, sgd=SGD(model.buffer, 0.0), programs={})
    assert changed_components(before, model) == set()


def test_step3_gating_of_untouched_components():
    model = DualModel.build(2, 6, 2, seed=7)
    before = snapshot(model)
    source, target = small_data()
    step3_dual(model, source.features[:16], target.features[:16],
               lam=0.5, lr=0.1, sgd=SGD(model.buffer, 0.0), programs={})
    changed = changed_components(before, model)
    assert changed == {"invariant.extractor", "invariant.transform",
                       "invariant.classifier_a", "discriminative.extractor",
                       "discriminative.transform",
                       "discriminative.classifier_a"}


def test_step3_descends_prediction_discrepancy_statistically():
    def prediction_dis(model, xs, xt):
        _, dis_c = dual_loss_composition(model.invariant, model.discriminative,
                                         xs, xt)
        return dis_c

    wins = 0
    for seed in range(100):
        model = DualModel.build(2, 6, 2, seed=seed, g_hidden=(8,),
                                head_hidden=(4,))
        source, target = small_data(seed=seed, n=64)
        xs = source.features[:16]
        xt = target.features[:16]
        before = prediction_dis(model, xs, xt)
        step3_dual(model, xs, xt, lam=0.0, lr=1e-3,
                   sgd=SGD(model.buffer, 0.0), programs={})
        wins += prediction_dis(model, xs, xt) <= before
    assert wins >= 90, f"step 3 reduced dis(c) in only {wins}/100 trials"


# --- metrics -------------------------------------------------------------------

def test_compute_metrics_requires_labels():
    model = DualModel.build(2, 6, 2, seed=8)
    source, target = small_data()
    target.labels = None
    with pytest.raises(ContractError, match="labeled"):
        compute_metrics(model, source, target, epoch=1)


def test_compute_metrics_chance_level_for_uniform_model():
    model = DualModel.build(2, 6, 2, seed=9)
    for layer in model.invariant.classifier_a.layers:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    source, target = small_data(n=200)
    rec = compute_metrics(model, source, target, epoch=1)
    # all predictions are class 0 (tie rule)
    assert rec.src_acc == pytest.approx(np.mean(source.labels == 0), abs=1e-12)
    assert rec.tgt_acc == pytest.approx(np.mean(target.labels == 0), abs=1e-12)


def test_metrics_match_recomputation_from_checkpoint(tmp_path):
    source, target = small_data(n=96)
    cfg = small_config(Variant.OURS_2M, epochs=2, eval_every=1)
    model, records = train(cfg, source, target, checkpoint_dir=tmp_path)

    for rec in records:
        reloaded = DualModel.build(source.input_dim, cfg.feature_dim,
                                   source.num_classes, cfg.seed,
                                   g_hidden=cfg.g_hidden,
                                   head_hidden=cfg.head_hidden)
        reloaded.load(tmp_path / f"epoch_{rec.epoch:04d}.bin")
        again = compute_metrics(reloaded, source, target, rec.epoch)
        for col in MetricsRecord.COLUMNS:
            assert abs(getattr(again, col) - getattr(rec, col)) <= 1e-10, col


def test_metrics_columns_match_oracles():
    """Every column against its numpy oracle: pins which module and which
    domain each logged value reads from the shared metrics tape."""
    source, target = small_data(n=40)
    model, _ = train(small_config(Variant.OURS_2M, epochs=1), source, target)
    rec = compute_metrics(model, source, target, epoch=7)
    xs, ys, xt = source.features, source.labels, target.features

    cls_ce, dom_ce_m1 = module_loss_composition(model.invariant, xs, ys, xt)
    _, dom_ce_m2 = module_loss_composition(model.discriminative, xs, ys, xt)
    dis_t, dis_c = dual_loss_composition(model.invariant, model.discriminative,
                                         xs, xt)
    want = dict(cls_ce=cls_ce, dom_ce_m1=dom_ce_m1, dom_ce_m2=dom_ce_m2,
                dis_t=dis_t, dis_c=dis_c,
                mcd_dis=oracle_pair_discrepancy(model.invariant, xt))
    assert dom_ce_m1 != pytest.approx(dom_ce_m2, abs=1e-6)
    for col, value in want.items():
        assert getattr(rec, col) == pytest.approx(value, abs=1e-10), col

    def oracle_acc(ds):
        _, logits_a, _, _ = module_forward_numpy(model.invariant, ds.features)
        return accuracy_counting(np.argmax(logits_a, axis=1), ds.labels)

    assert rec.epoch == 7
    assert rec.src_acc == oracle_acc(source)
    assert rec.tgt_acc == oracle_acc(target)


# --- train -------------------------------------------------------------------

def test_train_bitwise_deterministic():
    source, target = small_data()
    cfg = small_config(Variant.OURS_1M)
    model1, recs1 = train(cfg, source, target)
    model2, recs2 = train(cfg, source, target)
    for (n1, a1), (n2, a2) in zip(model1.named_parameters().items(),
                                  model2.named_parameters().items()):
        assert n1 == n2 and a1.tobytes() == a2.tobytes()
    assert [r.row() for r in recs1] == [r.row() for r in recs2]


@pytest.mark.parametrize("variant", list(Variant))
def test_variant_gating_audit(variant):
    source, target = small_data()
    cfg = small_config(variant)
    plan = variant_plan(variant)

    probe = DualModel.build(source.input_dim, cfg.feature_dim,
                            source.num_classes, cfg.seed,
                            g_hidden=cfg.g_hidden, head_hidden=cfg.head_hidden)
    before = snapshot(probe)
    model, _ = train(cfg, source, target)
    assert changed_components(before, model) == trained_components(plan)


@pytest.mark.parametrize("variant", [Variant.SOURCE_ONLY, Variant.OURS_2M])
def test_target_labels_never_influence_training(variant):
    """The batch stream yields target features only, so shuffling target
    labels cannot change any parameter trajectory, in any variant."""
    source, target = small_data()
    cfg = small_config(variant)
    model1, recs1 = train(cfg, source, target)

    shuffled = target
    rng = np.random.default_rng(0)
    shuffled.labels = rng.permutation(shuffled.labels)
    model2, recs2 = train(cfg, source, shuffled)

    for name, arr in model1.named_parameters().items():
        assert arr.tobytes() == model2.named_parameters()[name].tobytes()
    # training-loss columns agree; only the target-accuracy column may move
    for r1, r2 in zip(recs1, recs2):
        assert r1.cls_ce == r2.cls_ce and r1.src_acc == r2.src_acc


def test_train_p_reaches_one_within_quantum():
    source, target = small_data()
    cfg = small_config(Variant.OURS_2M, epochs=2)
    seen = []
    train(cfg, source, target, progress=lambda i, total, p: seen.append((i, total, p)))
    indices = [i for i, _, _ in seen]
    total = seen[0][1]
    assert indices == sorted(indices)
    assert seen[0][2] == 0.0
    # final sampled progress is within one invocation's quantum of 1
    max_quantum = (2 + cfg.k) / total
    assert 1.0 - seen[-1][2] <= max_quantum + 1e-12


def test_train_contract_errors(tmp_path):
    source, target = small_data()
    cfg = small_config(Variant.DANN)
    bad_target = gen_blob_shift(64, 3, 4.0, (0.0, 0.0), seed=0)[1]
    with pytest.raises(ContractError):
        train(cfg, source, bad_target)  # K mismatch
    tiny = gen_two_moons(8, 0.1, seed=0)
    with pytest.raises(ContractError,
                       match="train dann, epoch 1, batching: batch_size 32"):
        train(cfg, source, domain_shift(tiny, 10.0),  # batch > smaller domain
              checkpoint_dir=tmp_path / "ckpt")
    assert not (tmp_path / "ckpt").exists()  # a failed start writes nothing
    source.labels = None
    with pytest.raises(ContractError, match="train dann, epoch 1, batching: "
                                            "source dataset must be labeled"):
        train(cfg, source, target)


@pytest.mark.parametrize("field,value", [
    ("epochs", 1.5), ("batch_size", 1.5), ("k", 1.5), ("seed", 1.5),
    ("feature_dim", 2.5), ("g_hidden", (6.7,)), ("head_hidden", (4, 2.0)),
    ("epochs", True), ("eval_every", "3"), ("epochs", 0), ("seed", -1),
    ("g_hidden", (0,))])
def test_train_config_refuses_a_size_that_is_not_an_integer(field, value):
    """A fractional size is not truncated, nor a bool or a string taken for
    a number; the error names the field."""
    with pytest.raises(ContractError, match=rf"\b{field} must be an integer"):
        small_config(Variant.OURS_2M, **{field: value})


def test_train_config_accepts_numpy_integers():
    cfg = small_config(Variant.OURS_2M, epochs=np.int64(2), k=np.int32(3),
                       seed=np.uint8(7), g_hidden=(np.int64(5),))
    assert (cfg.epochs, cfg.k, cfg.seed, cfg.g_hidden) == (2, 3, 7, (5,))


def test_train_rejects_an_unlabeled_target_before_the_first_update():
    source, target = small_data()
    target.labels = None
    calls = []
    with pytest.raises(ContractError, match="target dataset is unlabeled"):
        train(small_config(Variant.OURS_2M, eval_every=3), source, target,
              progress=lambda *args: calls.append(args))
    assert calls == []


@pytest.mark.parametrize("epochs,mcd_warmup,warm_epochs",
                         [(4, 0.9, 3), (1, 0.25, 0)])
def test_adversarial_steps_run_after_the_warmup(monkeypatch, epochs,
                                                mcd_warmup, warm_epochs):
    """The warmup takes min(max(1, round(epochs * mcd_warmup)), epochs - 1)
    epochs, so steps 2-3 run even when the rounded share is every epoch.
    Step 1 trains both modules of ours_2m in one stacked call per batch."""
    source, target = small_data()
    cfg = small_config(Variant.OURS_2M, epochs=epochs, mcd_warmup=mcd_warmup)
    calls = {"step1_mcd": 0, "step3_dual": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(trainer, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(trainer, name, counted)
    train(cfg, source, target)
    n_pairs = num_batch_pairs(source, target, cfg.batch_size)
    assert calls == {"step1_mcd": warm_epochs * n_pairs,
                     "step3_dual": (epochs - warm_epochs) * n_pairs}


def test_train_warmup_matches_repeated_step1_mcd_calls():
    """train() re-runs each step-1 tape on later batches; the parameters
    must be the bytes that step1_mcd gives with fresh tapes on the same
    batches and schedule."""
    source, target = small_data(n=64)
    cfg = small_config(Variant.MCD, epochs=2, batch_size=16, k=3)
    model, _ = train(cfg, source, target)

    ref = DualModel.build(source.input_dim, cfg.feature_dim,
                          source.num_classes, cfg.seed,
                          g_hidden=cfg.g_hidden, head_hidden=cfg.head_hidden)
    sgd = SGD(ref.buffer, cfg.schedule.momentum)
    per_call = 2 + cfg.k
    total = cfg.epochs * num_batch_pairs(source, target, cfg.batch_size) * per_call
    done = 0
    for epoch in range(1, cfg.epochs + 1):
        for xs, ys, xt in batches(source, target, cfg.batch_size,
                                  derived_seed(cfg.seed, epoch)):
            step1_mcd(ref.invariant, "invariant.", xs, ys, xt, cfg.k,
                      lr_at(cfg.schedule, done / total), sgd, {})
            done += per_call
    assert done == total
    for name, arr in ref.named_parameters().items():
        assert arr.tobytes() == model.named_parameters()[name].tobytes(), name


@pytest.mark.parametrize("variant", [Variant.MCD, Variant.OURS_2M])
def test_divergent_training_names_the_parameter_and_step(variant):
    source, target = small_data(n=64)
    cfg = small_config(variant, schedule=Schedule(eta0=1e300))
    with np.errstate(all="ignore"):
        with pytest.raises(ContractError) as info:
            train(cfg, source, target)
    msg = str(info.value)
    assert re.match(rf"train {variant.value}, epoch 1, step \d: sgd: parameter "
                    r"(invariant|discriminative)\.\w+\.\d+\.(weight|bias) is "
                    r"no longer finite", msg), msg
