"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is budgeted to finish in well under ten minutes.
"""

import copy
import struct
import time

import numpy as np
import pytest

import dualda.autodiff as ad
from dualda.autodiff import cross_entropy
from dualda.cli import parse_config, run_experiment
from dualda.data import (domain_shift, gen_two_moons, load_idx,
                         write_idx_images, write_idx_labels)
from dualda.errors import ConsistencyError, FormatError
from dualda.losses import discrepancy, dual_loss, module_loss
from dualda.model import DualModel, Variant, predict, variant_plan
from dualda.nn import BoundComponents, build_component_set
from dualda.optim import SGD, Schedule, lambda_at, lr_at
from dualda.trainer import TrainConfig, step1_mcd, train

from oracles import (FD_TOL, discrepancy_brute_force, fd_gradient, fd_rel_err,
                     pair_discrepancy, trained_components)

# hyperparameters of the ordering experiment (criterion: dataset sizes,
# rotation, epochs and seed count are fixed; the rest is the library's
# desk-scale tuning)
ORDERING = dict(n=500, theta=40.0, noise=0.1, epochs=60, seeds=5,
                batch_size=16, eta0=0.012, momentum=0.9)


def ok(msg):
    print(f"\n[PASS] {msg}")


# --- criterion 1: gradient suite ------------------------------------------------

def _scalarize(t):
    if t.size == 1:
        return t
    idx = np.arange(t.shape[0]) % t.shape[1]
    return ad.add(ad.mean(t), ad.mean(ad.select_columns(t, idx)))


def _away_from_zero(rng, shape, margin=1e-3):
    arr = rng.uniform(-2, 2, shape)
    while np.any(np.abs(arr) < margin):
        arr = rng.uniform(-2, 2, shape)
    return arr


def _op_cases():
    return {
        "matmul_t": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (n, k))],
            lambda t: ad.matmul(t[0], t[1])),
        "add": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, n)), rng.uniform(-2, 2, (m, n))],
            lambda t: ad.add(t[0], t[1])),
        "sub": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, n)), rng.uniform(-2, 2, (m, n))],
            lambda t: ad.sub(t[0], t[1])),
        "scalar_mul": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, n))], lambda t: ad.scalar_mul(t[0], -1.7)),
        "relu": lambda rng, m, k, n: (
            [_away_from_zero(rng, (m, n))], lambda t: ad.relu(t[0])),
        "abs": lambda rng, m, k, n: (
            [_away_from_zero(rng, (m, n))], lambda t: ad.tensor_abs(t[0])),
        "softmax": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, n))], lambda t: ad.softmax(t[0])),
        "log_softmax": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, n))], lambda t: ad.log_softmax(t[0])),
        "mean": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, n))], lambda t: ad.mean(t[0])),
        "sum": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, n))], lambda t: ad.tensor_sum(t[0])),
        "select_columns": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, n))],
            lambda t: ad.select_columns(t[0], np.arange(m) % n)),
        # two stacked layers on two domain batches: the first reads the
        # batches, the second its product's 2 x 2 (module, domain) slices
        "matmul_domains": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (m, k)),
             rng.uniform(-2, 2, (2, n, k)), rng.uniform(-2, 2, (2, n)),
             rng.uniform(-2, 2, (2, n, n))],
            lambda t: ad.matmul(ad.matmul(t[0], t[2], t[3], rest=[t[1]]),
                                t[4])),
        # the pair of two modules on each of two domains, summed
        "mean_abs_diff_domains": lambda rng, m, k, n: (
            [rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (m, k)),
             rng.uniform(-2, 2, (2, n, k))],
            lambda t: ad.mean_abs_diff(ad.matmul(t[0], t[2], rest=[t[1]]))),
    }


def _rerun_value(tape, t, *inputs):
    """t's first value after tape reruns on inputs."""
    tape.rerun(*inputs)
    return float(t.data[0])


def _check_op_cases(kind, case, trials, seed, reverse_lambda=None):
    """Each finite-difference evaluation reruns the case's one tape, whose
    step inputs are the input arrays."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        m, k, n = rng.integers(2, 5, size=3)
        arrs, build = case(rng, m, k, n)
        tape = ad.Tape(*arrs)
        ts = [tape.leaf(a) for a in arrs]
        wrapped = ts if reverse_lambda is None else \
            [ad.grad_reverse(t, reverse_lambda) for t in ts]
        loss = _scalarize(build(wrapped))
        flats = [g.reshape(-1) for g in ad.backward(tape, loss, ts)]

        def value():
            return _rerun_value(tape, loss, *arrs)

        scale = 1.0 if reverse_lambda is None else -reverse_lambda
        for arr, flat in zip(arrs, flats):
            for i in range(arr.size):
                numeric = scale * fd_gradient(value, arr, i)
                worst = max(worst, fd_rel_err(flat[i], numeric))
    return worst


def _tiny_loss_setup(rng):
    seed_a, seed_b = rng.integers(0, 2**31, size=2)
    c1 = build_component_set(2, 3, 2, int(seed_a), g_hidden=(4,), head_hidden=())
    c2 = build_component_set(2, 3, 2, int(seed_b), g_hidden=(4,), head_hidden=())
    xs = rng.uniform(-2, 2, (3, 2))
    xt = rng.uniform(-2, 2, (3, 2))
    ys = rng.integers(0, 2, size=3)
    return c1, c2, xs, ys, xt


def _extractor_kink_clear(comps, x, margin=5e-4):
    h = np.asarray(x, dtype=np.float64)
    layers = comps.extractor.layers
    for i, layer in enumerate(layers):
        h = h @ layer.weight.T + layer.bias
        if i < len(layers) - 1:
            if np.abs(h).min() < margin:
                return False
            h = np.maximum(h, 0.0)
    return True


def _loss_graphs(kind, model, xs, ys, xt, lam):
    tape = ad.Tape()
    c1 = model.invariant
    if kind == "cross_entropy":
        b = BoundComponents(tape, c1)
        t_s = b.transform.forward(b.extractor.forward(tape.leaf(xs)))
        ce = cross_entropy(b.classifier_a.forward(t_s), ys)
        return tape, [(b, lambda comp: [1.0])], [ce], ce
    if kind == "discrepancy_pair":
        b = BoundComponents(tape, c1)
        t_t = b.transform.forward(b.extractor.forward(tape.leaf(xt)))
        dis = discrepancy(ad.softmax(b.classifier_a.forward(t_t)),
                          ad.softmax(b.classifier_b.forward(t_t)))
        return tape, [(b, lambda comp: [1.0])], [dis], dis
    if kind == "invariant_module":
        b = BoundComponents(tape, c1)
        parts = module_loss(b, b.features(tape.leaf(xs)), ys,
                            b.features(tape.leaf(xt)), lam)
        weights = lambda comp: [1.0, 1.0 if comp == "discriminator" else -lam]
        return tape, [(b, weights)], \
            [parts.classifier_ce, parts.domain_ce], parts.total
    if kind == "discriminative_module":
        b = BoundComponents(tape, c1)
        parts = module_loss(b, b.features(tape.leaf(xs)), ys,
                            b.features(tape.leaf(xt)), None)
        return tape, [(b, lambda comp: [1.0, 1.0])], \
            [parts.classifier_ce, parts.domain_ce], parts.total
    if kind == "dual":
        # both modules on one tape, each parameter one [2, ...] leaf
        b = BoundComponents(tape, *model.modules())
        parts = dual_loss(b, b.features(tape.leaf(xs), tape.leaf(xt)), lam)
        weights = lambda comp: [-lam, 1.0]
        return tape, [(b, weights)], \
            [parts.feature_dis, parts.prediction_dis], \
            parts.reversed_feature_dis + parts.prediction_dis
    raise ValueError(kind)


def _check_loss_kind(kind, trials, seed, coords_per_param=3):
    """FD check of parameter gradients; reversal-wrapped parts are compared
    against -lambda times their numeric derivative. Each randomized case
    probes a few random coordinates per parameter array, so coverage of
    every coordinate accumulates across the 100 cases. Each evaluation
    reruns the case's one tape, which reads the parameters in place."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < trials:
        c1, c2, xs, ys, xt = _tiny_loss_setup(rng)
        lam = float(rng.uniform(0.1, 1.2))
        if not (_extractor_kink_clear(c1, xs) and _extractor_kink_clear(c1, xt)
                and _extractor_kink_clear(c2, xs)
                and _extractor_kink_clear(c2, xt)):
            continue
        done += 1
        model = DualModel(c1, c2)
        tape, groups, parts, total = _loss_graphs(kind, model, xs, ys, xt, lam)
        # module by module: a stacked parameter's slices are probed as the
        # two modules' own arrays were
        probes = []
        for binding, weight_fn in groups:
            params = [(comp, arr, tensor)
                      for comp in ("extractor", "transform", "discriminator",
                                   "classifier_a", "classifier_b")
                      for _, arr, tensor in binding.named_pairs((comp,))]
            grads = ad.backward(tape, total, [t for _, _, t in params])
            slices = len(binding.prefixes)
            for m in range(slices):
                for (comp, arr, _), grad in zip(params, grads):
                    if slices > 1:
                        arr, grad = arr[m], grad[m]
                    probes.append((weight_fn(comp), arr, grad))
        for weights, arr, grad in probes:
            flat = grad.reshape(-1)
            picks = rng.choice(arr.size, size=min(coords_per_param, arr.size),
                               replace=False)
            for i in picks:
                numeric = 0.0
                for part, w in zip(parts, weights):
                    def part_value(part=part):
                        return _rerun_value(tape, part)
                    numeric += w * fd_gradient(part_value, arr, i)
                worst = max(worst, fd_rel_err(flat[i], numeric))
    return worst


def test_criterion_gradient_suite():
    start = time.time()
    results = {}
    for kind, case in _op_cases().items():
        results[f"op:{kind}"] = _check_op_cases(kind, case, 100, seed=11)
        results[f"grl+{kind}"] = _check_op_cases(kind, case, 25, seed=12,
                                                 reverse_lambda=0.7)
    for kind in ("cross_entropy", "discrepancy_pair", "invariant_module",
                 "discriminative_module", "dual"):
        results[f"loss:{kind}"] = _check_loss_kind(kind, 100, seed=13)
    elapsed = time.time() - start
    worst = max(results.values())
    failures = {k: v for k, v in results.items() if v >= FD_TOL}
    assert not failures, f"gradient failures: {failures}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s (budget 60s)"
    ok(f"gradient suite: {len(results)} groups, >=100 cases per op/loss, "
       f"worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s")


# --- criterion 2: GRL identity ---------------------------------------------------

def test_criterion_grl_identity():
    rng = np.random.default_rng(21)
    for lam in (0.0, 0.3, 1.0):
        data = rng.uniform(-5, 5, (6, 4))
        tape = ad.Tape()
        x = tape.leaf(data)
        out = ad.grad_reverse(x, lam)
        assert out.data.tobytes() == x.data.tobytes()

        (grad,) = ad.backward(tape, ad.mean(ad.tensor_abs(ad.softmax(out))),
                              [x])
        tape2 = ad.Tape()
        x2 = tape2.leaf(data)
        (grad2,) = ad.backward(tape2, ad.mean(ad.tensor_abs(ad.softmax(x2))),
                               [x2])
        assert np.array_equal(grad, -lam * grad2)
    ok("grad_reverse: forward bit-identical, backward exactly "
       "-lambda x identity-path gradient")


# --- criterion 3: Eq.-1 discrepancy oracle -----------------------------------------

def test_criterion_discrepancy_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        rows, cols = rng.integers(1, 8), rng.integers(2, 12)
        p1 = rng.dirichlet(np.ones(cols), size=rows)
        p2 = rng.dirichlet(np.ones(cols), size=rows)
        tape = ad.Tape()
        t1, t2 = tape.leaf(p1), tape.leaf(p2)
        got = float(discrepancy(t1, t2).data[0])
        want = discrepancy_brute_force(p1, p2)
        worst = max(worst, abs(got - want))
        tape2 = ad.Tape()
        swapped = float(discrepancy(tape2.leaf(p2), tape2.leaf(p1)).data[0])
        assert swapped == got
        if got == 0.0:
            assert np.array_equal(p1, p2)
    tape = ad.Tape()
    same = tape.leaf(np.full((3, 4), 0.25))
    assert float(discrepancy(same, same).data[0]) == 0.0
    assert worst <= 1e-10
    ok(f"discrepancy vs brute-force summation over 1000 random pairs: "
       f"max abs diff {worst:.2e} <= 1e-10; symmetry and zero-iff-equal exact")


# --- criterion 4: schedules --------------------------------------------------------

def test_criterion_schedules():
    s = Schedule()
    assert lr_at(s, 0.0) == 0.002
    direct = 0.002 / 11.0 ** 0.75
    assert abs(lr_at(s, 1.0) - direct) < 1e-9
    assert lambda_at(s, 0.0) == 0.0
    grid = np.linspace(0.0, 1.0, 1001)
    values = [lambda_at(s, p) for p in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    ok("schedules: lr(0)=0.002 exact, lr(1) within 1e-9 of direct form, "
       "lambda(0)=0 exact, lambda monotone on the 1001-point grid")


# --- criterion 5: inference-path audit ---------------------------------------------

def test_criterion_inference_path_audit():
    source = gen_two_moons(96, 0.1, seed=51)
    target = domain_shift(gen_two_moons(96, 0.1, seed=52), 35.0)
    cfg = TrainConfig(variant=Variant.OURS_2M, epochs=2, batch_size=32,
                      eval_every=1, seed=5, schedule=Schedule(eta0=0.01),
                      feature_dim=8, g_hidden=(12,), head_hidden=(6,))
    model, _ = train(cfg, source, target)

    probe = np.vstack([source.features, target.features])
    before = predict(model, probe)

    rng = np.random.default_rng(53)
    for _, arr in model.discriminative.named_arrays():
        arr[...] = rng.standard_normal(arr.shape)
    for stack in (model.invariant.classifier_b, model.invariant.discriminator):
        for layer in stack.layers:
            layer.weight[...] = rng.standard_normal(layer.weight.shape)
            layer.bias[...] = rng.standard_normal(layer.bias.shape)
    after = predict(model, probe)
    assert np.array_equal(before, after)
    ok("inference-path audit: randomizing all of module 2, the secondary "
       "classifier and the domain discriminator leaves predictions bit-identical")


# --- criterion 6: variant gating audit ----------------------------------------------

def test_criterion_variant_gating():
    source = gen_two_moons(96, 0.1, seed=61)
    target = domain_shift(gen_two_moons(96, 0.1, seed=62), 35.0)
    for variant in Variant:
        cfg = TrainConfig(variant=variant, epochs=2, batch_size=32,
                          eval_every=1, seed=6, schedule=Schedule(eta0=0.01),
                          feature_dim=8, g_hidden=(12,), head_hidden=(6,))
        start = DualModel.build(source.input_dim, cfg.feature_dim,
                                source.num_classes, cfg.seed,
                                g_hidden=cfg.g_hidden,
                                head_hidden=cfg.head_hidden)
        reference = {n: a.copy() for n, a in start.named_parameters().items()}
        model, _ = train(cfg, source, target)
        changed = {name.rsplit(".", 2)[0]
                   for name, arr in model.named_parameters().items()
                   if not np.array_equal(reference[name], arr)}
        assert changed == trained_components(variant_plan(variant)), variant

    # source-only trajectories ignore target labels entirely
    cfg = TrainConfig(variant=Variant.SOURCE_ONLY, epochs=2, batch_size=32,
                      eval_every=1, seed=6, schedule=Schedule(eta0=0.01),
                      feature_dim=8, g_hidden=(12,), head_hidden=(6,))
    m1, _ = train(cfg, source, target)
    shuffled = domain_shift(gen_two_moons(96, 0.1, seed=62), 35.0)
    shuffled.labels = np.random.default_rng(0).permutation(shuffled.labels)
    m2, _ = train(cfg, source, shuffled)
    for name, arr in m1.named_parameters().items():
        assert arr.tobytes() == m2.named_parameters()[name].tobytes()
    ok("variant gating audit: each of the 7 variants changes exactly its "
       "declared parameter sets; source_only is invariant to target-label "
       "shuffling")


# --- criterion 7: two-moons ordering experiment --------------------------------------

def _ordering_run(variant, seed):
    ss = lambda k: int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
    source = gen_two_moons(ORDERING["n"], ORDERING["noise"], ss(0))
    target = domain_shift(
        gen_two_moons(ORDERING["n"], ORDERING["noise"], ss(1)),
        ORDERING["theta"])
    cfg = TrainConfig(
        variant=variant, epochs=ORDERING["epochs"],
        batch_size=ORDERING["batch_size"], eval_every=ORDERING["epochs"],
        seed=seed,
        schedule=Schedule(eta0=ORDERING["eta0"],
                          momentum=ORDERING["momentum"]))
    _, records = train(cfg, source, target)
    return records[-1].tgt_acc


def test_criterion_two_moons_ordering():
    start = time.time()
    means = {}
    for variant in (Variant.SOURCE_ONLY, Variant.DANN, Variant.OURS_2M):
        accs = [_ordering_run(variant, seed)
                for seed in range(ORDERING["seeds"])]
        means[variant.value] = float(np.mean(accs))
    elapsed = time.time() - start
    assert elapsed < 300.0, f"ordering experiment took {elapsed:.0f}s"
    assert means["ours_2m"] >= means["dann"] >= means["source_only"], means
    assert means["ours_2m"] - means["source_only"] >= 0.05, means
    ok(f"two-moons ordering over {ORDERING['seeds']} seeds in {elapsed:.0f}s: "
       f"ours_2m {means['ours_2m']:.3f} >= dann {means['dann']:.3f} >= "
       f"source_only {means['source_only']:.3f}, gap "
       f"{means['ours_2m'] - means['source_only']:.3f} >= 0.05")


# --- criterion 8: MCD descent property ------------------------------------------------

def test_criterion_mcd_descent():
    wins = 0
    for seed in range(100):
        comps = build_component_set(2, 6, 2, seed=seed, g_hidden=(8,),
                                    head_hidden=(4,))
        ss = lambda k: int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        source = gen_two_moons(64, 0.1, ss(0))
        target = domain_shift(gen_two_moons(64, 0.1, ss(1)), 30.0)
        xt = target.features[:16]
        # a DualModel copies comps' values into its buffer unchanged
        buffer = DualModel(comps, copy.deepcopy(comps)).buffer
        before = step1_mcd(comps, "", source.features[:16],
                           source.labels[:16], xt, 4, 0.01, SGD(buffer, 0.0),
                           {})[0]
        wins += pair_discrepancy(comps, xt) <= before
    assert wins >= 90
    ok(f"MCD phase C did not increase classifier discrepancy in {wins}/100 "
       f"seeded trials (threshold 90)")


# --- criterion 9: run_experiment determinism ------------------------------------------

def test_criterion_run_experiment_determinism(tmp_path):
    cfg_text = (
        "variant = ours_1m\ndataset = two_moons\nepochs = 2\n"
        "batch_size = 32\nn_source = 80\nn_target = 80\ntrials = 2\n"
        "eval_every = 1\nfeature_dim = 8\ng_hidden = 12\nhead_hidden = 6\n"
        "eta0 = 0.01\n")
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text)
    cfg = parse_config(cfg_path)
    cfg.out_dir = str(tmp_path / "out")
    assert run_experiment(cfg) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
    assert run_experiment(cfg) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")}
    assert first == second and first
    ok("run_experiment rerun produces byte-identical metrics CSV bodies")


# --- criterion 10: IDX loader ----------------------------------------------------------

def test_criterion_idx_loader(tmp_path):
    pixels = np.array([[[0, 255], [128, 64]], [[7, 9], [11, 13]]],
                      dtype=np.uint8)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(img, pixels)
    write_idx_labels(lab, np.array([1, 0], dtype=np.uint8))
    ds = load_idx(img, lab)
    assert np.array_equal(
        ds.features[0], [0.0, 1.0, 128 / 255.0, 64 / 255.0])
    back = np.round(ds.features * 255.0).astype(np.uint8).reshape(2, 2, 2)
    assert np.array_equal(back, pixels)

    bad_magic = tmp_path / "bad.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 0x00000802, 1, 2, 2) + bytes(4))
    with pytest.raises(FormatError, match="0x00000802"):
        load_idx(bad_magic, num_classes=2)

    truncated = tmp_path / "trunc.idx"
    truncated.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(3))
    with pytest.raises(FormatError, match="wanted 8 bytes, got 3"):
        load_idx(truncated, num_classes=2)

    short_labels = tmp_path / "short.idx"
    write_idx_labels(short_labels, np.array([1], dtype=np.uint8))
    with pytest.raises(ConsistencyError):
        load_idx(img, short_labels)
    ok("IDX loader: hand-built fixtures round-trip exactly; bad magic and "
       "truncation raise the documented errors")
