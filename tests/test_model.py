import hashlib

import numpy as np
import pytest

import dualda.autodiff as ad
from dualda.errors import ContractError, DimensionError
from dualda.model import (DualModel, Variant, forward_path, predict,
                          predicted_classes, variant_plan)
from dualda.nn import BoundComponents, build_component_set, save_params
from dualda.optim import SGD
from dualda.trainer import step3_dual

from oracles import module_forward_numpy, softmax_rows, trained_components
from test_golden import _golden_run


def test_forward_path_shapes():
    model = DualModel.build(2, 32, 3, seed=0)
    x = np.random.default_rng(0).uniform(-1, 1, (5, 2))
    out = forward_path(model.invariant, x)
    assert out.features.shape == (5, 32)
    assert out.transform_out.shape == (5, 32)
    assert out.classifier_a_probs.shape == (5, 3)
    assert out.classifier_b_probs.shape == (5, 3)
    assert out.domain_logits.shape == (5, 2)


def test_forward_path_matches_numpy_replay():
    model = DualModel.build(2, 8, 3, seed=4)
    x = np.random.default_rng(1).uniform(-2, 2, (6, 2))
    out = forward_path(model.invariant, x)
    t_out, logits_a, _, d_logits = module_forward_numpy(model.invariant, x)
    assert np.allclose(out.transform_out, t_out, atol=1e-12)
    assert np.allclose(out.classifier_a_probs, softmax_rows(logits_a), atol=1e-12)
    assert np.allclose(out.domain_logits, d_logits, atol=1e-12)


def test_forward_path_zero_heads_give_uniform_probs():
    model = DualModel.build(2, 8, 4, seed=0)
    for layer in model.invariant.classifier_a.layers:
        layer.weight[...] = 0.0
        layer.bias[...] = 0.0
    out = forward_path(model.invariant, np.ones((3, 2)))
    assert np.allclose(out.classifier_a_probs, 0.25)


def test_forward_path_deterministic():
    model = DualModel.build(2, 8, 3, seed=2)
    x = np.random.default_rng(2).uniform(-1, 1, (4, 2))
    a = forward_path(model.invariant, x)
    b = forward_path(model.invariant, x)
    assert a.classifier_a_probs.tobytes() == b.classifier_a_probs.tobytes()


def test_predict_ignores_m2_c2_d1():
    rng = np.random.default_rng(3)
    model = DualModel.build(2, 8, 3, seed=7)
    x = rng.uniform(-2, 2, (10, 2))
    before = predict(model, x)

    for _, arr in model.discriminative.named_arrays():
        arr[...] = rng.standard_normal(arr.shape)
    for stack in (model.invariant.classifier_b, model.invariant.discriminator):
        for layer in stack.layers:
            layer.weight[...] = rng.standard_normal(layer.weight.shape)
            layer.bias[...] = rng.standard_normal(layer.bias.shape)

    assert np.array_equal(predict(model, x), before)


def test_predict_tie_breaks_to_lowest_class():
    model = DualModel.build(2, 4, 3, seed=1)
    for stack in (model.invariant.classifier_a,):
        for layer in stack.layers:
            layer.weight[...] = 0.0
            layer.bias[...] = 0.0
    labels = predict(model, np.random.default_rng(0).uniform(-1, 1, (6, 2)))
    assert np.all(labels == 0)


# --- inference without a tape --------------------------------------------------

def taped_path(comps, x):
    """The taped forward that inference ran before: every stack bound onto
    one tape, the heads reading the transform output."""
    tape = ad.Tape()
    b = BoundComponents(tape, comps)
    feats = b.extractor.forward(tape.leaf(x))
    t_out = b.transform.forward(feats)
    return (feats.data, t_out.data,
            ad.softmax(b.classifier_a.forward(t_out)).data,
            ad.softmax(b.classifier_b.forward(t_out)).data,
            b.discriminator.forward(t_out).data)


def inference_inputs():
    """A model and rows that hit exact-zero hidden pre-activations."""
    model = DualModel.build(2, 8, 3, seed=11)
    model.invariant.extractor.layers[0].bias[2] = 0.0
    x = np.random.default_rng(12).uniform(-3, 3, (40, 2))
    x[:3] = 0.0
    return model, x


def test_forward_path_equals_the_taped_forward_bytewise():
    model, x = inference_inputs()
    got = forward_path(model.invariant, x)
    want = taped_path(model.invariant, x)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_predict_equals_the_taped_rule_bytewise():
    model, x = inference_inputs()
    probs = taped_path(model.invariant, x)[2]
    labels = predict(model, x)
    assert labels.tobytes() == np.argmax(probs, axis=1).tobytes()
    assert len(set(labels.tolist())) > 1  # not a constant prediction


def test_predicted_classes_reads_the_softmax_not_the_logits():
    # a logit lead below the softmax's rounding is a tie, which goes to the
    # lowest class, as it did when predict ran the taped softmax
    logits = np.array([[0.0, 1e-17], [0.0, 1.0]])
    assert predicted_classes(logits).tolist() == [0, 1]


def test_predict_accepts_nested_lists():
    model, x = inference_inputs()
    assert np.array_equal(predict(model, x.tolist()), predict(model, x))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inference_rejects_nonfinite_input(bad):
    model, x = inference_inputs()
    x[5, 1] = bad
    with pytest.raises(ContractError, match="NaN or Inf"):
        predict(model, x)
    with pytest.raises(ContractError, match="NaN or Inf"):
        forward_path(model.invariant, x)
    with pytest.raises(ContractError, match="NaN or Inf"):
        model.invariant.features(x)


@pytest.mark.parametrize("shape", [(2,), (4, 3), (4, 1), (2, 2, 1)])
def test_inference_rejects_a_misshapen_input(shape):
    model, _ = inference_inputs()
    x = np.ones(shape)
    for fn in (lambda: predict(model, x),
               lambda: forward_path(model.invariant, x),
               lambda: model.invariant.features(x)):
        with pytest.raises(DimensionError):
            fn()


def test_inference_on_zero_rows_gives_empty_outputs():
    model, _ = inference_inputs()
    x = np.zeros((0, 2))
    labels = predict(model, x)
    assert labels.shape == (0,) and labels.dtype.kind == "i"
    out = forward_path(model.invariant, x)
    assert [a.shape for a in out] == [(0, 8), (0, 8), (0, 3), (0, 3), (0, 2)]
    assert model.invariant.features(x).shape == (0, 8)


def test_parameter_disjointness_and_structural_symmetry():
    model = DualModel.build(2, 8, 3, seed=0)
    names1 = dict(model.invariant.named_arrays())
    names2 = dict(model.discriminative.named_arrays())
    assert {n: a.shape for n, a in names1.items()} == \
        {n: a.shape for n, a in names2.items()}
    assert not ({id(a) for a in names1.values()} &
                {id(a) for a in names2.values()})
    assert any(not np.array_equal(names1[n], names2[n]) for n in names1)


def test_save_load_roundtrip(tmp_path):
    model = DualModel.build(2, 8, 3, seed=5)
    path = tmp_path / "model.bin"
    model.save(path)
    other = DualModel.build(2, 8, 3, seed=6)
    x = np.random.default_rng(4).uniform(-1, 1, (5, 2))
    other.load(path)
    assert np.array_equal(predict(other, x), predict(model, x))
    for name, arr in other.named_parameters().items():
        assert arr.tobytes() == model.named_parameters()[name].tobytes()


def test_loading_a_checkpoint_with_nan_raises_and_keeps_the_parameters(tmp_path):
    model = DualModel.build(2, 8, 3, seed=5)
    named = model.named_parameters()
    named = {name: arr.copy() for name, arr in named.items()}
    named["invariant.classifier_a.0.bias"][1] = np.nan
    path = tmp_path / "model.bin"
    save_params(path, named)
    other = DualModel.build(2, 8, 3, seed=6)
    kept = {n: a.copy() for n, a in other.named_parameters().items()}
    with pytest.raises(ContractError, match=r"invariant\.classifier_a\.0\.bias"):
        other.load(path)
    for name, arr in other.named_parameters().items():
        assert arr.tobytes() == kept[name].tobytes()


def test_variant_parse_exact_strings():
    assert Variant("ours_2m") is Variant.OURS_2M
    with pytest.raises(ContractError, match="valid values"):
        Variant("DANN")


PLAN_CASES = {
    Variant.SOURCE_ONLY: ((), "ce_only", False, False),
    Variant.DANN: ((), "adversarial", False, False),
    Variant.MCD: (("invariant",), "none", False, False),
    Variant.MCD_DANN: (("invariant",), "adversarial", False, False),
    Variant.OURS: ((), "adversarial", True, True),
    Variant.OURS_1M: (("invariant",), "adversarial", True, True),
    Variant.OURS_2M: (("invariant", "discriminative"), "adversarial", True, True),
}


@pytest.mark.parametrize("variant", list(PLAN_CASES))
def test_variant_plan_mapping(variant):
    plan = variant_plan(variant)
    mcd, step2_inv, step2_dis, step3 = PLAN_CASES[variant]
    assert plan.mcd_modules == mcd
    assert plan.step2_invariant == step2_inv
    assert plan.step2_discriminative == step2_dis
    assert plan.step3 == step3


def test_variant_plan_examples():
    dann = variant_plan(Variant.DANN)
    assert not dann.mcd_modules and not dann.step3

    ours2m = variant_plan(Variant.OURS_2M)
    assert set(ours2m.mcd_modules) == {"invariant", "discriminative"}
    assert ours2m.step2_invariant == "adversarial"
    assert ours2m.step2_discriminative and ours2m.step3

    source_only = variant_plan(Variant.SOURCE_ONLY)
    assert not source_only.mcd_modules and not source_only.step3
    assert trained_components(source_only) == {
        "invariant.extractor", "invariant.transform",
        "invariant.classifier_a", "invariant.classifier_b"}


# --- stacked storage ------------------------------------------------------------

def test_each_module_array_is_a_view_of_its_slice_of_the_stacked_array():
    model = DualModel.build(2, 8, 3, seed=0)
    stacked = dict(model.stacked.named_arrays())
    for m, comps in enumerate((model.invariant, model.discriminative)):
        for name, arr in comps.named_arrays():
            # numpy points every view's base at the array that owns the
            # data: the model's one flat buffer
            assert arr.base is model.buffer and stacked[name].base is model.buffer
            assert stacked[name][m].__array_interface__ == arr.__array_interface__
            assert arr.flags.c_contiguous
    assert all(a.shape[0] == 2 for a in stacked.values())


def test_named_parameters_keep_their_names_and_order():
    model = DualModel.build(2, 8, 3, seed=0, g_hidden=(6, 5), head_hidden=(4,))
    layers = {"extractor": 3, "transform": 1, "discriminator": 2,
              "classifier_a": 2, "classifier_b": 2}
    want = [f"{module}.{key}.{i}.{kind}"
            for module in ("invariant", "discriminative")
            for key in layers for i in range(layers[key])
            for kind in ("weight", "bias")]
    assert list(model.named_parameters()) == want


def test_a_model_built_from_two_sets_trains_them_in_place():
    c1 = build_component_set(2, 6, 2, seed=1)
    c2 = build_component_set(2, 6, 2, seed=2)
    before = {n: a.copy() for n, a in c1.named_arrays()}
    model = DualModel(c1, c2)
    rng = np.random.default_rng(5)
    step3_dual(model, rng.uniform(-2, 2, (16, 2)), rng.uniform(-2, 2, (16, 2)),
               lam=0.5, lr=0.1, sgd=SGD(0.0), programs={})
    params = model.named_parameters()
    for name, arr in c1.named_arrays():
        assert arr is params[f"invariant.{name}"]
    assert not np.array_equal(c1.extractor.layers[0].weight,
                              before["extractor.0.weight"])


def test_the_golden_checkpoint_keeps_its_bytes(tmp_path):
    """sha256 of the golden ours_2m run's checkpoint file, as written before
    the modules shared stacked storage."""
    model, _ = _golden_run()
    model.save(tmp_path / "golden.bin")
    blob = (tmp_path / "golden.bin").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "78910c0d505a19eb3c2d82b682ef47eaf4da24231985bfd7c34cb8f375cd7a61")
