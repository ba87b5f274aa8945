import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualda.autodiff as ad
from dualda.errors import ContractError, DimensionError, FormatError
from dualda.nn import (BoundStack, ComponentSet, LinearLayer, NetworkSpec,
                       Stack, build_component_set, init_stack, load_params,
                       save_params)

from dualda.gradcheck import _near_relu_kink

from oracles import FD_TOL, fd_gradient, fd_rel_err, stack_forward_numpy


def test_init_shapes_for_spec_2_8_3():
    stack = init_stack(NetworkSpec([2, 8, 3]), seed=0)
    assert stack.layers[0].weight.shape == (8, 2)
    assert stack.layers[0].bias.shape == (8,)
    assert stack.layers[1].weight.shape == (3, 8)
    assert stack.layers[1].bias.shape == (3,)


def test_init_deterministic_and_seed_sensitive():
    spec = NetworkSpec([4, 6, 2])
    a = init_stack(spec, seed=42)
    b = init_stack(spec, seed=42)
    c = init_stack(spec, seed=43)
    for la, lb in zip(a.layers, b.layers):
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert np.all(la.bias == 0.0)
    assert any(not np.array_equal(la.weight, lc.weight)
               for la, lc in zip(a.layers, c.layers))


def test_init_glorot_bounds():
    stack = init_stack(NetworkSpec([3, 50]), seed=9)
    bound = np.sqrt(6.0 / (3 + 50))
    w = stack.layers[0].weight
    assert np.all(np.abs(w) <= bound)
    assert np.abs(w).max() > 0.5 * bound  # draws actually fill the range


def forward(stack, x):
    """Bind the stack onto a fresh tape and run it on x."""
    tape = ad.Tape()
    return BoundStack(tape, stack).forward(tape.leaf(x))


def test_bound_stack_matches_numpy_replay():
    rng = np.random.default_rng(5)
    stack = init_stack(NetworkSpec([3, 5, 4]), 1)
    x = rng.uniform(-2, 2, (6, 3))
    out = forward(stack, x)
    assert np.allclose(out.data, stack_forward_numpy(stack, x), atol=1e-12)


def test_zero_classifier_softmax_is_uniform():
    stack = Stack([LinearLayer(np.zeros((4, 3)), np.zeros(4))])
    out = ad.softmax(forward(stack, np.ones((2, 3))))
    assert np.allclose(out.data, 0.25)


def test_identity_weight_layer_reproduces_input():
    stack = Stack([LinearLayer(np.eye(2), np.zeros(2))])
    x = [[1.0, 2.0], [3.0, 4.0]]
    assert np.array_equal(forward(stack, x).data, x)


def test_bound_stack_dimension_error():
    stack = init_stack(NetworkSpec([3, 2]), 0)
    with pytest.raises(DimensionError):
        forward(stack, np.ones((2, 5)))


def _hidden_kink_distance(stack, x):
    h = np.asarray(x, dtype=np.float64)
    closest = np.inf
    for i, layer in enumerate(stack.layers):
        h = h @ layer.weight.T + layer.bias
        if i < len(stack.layers) - 1:
            closest = min(closest, float(np.abs(h).min()))
            h = np.maximum(h, 0.0)
    return closest


def test_stack_gradients_pass_finite_differences():
    rng = np.random.default_rng(8)
    worst = 0.0
    trials = attempt = 0
    while trials < 10:
        attempt += 1
        stack = init_stack(NetworkSpec([2, 4, 3]), attempt)
        x = rng.uniform(-2, 2, (3, 2))
        if _hidden_kink_distance(stack, x) < 1e-3:
            continue
        trials += 1

        def value():
            return float(ad.mean(ad.log_softmax(forward(stack, x))).data[0])

        tape = ad.Tape()
        bound = BoundStack(tape, stack)
        loss = ad.mean(ad.log_softmax(bound.forward(tape.leaf(x))))
        ad.backward(tape, loss)
        for _, arr, tensor in bound.named_pairs():
            for i in range(arr.size):
                numeric = fd_gradient(value, arr, i)
                worst = max(worst, fd_rel_err(tensor.grad.reshape(-1)[i], numeric))
    assert worst < FD_TOL, f"worst rel err {worst:.3e}"


@pytest.mark.parametrize("hidden_bias,near", [(2e-4, True), (-4e-4, True),
                                               (1e-3, False)])
def test_near_relu_kink_sees_the_relu_inside_a_dense_layer(hidden_bias, near):
    # on a zero input the hidden pre-activations are the biases: unit 0
    # sits hidden_bias from the kink, unit 1 far from it
    stack = Stack([LinearLayer(np.ones((2, 1)), np.array([hidden_bias, 0.5])),
                   LinearLayer(np.ones((1, 2)), np.zeros(1))])
    tape = ad.Tape()
    BoundStack(tape, stack).forward(tape.leaf([[0.0]]))
    assert [r.kind for r in tape.records] == ["matmul", "matmul"]
    assert _near_relu_kink(tape) is near


def test_stack_apply_equals_the_bound_forward_bytewise():
    rng = np.random.default_rng(6)
    stack = init_stack(NetworkSpec([3, 5, 4, 2]), 2)
    stack.layers[0].bias[1] = 0.0
    x = rng.uniform(-2, 2, (6, 3))
    x[0] = 0.0   # exact-zero pre-activations on the first row
    assert stack.apply(x).tobytes() == forward(stack, x).data.tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 5), (1, 3, 1)])
def test_stack_apply_rejects_a_misfit_input(shape):
    stack = init_stack(NetworkSpec([3, 2]), 0)
    with pytest.raises(DimensionError):
        stack.apply(np.ones(shape))


# --- component sets ---------------------------------------------------------

def test_component_set_shapes_and_square_transform():
    comps = build_component_set(2, 16, 10, seed=0)
    assert comps.transform.layers[0].weight.shape == (16, 16)
    assert comps.classifier_a.out_dim == 10
    assert comps.discriminator.out_dim == 2


def test_component_set_classifiers_differ_and_seeds_differ():
    comps = build_component_set(2, 8, 3, seed=5)
    assert not np.array_equal(comps.classifier_a.layers[0].weight,
                              comps.classifier_b.layers[0].weight)
    other = build_component_set(2, 8, 3, seed=6)
    assert not np.array_equal(comps.extractor.layers[0].weight,
                              other.extractor.layers[0].weight)


def test_non_square_transform_rejected():
    comps = build_component_set(2, 4, 2, seed=0)
    with pytest.raises(ContractError, match="square"):
        ComponentSet(
            extractor=comps.extractor,
            transform=init_stack(NetworkSpec([4, 5]), 0),
            discriminator=comps.discriminator,
            classifier_a=comps.classifier_a,
            classifier_b=comps.classifier_b,
        )


def test_transform_preserves_shape():
    comps = build_component_set(3, 8, 2, seed=1)
    feats = np.random.default_rng(0).uniform(-1, 1, (5, 8))
    out = forward(comps.transform, feats)
    assert out.shape == feats.shape


# --- parameter file format ---------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    comps = build_component_set(2, 4, 3, seed=7)
    named = dict(comps.named_arrays("m."))
    path = tmp_path / "params.bin"
    save_params(path, named)
    loaded = load_params(path)
    assert list(loaded) == list(named)
    for name in named:
        assert loaded[name].tobytes() == named[name].tobytes()


def test_load_params_truncation_error(tmp_path):
    path = tmp_path / "params.bin"
    save_params(path, {"w": np.arange(6, dtype=np.float64).reshape(2, 3)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="truncated"):
        load_params(path)


def test_load_params_trailing_bytes_error(tmp_path):
    path = tmp_path / "params.bin"
    save_params(path, {"w": np.ones(4)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="trailing"):
        load_params(path)


def test_load_params_rejects_a_duplicate_name(tmp_path):
    path = tmp_path / "params.bin"
    save_params(path, {"w": np.ones(2), "v": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    # both names are one byte long: rename "v" to "w" in the header
    blob[blob.index(b"v", 4)] = ord("w")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="'w' twice"):
        load_params(path)


def test_save_params_failing_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "params.bin"
    save_params(path, {"w": np.arange(3.0)})
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        # the header of the second entry fails after the first is written
        save_params(path, {"w": np.ones(3), "broken": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["params.bin"]


def _params_header(count, name, dims):
    return (struct.pack("<II", count, len(name)) + name
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims))


@pytest.mark.parametrize("blob,match", [
    (_params_header(1, b"\xff\xfe", [1]) + bytes(8), "not UTF-8"),
    (_params_header(1, b"w", [2**32 - 1] * 4) + bytes(8), "truncated"),
    (_params_header(1, b"w", [2**31, 2**31, 4]) + bytes(8), "truncated"),
])
def test_load_params_malformed_header_is_format_error(tmp_path, blob, match):
    path = tmp_path / "params.bin"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=match):
        load_params(path)


_U32 = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=64),
    st.builds(lambda count, name, dims, payload:
              _params_header(count, name, dims) + payload,
              _U32, st.binary(max_size=6), st.lists(_U32, max_size=3),
              st.binary(max_size=48))))
def test_load_params_any_bytes_give_params_or_a_format_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.bin"
        path.write_bytes(blob)
        try:
            named = load_params(path)
        except FormatError:
            return
        assert all(arr.dtype == np.float64 for arr in named.values())
