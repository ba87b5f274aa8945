"""A DualModel keeps every parameter in one flat buffer, and SGD steps
the range that an update trains as one block, one row per module. The
steps must give the bytes of the array-by-array optimizer they replaced
(oracles.ArraySGD)."""

import numpy as np
import pytest

from dualda.errors import ContractError
from dualda.model import MODULES, DualModel
from dualda.nn import STORE_ORDER
from dualda.optim import SGD

from oracles import ArraySGD


def _model():
    return DualModel.build(3, 6, 4, seed=7, g_hidden=(8, 5), head_hidden=(5,))


def _address(arr) -> int:
    return arr.__array_interface__["data"][0]


def test_every_parameter_is_a_view_into_the_one_buffer_in_store_order():
    model = _model()
    buffer = model.buffer
    params = model.named_parameters()
    assert buffer.ndim == 1 and buffer.flags.owndata
    assert buffer.size == sum(a.size for a in params.values())
    # module-major, then the components in STORE_ORDER, each layer's
    # weight then its bias
    offset = 0
    for module in MODULES:
        for key in STORE_ORDER:
            for name, arr in getattr(model, module).components()[key] \
                    .named_arrays():
                full = params[f"{module}.{key}.{name}"]
                assert full is arr and arr.base is buffer
                assert _address(arr) == _address(buffer) + 8 * offset
                offset += arr.size
    assert offset == buffer.size
    for name, arr in model.stacked.named_arrays():
        assert arr.base is buffer and arr.shape[0] == 2


@pytest.mark.parametrize("group", [
    ("extractor", "transform", "classifier_a", "classifier_b"),  # phase A
    ("classifier_a", "classifier_b"),                            # phase B
    ("extractor", "transform"),                                  # phase C
    ("extractor", "transform", "classifier_a"),                  # step 3
    ("extractor", "transform", "discriminator", "classifier_a",
     "classifier_b")])                                           # step 2
def test_each_trained_group_is_one_contiguous_range_per_module(group):
    model = _model()
    for module in MODULES:
        spans = sorted(
            (_address(arr), _address(arr) + 8 * arr.size)
            for key in group
            for _, arr in getattr(model, module).components()[key]
            .named_arrays())
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:])), module


def test_load_state_writes_through_the_views():
    model, other = _model(), DualModel.build(3, 6, 4, seed=8, g_hidden=(8, 5),
                                             head_hidden=(5,))
    model.load_state(other.named_parameters())
    assert model.buffer.tobytes() == other.buffer.tobytes()
    stacked = dict(model.stacked.named_arrays())
    for name, arr in other.invariant.named_arrays():
        assert stacked[name][0].tobytes() == arr.tobytes()


def _named(model, modules, components):
    """(slice names, array) for the components of the modules: the stacked
    arrays for both modules, a module's own arrays for one."""
    comps, prefixes = model.modules(modules)
    return [(tuple(f"{p}{key}.{name}" for p in prefixes), arr)
            for key in components
            for name, arr in comps.components()[key].named_arrays()]


def _items(model, modules, components, grads):
    """(slice names, array, grad) for the components of the modules."""
    return [(names, arr, grads[names])
            for names, arr in _named(model, modules, components)]


def _step(sgd, items, lr):
    """The items' gradients written into sgd's gradient store, then one
    step of their block, passed as an iterator as the benchmark's tracer
    passes it."""
    for names, arr, grad in items:
        np.copyto(sgd.grad_view(names, arr), grad)
    sgd.step(iter([sgd.block((names, arr) for names, arr, _ in items)]), lr)


def _grads(model, rng):
    comps, prefixes = model.modules()
    grads = {}
    for key, stack in comps.components().items():
        for name, arr in stack.named_arrays():
            g = rng.standard_normal(arr.shape)
            names = tuple(f"{p}{key}.{name}" for p in prefixes)
            grads[names] = g
            for m, n in enumerate(names):
                grads[(n,)] = g[m]
    return grads


PATH = ("extractor", "transform", "classifier_a", "classifier_b")

# (modules, components, lr) per update, in order
SCHEDULES = {
    # phases A and C share the extractor's and transform's velocity
    "phase_a_then_c": [(MODULES, PATH, [0.03, 0.01]),
                       (MODULES, ("extractor", "transform"), [0.02, 0.005]),
                       (MODULES, ("extractor", "transform"), [0.02, 0.005]),
                       (MODULES, PATH, [0.025, 0.008])],
    "one_module": [(("invariant",), PATH, 0.05),
                   (("invariant",), ("classifier_a", "classifier_b"), 0.04),
                   (("invariant",), ("extractor", "transform"), 0.03)],
    "two_modules": [(MODULES, ("extractor", "transform", "classifier_a",
                               "classifier_b", "discriminator"), 0.05),
                    (MODULES, ("extractor", "transform", "classifier_a"),
                     0.04)],
    "phase_b_and_heads": [(MODULES, ("classifier_a", "classifier_b"),
                           [0.1, 0.2]),
                          (MODULES, ("classifier_b", "discriminator"), 0.05)],
}


@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_flat_steps_equal_array_by_array_steps_bytewise(schedule):
    rng = np.random.default_rng(11)
    flat_model, ref_model = _model(), _model()
    flat, ref = SGD(flat_model.buffer, 0.9), ArraySGD(0.9)
    for modules, components, lr in SCHEDULES[schedule] * 2:
        grads = _grads(flat_model, rng)
        _step(flat, _items(flat_model, modules, components, grads), lr)
        ref.step(_items(ref_model, modules, components, grads), lr)
        assert flat_model.buffer.tobytes() == ref_model.buffer.tobytes()
    assert flat_model.buffer.tobytes() != _model().buffer.tobytes()


@pytest.mark.parametrize("lr", [[1.0, 1e308], 1e308])
def test_a_divergence_names_the_slice_and_lr_of_the_reference(lr):
    messages = []
    for model in (_model(), _model()):
        grads = _grads(model, np.random.default_rng(0))
        key = ("invariant.transform.0.weight", "discriminative.transform.0.weight")
        grads[key][1, 2, 3] = -1e308
        if np.isscalar(lr):
            grads[key][0, 0, 0] = 1e300
        items = _items(model, MODULES, PATH, grads)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ContractError) as info:
            if messages:  # the reference, on the second model
                ArraySGD(0.0).step(items, lr)
            else:
                _step(SGD(model.buffer, 0.0), items, lr)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "is no longer finite after an update with lr 1e+308" in messages[0]


def test_a_parameter_of_another_array_is_refused():
    """Its gradient view and its block alike, naming it."""
    sgd = SGD(_model().buffer, 0.9)
    names, arr = _named(_model(), MODULES, ("transform",))[0]
    message = r"parameter invariant\.transform\.0\.weight is not a view of " \
              r"the optimizer's buffer"
    with pytest.raises(ContractError, match=message):
        sgd.grad_view(names, arr)
    with pytest.raises(ContractError, match=message):
        sgd.block([(names, arr)])


def test_a_group_with_a_gap_is_refused():
    """The extractor and classifier_a without the transform between them
    are two ranges per module."""
    model = _model()
    with pytest.raises(ContractError, match=r"parameter invariant\."
                       r"classifier_a\.0\.weight does not continue"):
        SGD(model.buffer, 0.9).block(
            _named(model, MODULES, ("extractor", "classifier_a")))


def test_a_parameter_named_twice_in_one_step_is_refused():
    model = _model()
    named = _named(model, ("invariant",), ("transform",))
    with pytest.raises(ContractError, match=r"parameter invariant\."
                       r"transform\.0\.\w+ does not continue"):
        SGD(model.buffer, 0.9).block(named + named)


def test_the_stacked_set_runs_both_modules_as_their_own_sets_bytewise():
    model = _model()
    x = np.random.default_rng(3).uniform(-2, 2, (9, 3))
    per_module = [getattr(model, m).features(x) for m in MODULES]
    assert model.stacked.slices == 2 and model.invariant.slices == 1
    assert model.stacked.features(x).tobytes() == \
        np.concatenate(per_module).tobytes()
