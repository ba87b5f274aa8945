"""Dense layers, Glorot init, the four component kinds, and parameter I/O.

Parameters live as plain float64 numpy arrays that persist across training
steps and are updated in place; a training call site binds them onto its
tape once, when it captures it (``Tape.param``, no copy and no finiteness
scan), so that every rerun reads the latest values and the optimizer can
look gradients up by parameter name. Inference reads the arrays
directly (``Stack.apply``, ``ComponentSet.features``), with no tape.

Structurally identical modules share one store: ``stack_component_sets``
puts every parameter of M modules into one flat float64 buffer, module by
module, and makes each ``[M, ...]`` stacked array and each module's own
arrays views of it. A stacked ComponentSet binds all M modules as one
graph (``BoundComponents``) and runs them without a tape
(``Stack.apply``), while each module still reads and writes its own
arrays, and the optimizer steps every parameter through the buffer.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DimensionError, FormatError

@dataclass
class NetworkSpec:
    """Architecture of one dense stack: its layer widths."""

    layer_dims: List[int]

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ContractError("NetworkSpec: need at least [in_dim, out_dim]")
        if any(int(d) < 1 for d in self.layer_dims):
            raise ContractError(f"NetworkSpec: dims must be >= 1, got {self.layer_dims}")
        self.layer_dims = [int(d) for d in self.layer_dims]

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


class LinearLayer:
    """weight [out_dim, in_dim] and bias [out_dim], both trainable; or M
    stacked layers, weight [M, out_dim, in_dim] and bias [M, out_dim]."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim not in (2, 3) or weight.shape[:-1] != bias.shape:
            raise DimensionError(
                f"LinearLayer: weight {list(weight.shape)} and bias "
                f"{list(bias.shape)} do not conform")
        self.weight = weight
        self.bias = bias

    @property
    def in_dim(self) -> int:
        return self.weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[-2]


class Stack:
    """A chain of LinearLayers with relu between them."""

    def __init__(self, layers: List[LinearLayer]):
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise DimensionError(
                    f"Stack: layer output {prev.out_dim} feeds layer input {nxt.in_dim}")
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def named_arrays(self) -> Iterator[Tuple[str, np.ndarray]]:
        for i, layer in enumerate(self.layers):
            yield f"{i}.weight", layer.weight
            yield f"{i}.bias", layer.bias

    def apply(self, x: np.ndarray, slices: int = 1) -> np.ndarray:
        """The forward pass without a tape: the numpy calls of
        BoundStack.forward, so the same bits. Stacked layers of M slices
        read x's `slices` row slices (1 or M) and return M."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"Stack: input {list(x.shape)} does not fit a stack of input "
                f"width {self.in_dim}")
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = ad.dense(x, layer.weight, layer.bias, i < last, slices)
            slices = 1 if layer.weight.ndim == 2 else layer.weight.shape[0]
        return x


def init_stack(spec: NetworkSpec, seed) -> Stack:
    """Glorot-uniform weights, zero biases, fully determined by seed."""
    rng = np.random.default_rng(seed)
    layers = []
    for in_dim, out_dim in zip(spec.layer_dims, spec.layer_dims[1:]):
        a = np.sqrt(6.0 / (in_dim + out_dim))
        weight = rng.uniform(-a, a, size=(out_dim, in_dim))
        layers.append(LinearLayer(weight, np.zeros(out_dim)))
    return Stack(layers)


class BoundStack:
    """A Stack whose parameters are bound onto one tape as leaf tensors; a
    stacked Stack runs its M slices as one graph (see autodiff.matmul)."""

    def __init__(self, tape: ad.Tape, stack: Stack):
        self.stack = stack
        self.weights = [tape.param(l.weight) for l in stack.layers]
        self.biases = [tape.param(l.bias) for l in stack.layers]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.matmul(h, w, transpose_b=True, bias=b, relu=i < last)
        return h

    def named_pairs(self) -> Iterator[Tuple[str, np.ndarray, ad.Tensor]]:
        for i, layer in enumerate(self.stack.layers):
            yield f"{i}.weight", layer.weight, self.weights[i]
            yield f"{i}.bias", layer.bias, self.biases[i]


COMPONENT_KEYS = ("extractor", "transform", "discriminator",
                  "classifier_a", "classifier_b")


@dataclass
class ComponentSet:
    """One module's parts: feature extractor, square transform layer,
    2-way domain discriminator, and a pair of K-way classifiers."""

    extractor: Stack
    transform: Stack
    discriminator: Stack
    classifier_a: Stack
    classifier_b: Stack

    def __post_init__(self):
        t = self.transform
        if len(t.layers) != 1 or t.in_dim != t.out_dim:
            raise ContractError(
                f"transform layer must be a single square linear map, got "
                f"dims {t.in_dim}->{t.out_dim} over {len(t.layers)} layer(s)")
        if self.discriminator.out_dim != 2:
            raise ContractError("discriminator must end in 2 logits")
        ca, cb = self.classifier_a, self.classifier_b
        if [l.weight.shape for l in ca.layers] != [l.weight.shape for l in cb.layers]:
            raise ContractError("classifier_a and classifier_b must share architecture")

    def components(self) -> Dict[str, Stack]:
        return {k: getattr(self, k) for k in COMPONENT_KEYS}

    @property
    def slices(self) -> int:
        """How many modules the set runs: 1, or M for a stacked set."""
        weight = self.transform.layers[0].weight
        return 1 if weight.ndim == 2 else weight.shape[0]

    def features(self, x) -> np.ndarray:
        """Transform-layer outputs for input rows x, without a tape, one
        row slice per module; the input is checked like a tape leaf."""
        return self.transform.apply(self.extractor.apply(ad.checked_input(x)),
                                    self.slices)

    def named_arrays(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for key, stack in self.components().items():
            for name, arr in stack.named_arrays():
                yield f"{prefix}{key}.{name}", arr


# the order of the components within one set's range of a parameter store:
# every component group that an update trains is then one contiguous range
STORE_ORDER = ("extractor", "transform", "classifier_a", "classifier_b",
               "discriminator")


def stack_component_sets(sets: Sequence[ComponentSet]
                         ) -> Tuple[np.ndarray, ComponentSet]:
    """One float64 buffer holding every parameter of the M sets, set-major
    and within a set in STORE_ORDER (each layer's weight, then its bias),
    and one ComponentSet whose arrays stack the sets' arrays [M, ...] as
    views of that buffer. The sets must be structurally identical. Each
    set's layers become views of their slice, so training any of them
    trains the buffer in place."""
    size = sum(a.size for _, a in sets[0].named_arrays())
    buffer = np.empty(len(sets) * size)
    rows = buffer.reshape(len(sets), size)
    offset = 0
    stacked = {}
    for key in STORE_ORDER:
        layers = []
        for per_set in zip(*(getattr(c, key).layers for c in sets)):
            views = []
            for attr in ("weight", "bias"):
                shape = getattr(per_set[0], attr).shape
                n = math.prod(shape)
                # splits a unit-stride axis, so a view: no copy
                view = rows[:, offset:offset + n].reshape((len(sets),) + shape)
                offset += n
                for m, layer in enumerate(per_set):
                    view[m] = getattr(layer, attr)
                    setattr(layer, attr, view[m])
                views.append(view)
            layers.append(LinearLayer(*views))
        stacked[key] = Stack(layers)
    return buffer, ComponentSet(**stacked)


def build_component_set(input_dim: int, feature_dim: int, num_classes: int,
                        seed, g_hidden: Sequence[int] = (64,),
                        head_hidden: Sequence[int] = (16,)) -> ComponentSet:
    """Build one module's components with per-component seeds derived from
    one base seed (so the classifier pair starts at different parameters)."""
    if input_dim < 1 or feature_dim < 1 or num_classes < 1:
        raise ContractError("input_dim, feature_dim and num_classes must be >= 1")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(5)
    g_spec = NetworkSpec([input_dim, *g_hidden, feature_dim])
    t_spec = NetworkSpec([feature_dim, feature_dim])
    d_spec = NetworkSpec([feature_dim, *head_hidden, 2])
    c_spec = NetworkSpec([feature_dim, *head_hidden, num_classes])
    return ComponentSet(
        extractor=init_stack(g_spec, children[0]),
        transform=init_stack(t_spec, children[1]),
        discriminator=init_stack(d_spec, children[2]),
        classifier_a=init_stack(c_spec, children[3]),
        classifier_b=init_stack(c_spec, children[4]),
    )


class BoundComponents:
    """All five components of one ComponentSet bound to a single tape. A
    stacked set binds its M modules as one graph, the rows of module m
    at [m*B:(m+1)*B] of every activation; prefix then gives each module's
    name prefix, in slice order."""

    def __init__(self, tape: ad.Tape, comps: ComponentSet,
                 prefix: str | Sequence[str] = ""):
        self.prefixes = (prefix,) if isinstance(prefix, str) else tuple(prefix)
        for key in COMPONENT_KEYS:
            setattr(self, key, BoundStack(tape, getattr(comps, key)))

    def features(self, x: ad.Tensor) -> ad.Tensor:
        """The transform layer's output: what every head and loss reads. A
        one-slice x (a data batch) feeds every module."""
        return self.transform.forward(self.extractor.forward(x))

    def named_pairs(self, components=COMPONENT_KEYS):
        """(full name of each slice, param array, leaf tensor) for the
        chosen components."""
        for key in components:
            for name, arr, tensor in getattr(self, key).named_pairs():
                yield (tuple(f"{p}{key}.{name}" for p in self.prefixes), arr,
                       tensor)


# ---------------------------------------------------------------------------
# parameter file format
#
# u32 LE   entry count
# per entry:
#   u32 LE   name byte length, then that many UTF-8 bytes
#   u32 LE   ndim, then ndim x u32 LE dims
# payload: all entries' float64 LE values, row-major, in header order
# ---------------------------------------------------------------------------

def save_params(path, named: Dict[str, np.ndarray]) -> None:
    """Write the file next to its destination, then rename it into place,
    so a failed write leaves any previous file at path untouched."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<I", len(named)))
            for name, arr in named.items():
                raw = name.encode("utf-8")
                f.write(struct.pack("<I", len(raw)))
                f.write(raw)
                f.write(struct.pack("<I", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            for arr in named.values():
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)  # still there only when the write failed


def load_params(path) -> Dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()

    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(
                f"parameter file truncated: needed {offset + n} bytes, "
                f"have {len(blob)}")
        chunk = blob[offset:offset + n]
        offset += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    shapes: List[Tuple[str, Tuple[int, ...]]] = []
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"parameter name is not UTF-8: {e}") from None
        (ndim,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        shapes.append((name, dims))
    named: Dict[str, np.ndarray] = {}
    for name, dims in shapes:
        if name in named:
            raise FormatError(f"parameter file names {name!r} twice")
        n = math.prod(dims)  # a Python int: a huge product cannot wrap
        arr = np.frombuffer(take(8 * n), dtype="<f8").astype(np.float64)
        named[name] = arr.reshape(dims)
    if offset != len(blob):
        raise FormatError(
            f"parameter file has {len(blob) - offset} trailing bytes")
    return named
