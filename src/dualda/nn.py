"""Dense layers, Glorot init, the four component kinds, and parameter I/O.

Parameters live as plain float64 numpy arrays that persist across training
steps; each forward pass binds them onto a fresh tape as leaf tensors so
the optimizer can look gradients up by parameter name afterwards.
"""

from __future__ import annotations

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
    """weight [out_dim, in_dim] and bias [out_dim], both trainable."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        weight = np.asarray(weight, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
            raise DimensionError(
                f"LinearLayer: weight {list(weight.shape)} and bias "
                f"{list(bias.shape)} do not conform")
        self.weight = weight
        self.bias = bias

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


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
    """A Stack whose parameters are bound onto one tape as leaf tensors."""

    def __init__(self, tape: ad.Tape, stack: Stack):
        self.stack = stack
        self.weights = [tape.leaf(l.weight) for l in stack.layers]
        self.biases = [tape.leaf(l.bias) for l in stack.layers]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.add(ad.matmul(h, w, transpose_b=True), b)
            if i < last:
                h = ad.relu(h)
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
    feature_dim: int
    num_classes: int

    def __post_init__(self):
        t = self.transform
        if len(t.layers) != 1 or t.in_dim != t.out_dim:
            raise ContractError(
                f"transform layer must be a single square linear map, got "
                f"dims {t.in_dim}->{t.out_dim} over {len(t.layers)} layer(s)")
        if t.in_dim != self.feature_dim:
            raise ContractError("transform size must equal feature_dim")
        if self.discriminator.out_dim != 2:
            raise ContractError("discriminator must end in 2 logits")
        ca, cb = self.classifier_a, self.classifier_b
        if [l.weight.shape for l in ca.layers] != [l.weight.shape for l in cb.layers]:
            raise ContractError("classifier_a and classifier_b must share architecture")
        if ca.out_dim != self.num_classes:
            raise ContractError("classifiers must end in num_classes logits")

    def components(self) -> Dict[str, Stack]:
        return {k: getattr(self, k) for k in COMPONENT_KEYS}

    def named_arrays(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for key, stack in self.components().items():
            for name, arr in stack.named_arrays():
                yield f"{prefix}{key}.{name}", arr


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
        feature_dim=feature_dim,
        num_classes=num_classes,
    )


class BoundComponents:
    """All five components of one ComponentSet bound to a single tape."""

    def __init__(self, tape: ad.Tape, comps: ComponentSet, prefix: str = ""):
        self.comps = comps
        self.prefix = prefix
        self.extractor = BoundStack(tape, comps.extractor)
        self.transform = BoundStack(tape, comps.transform)
        self.discriminator = BoundStack(tape, comps.discriminator)
        self.classifier_a = BoundStack(tape, comps.classifier_a)
        self.classifier_b = BoundStack(tape, comps.classifier_b)

    def features(self, x: ad.Tensor) -> ad.Tensor:
        """The transform layer's output: what every head and loss reads."""
        return self.transform.forward(self.extractor.forward(x))

    def bound(self, key: str) -> BoundStack:
        return getattr(self, key)

    def named_pairs(self, components=COMPONENT_KEYS):
        """(full name, param array, leaf tensor) for the chosen components."""
        for key in components:
            for name, arr, tensor in self.bound(key).named_pairs():
                yield f"{self.prefix}{key}.{name}", arr, tensor


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
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(named)))
        for name, arr in named.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        for arr in named.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
        shapes.append((name, dims))
    named: Dict[str, np.ndarray] = {}
    for name, dims in shapes:
        n = int(np.prod(dims)) if dims else 1
        arr = np.frombuffer(take(8 * n), dtype="<f8").astype(np.float64)
        named[name] = arr.reshape(dims)
    if offset != len(blob):
        raise FormatError(
            f"parameter file has {len(blob) - offset} trailing bytes")
    return named
