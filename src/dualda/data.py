"""Synthetic domain-shift datasets, IDX ingestion, and deterministic batching.

Target labels ride along for evaluation but the batch stream never yields
them: training code physically cannot read them.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .errors import ConsistencyError, ContractError, FormatError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class DomainDataset:
    features: np.ndarray               # [n, input_dim] float64
    labels: Optional[np.ndarray]       # [n] int64 class indices, or None
    domain_tag: str                    # "source" | "target"
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ContractError(
                f"features must be a nonempty [n, d] matrix, got shape "
                f"{self.features.shape}")
        if self.domain_tag not in ("source", "target"):
            raise ContractError(f"bad domain_tag {self.domain_tag!r}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ContractError("labels must have one entry per sample")
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise ContractError(
                    f"labels must lie in [0, {self.num_classes})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


def gen_two_moons(n: int, noise_sigma: float, seed) -> DomainDataset:
    """Two interleaving half circles; labels alternate 0,1,0,1,... so any
    prefix is balanced. Deterministic in seed."""
    if n < 2:
        raise ContractError(f"need n >= 2, got {n}")
    if noise_sigma < 0:
        raise ContractError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    counts = [int((labels == c).sum()) for c in (0, 1)]
    feats = np.empty((n, 2))
    for i in range(n):
        c = i % 2
        j = i // 2
        t = np.pi * j / max(counts[c] - 1, 1)
        if c == 0:
            feats[i] = (np.cos(t), np.sin(t))
        else:
            feats[i] = (1.0 - np.cos(t), 0.5 - np.sin(t))
    if noise_sigma > 0:
        feats += rng.normal(0.0, noise_sigma, size=(n, 2))
    return DomainDataset(feats, labels, "source", 2)


def domain_shift(ds: DomainDataset, theta_degrees: float,
                 translate=(0.0, 0.0)) -> DomainDataset:
    """Rotate 2-D features about their centroid, then translate; the result
    is tagged as the target domain. Labels and class count are untouched."""
    if ds.input_dim != 2:
        raise ContractError(
            f"domain_shift needs 2-D features, got dim {ds.input_dim}")
    theta = np.deg2rad(theta_degrees)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    center = ds.features.mean(axis=0)
    shifted = (ds.features - center) @ rot.T + center + np.asarray(translate, dtype=np.float64)
    labels = None if ds.labels is None else ds.labels.copy()
    return DomainDataset(shifted, labels, "target", ds.num_classes)


def gen_blob_shift(n: int, num_classes: int, separation: float, shift_vector,
                   seed) -> Tuple[DomainDataset, DomainDataset]:
    """K unit-variance Gaussian clusters whose means sit on a ring with
    adjacent means `separation` apart; the target is the same draw
    translated by shift_vector."""
    if num_classes < 2:
        raise ContractError(f"need num_classes >= 2, got {num_classes}")
    if n < num_classes:
        raise ContractError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    radius = separation / (2.0 * np.sin(np.pi / num_classes))
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = np.arange(n) % num_classes
    feats = means[labels] + rng.standard_normal((n, 2))
    shift = np.asarray(shift_vector, dtype=np.float64)
    source = DomainDataset(feats, labels, "source", num_classes)
    target = DomainDataset(feats + shift, labels.copy(), "target", num_classes)
    return source, target


def _read_exact(f, n: int, what: str) -> bytes:
    """n bytes of f; the size is checked against the file before reading,
    so a header that declares more than the file holds allocates nothing."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FormatError(
            f"truncated IDX file while reading {what}: wanted {n} bytes, "
            f"got {left}")
    return f.read(n)


def _read_payload(f, n: int, what: str) -> bytes:
    """The next n bytes of f, which must end it: trailing bytes are an error."""
    payload = _read_exact(f, n, what)
    extra = os.fstat(f.fileno()).st_size - f.tell()
    if extra:
        raise FormatError(f"IDX file has {extra} trailing bytes after its {what}")
    return payload


def load_idx(images_path, labels_path=None, domain_tag: str = "source",
             num_classes: Optional[int] = None) -> DomainDataset:
    """Parse the IDX byte layout (all integers big-endian):

    images: u32 magic 0x00000803 | u32 count | u32 rows | u32 cols | u8 pixels
    labels: u32 magic 0x00000801 | u32 count | u8 labels

    Pixels are scaled to [0, 1] by /255 and flattened row-major.
    """
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "image magic"))
        if magic != IDX_IMAGE_MAGIC:
            raise FormatError(
                f"bad IDX image magic: expected 0x{IDX_IMAGE_MAGIC:08x}, "
                f"found 0x{magic:08x}")
        count, rows, cols = struct.unpack(">III", _read_exact(f, 12, "image dims"))
        if 0 in (count, rows, cols):
            raise FormatError(
                f"IDX image file declares {count} images of {rows}x{cols} "
                f"pixels; every dimension must be positive")
        payload = _read_payload(f, count * rows * cols, "image payload")
    pixels = np.frombuffer(payload, dtype=np.uint8)
    features = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0

    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as f:
            (magic,) = struct.unpack(">I", _read_exact(f, 4, "label magic"))
            if magic != IDX_LABEL_MAGIC:
                raise FormatError(
                    f"bad IDX label magic: expected 0x{IDX_LABEL_MAGIC:08x}, "
                    f"found 0x{magic:08x}")
            (label_count,) = struct.unpack(">I", _read_exact(f, 4, "label count"))
            raw = _read_payload(f, label_count, "label payload")
        if label_count != count:
            raise ConsistencyError(
                f"image/label count mismatch: {count} images vs "
                f"{label_count} labels")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
        if num_classes is None:
            num_classes = int(labels.max()) + 1
    elif num_classes is None:
        raise ContractError("num_classes is required when labels are absent")
    return DomainDataset(features, labels, domain_tag, num_classes)


def write_idx_images(path, images: np.ndarray) -> None:
    """Inverse of the image half of load_idx; images are [n, rows, cols] u8."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 3:
        raise ContractError("write_idx_images expects [n, rows, cols]")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *images.shape))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def batches(ds_s: DomainDataset, ds_t: DomainDataset, batch_size: int,
            epoch_seed: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Paired (source features, source labels, target features) batches.

    Each domain is shuffled by its own epoch_seed-derived permutation; the
    stream truncates to the shorter domain and drops partial batches.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size > min(ds_s.n, ds_t.n):
        raise ContractError(
            f"batch_size {batch_size} exceeds the smaller domain "
            f"({min(ds_s.n, ds_t.n)} samples)")
    if ds_s.labels is None:
        raise ContractError("source dataset must be labeled")
    perm_s = np.random.default_rng([int(epoch_seed), 0]).permutation(ds_s.n)
    perm_t = np.random.default_rng([int(epoch_seed), 1]).permutation(ds_t.n)
    for i in range(num_batch_pairs(ds_s, ds_t, batch_size)):
        sl = slice(i * batch_size, (i + 1) * batch_size)
        idx_s, idx_t = perm_s[sl], perm_t[sl]
        yield ds_s.features[idx_s], ds_s.labels[idx_s], ds_t.features[idx_t]


def num_batch_pairs(ds_s: DomainDataset, ds_t: DomainDataset,
                    batch_size: int) -> int:
    return min(ds_s.n, ds_t.n) // batch_size


def derived_seed(seed: int, stream: int) -> int:
    """A 32-bit seed for numbered stream `stream` (an epoch, a domain) of seed."""
    return int(np.random.SeedSequence([int(seed), int(stream)]).generate_state(1)[0])


def dataset_checksum(ds: DomainDataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.features).tobytes())
    if ds.labels is not None:
        h.update(np.ascontiguousarray(ds.labels).tobytes())
    h.update(ds.domain_tag.encode())
    h.update(str(ds.num_classes).encode())
    return h.hexdigest()
