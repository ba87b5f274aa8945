import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualda.data import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, DomainDataset,
                         batches, dataset_checksum, domain_shift,
                         gen_blob_shift, gen_two_moons, load_idx,
                         num_batch_pairs, write_idx_images, write_idx_labels)
from dualda.errors import (ConsistencyError, ContractError, FormatError)


def test_two_moons_noiseless_class0_on_unit_circle():
    ds = gen_two_moons(40, 0.0, seed=0)
    class0 = ds.features[ds.labels == 0]
    radii = np.linalg.norm(class0, axis=1)
    assert np.allclose(radii, 1.0, atol=1e-12)
    assert np.all(class0[:, 1] >= -1e-12)  # upper half


def test_two_moons_deterministic_and_balanced():
    a = gen_two_moons(51, 0.2, seed=9)
    b = gen_two_moons(51, 0.2, seed=9)
    assert a.features.tobytes() == b.features.tobytes()
    assert abs(int((a.labels == 0).sum()) - int((a.labels == 1).sum())) <= 1


def test_two_moons_seed_changes_noise():
    a = gen_two_moons(30, 0.2, seed=1)
    b = gen_two_moons(30, 0.2, seed=2)
    assert not np.array_equal(a.features, b.features)


def test_domain_shift_identity():
    ds = gen_two_moons(20, 0.1, seed=0)
    out = domain_shift(ds, 0.0, (0.0, 0.0))
    assert np.allclose(out.features, ds.features, atol=1e-12)
    assert out.domain_tag == "target"
    assert np.array_equal(out.labels, ds.labels)


def test_domain_shift_full_rotation():
    ds = gen_two_moons(20, 0.1, seed=3)
    out = domain_shift(ds, 360.0, (0.0, 0.0))
    assert np.allclose(out.features, ds.features, atol=1e-9)


def test_domain_shift_preserves_pairwise_distances():
    ds = gen_two_moons(30, 0.1, seed=4)
    out = domain_shift(ds, 137.0, (2.0, -1.0))

    def pairwise(x):
        return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)

    assert np.allclose(pairwise(ds.features), pairwise(out.features), atol=1e-9)


def test_domain_shift_needs_2d():
    ds = DomainDataset(np.ones((4, 3)), None, "source", 2)
    with pytest.raises(ContractError):
        domain_shift(ds, 10.0)


def test_blob_shift_zero_shift_identical():
    source, target = gen_blob_shift(30, 3, 4.0, (0.0, 0.0), seed=0)
    assert np.array_equal(source.features, target.features)
    assert target.domain_tag == "target"


def test_blob_shift_ring_spacing():
    source, _ = gen_blob_shift(300, 5, 3.0, (0.0, 0.0), seed=1)
    # recover means per class and check adjacent spacing
    means = np.stack([source.features[source.labels == k].mean(axis=0)
                      for k in range(5)])
    spacing = [np.linalg.norm(means[k] - means[(k + 1) % 5]) for k in range(5)]
    assert np.allclose(spacing, 3.0, atol=0.5)  # sample means of unit blobs


def test_blob_shift_deterministic():
    a = gen_blob_shift(20, 2, 4.0, (1.0, 0.0), seed=5)
    b = gen_blob_shift(20, 2, 4.0, (1.0, 0.0), seed=5)
    assert a[0].features.tobytes() == b[0].features.tobytes()
    assert a[1].features.tobytes() == b[1].features.tobytes()


# --- idx format ---------------------------------------------------------------

PIXELS = np.array([[[0, 255], [128, 64]],
                   [[10, 20], [30, 40]]], dtype=np.uint8)


def test_load_idx_hand_built_values(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(img, PIXELS)
    write_idx_labels(lab, np.array([3, 1], dtype=np.uint8))
    ds = load_idx(img, lab)
    # 128/255 and 64/255 forced by the scaling rule
    assert np.allclose(ds.features[0],
                       [0.0, 1.0, 0.5019607843137255, 0.25098039215686274],
                       atol=0.0)
    assert np.array_equal(ds.labels, [3, 1])
    assert ds.num_classes == 4
    assert np.all((ds.features >= 0.0) & (ds.features <= 1.0))


def test_load_idx_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 3, 5), dtype=np.uint8)
    img = tmp_path / "img.idx"
    write_idx_images(img, images)
    ds = load_idx(img, num_classes=10)
    back = np.round(ds.features * 255.0).astype(np.uint8).reshape(7, 3, 5)
    assert np.array_equal(back, images)


def test_load_idx_bad_magic(tmp_path):
    img = tmp_path / "img.idx"
    blob = struct.pack(">IIII", 0x00000802, 1, 2, 2) + bytes(4)
    img.write_bytes(blob)
    with pytest.raises(FormatError, match="0x00000803.*0x00000802"):
        load_idx(img, num_classes=2)


def test_load_idx_truncated_payload(tmp_path):
    img = tmp_path / "img.idx"
    blob = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(5)  # needs 8
    img.write_bytes(blob)
    with pytest.raises(FormatError, match="wanted 8 bytes, got 5"):
        load_idx(img, num_classes=2)


def test_load_idx_label_magic_and_count_mismatch(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(img, PIXELS)
    lab.write_bytes(struct.pack(">II", 0x00000803, 2) + bytes(2))
    with pytest.raises(FormatError, match="label magic"):
        load_idx(img, lab)
    write_idx_labels(lab, np.array([1, 0, 1], dtype=np.uint8))
    with pytest.raises(ConsistencyError, match="2 images vs 3 labels"):
        load_idx(img, lab)


def test_load_idx_rejects_bytes_after_the_image_payload(tmp_path):
    img = tmp_path / "img.idx"
    write_idx_images(img, PIXELS)
    img.write_bytes(img.read_bytes() + bytes(21))
    with pytest.raises(FormatError,
                       match="21 trailing bytes after its image payload"):
        load_idx(img, num_classes=4)


def test_load_idx_rejects_bytes_after_the_label_payload(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(img, PIXELS)
    write_idx_labels(lab, np.array([3, 1], dtype=np.uint8))
    lab.write_bytes(lab.read_bytes() + b"\x01")
    with pytest.raises(FormatError,
                       match="1 trailing bytes after its label payload"):
        load_idx(img, lab)


def test_load_idx_unlabeled_needs_num_classes(tmp_path):
    img = tmp_path / "img.idx"
    write_idx_images(img, PIXELS)
    with pytest.raises(ContractError):
        load_idx(img)


@pytest.mark.parametrize("dims", [(2**31, 2**31, 2), (2**32 - 1, 2**16, 2**16),
                                  (1000, 1000, 1000)])
def test_load_idx_header_declaring_more_than_the_file_is_format_error(tmp_path,
                                                                      dims):
    img = tmp_path / "img.idx"
    img.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, *dims))
    with pytest.raises(FormatError, match=r"image payload: wanted \d+ bytes, got 0"):
        load_idx(img, num_classes=2)


def test_load_idx_zero_images_is_format_error(tmp_path):
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 0, 2, 2))
    lab.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 0))
    with pytest.raises(FormatError, match="0 images"):
        load_idx(img, lab)


_U32 = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))


def _idx_bytes(magic: int, n_dims: int):
    """Mostly well-formed IDX headers (the magic, u32 dims) over arbitrary
    payloads, beside plain random bytes."""
    header = st.builds(lambda m, dims: struct.pack(f">I{len(dims)}I", m, *dims),
                       st.sampled_from([magic, magic ^ 0x0a]),
                       st.lists(_U32, max_size=n_dims))
    framed = st.builds(bytes.__add__, header, st.binary(max_size=40))
    return st.one_of(framed, st.binary(max_size=40))


@settings(max_examples=300, deadline=None)
@given(images=_idx_bytes(IDX_IMAGE_MAGIC, 3),
       labels=st.one_of(st.none(), _idx_bytes(IDX_LABEL_MAGIC, 1)))
def test_load_idx_any_bytes_give_a_dataset_or_a_format_error(images, labels):
    with tempfile.TemporaryDirectory() as tmp:
        img, lab = Path(tmp) / "img.idx", Path(tmp) / "lab.idx"
        img.write_bytes(images)
        if labels is not None:
            lab.write_bytes(labels)
        try:
            ds = load_idx(img, lab if labels is not None else None,
                          num_classes=None if labels is not None else 256)
        except (FormatError, ConsistencyError):
            return
        assert ds.n >= 1 and ds.input_dim >= 1


# --- batching ------------------------------------------------------------------

def _pair():
    source = gen_two_moons(256, 0.1, seed=0)
    target = domain_shift(gen_two_moons(256, 0.1, seed=1), 30.0)
    return source, target


def test_batches_count_and_shapes():
    source, target = _pair()
    pairs = list(batches(source, target, 128, epoch_seed=0))
    assert len(pairs) == 2
    assert num_batch_pairs(source, target, 128) == 2
    for xs, ys, xt in pairs:
        assert xs.shape == (128, 2) and ys.shape == (128,) and xt.shape == (128, 2)


def test_batches_deterministic_per_seed():
    source, target = _pair()
    a = list(batches(source, target, 64, epoch_seed=5))
    b = list(batches(source, target, 64, epoch_seed=5))
    c = list(batches(source, target, 64, epoch_seed=6))
    for (xa, ya, ta), (xb, yb, tb) in zip(a, b):
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb) \
            and np.array_equal(ta, tb)
    assert any(not np.array_equal(xa, xc) for (xa, _, _), (xc, _, _) in zip(a, c))


def test_batches_source_indices_unique_over_epoch():
    source, target = _pair()
    seen = []
    for xs, _, _ in batches(source, target, 64, epoch_seed=3):
        seen.append(xs)
    stacked = np.vstack(seen)
    # every yielded source row appears at most once in the dataset ordering
    assert len(np.unique(stacked, axis=0)) == len(stacked)


def test_batches_rejects_oversized_batch():
    source, target = _pair()
    with pytest.raises(ContractError):
        list(batches(source, target, 500, epoch_seed=0))


def test_dataset_checksum_sensitivity():
    source, target = _pair()
    assert dataset_checksum(source) != dataset_checksum(target)
    clone = DomainDataset(source.features.copy(), source.labels.copy(),
                          source.domain_tag, source.num_classes)
    assert dataset_checksum(clone) == dataset_checksum(source)
