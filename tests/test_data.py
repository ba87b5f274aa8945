import hashlib
import struct
import tempfile
import tracemalloc
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


def test_fractional_labels_are_refused():
    with pytest.raises(ContractError, match="labels must be whole numbers, "
                                            "got 1.7"):
        DomainDataset(np.zeros((3, 2)), np.array([0.0, 1.0, 1.7]), "source", 2)
    with pytest.raises(ContractError, match="whole numbers"):
        DomainDataset(np.zeros((2, 2)), np.array([0.0, np.nan]), "source", 2)
    whole = DomainDataset(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0]),
                          "source", 2)
    assert whole.labels.dtype == np.int64
    assert whole.labels.tolist() == [0, 1, 1]


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


def test_load_idx_scales_every_byte_value_like_a_division(tmp_path):
    """The in-place scaling gives the bits of pixels / 255.0 for all 256
    byte values."""
    pixels = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    write_idx_images(tmp_path / "img.idx", pixels)
    ds = load_idx(tmp_path / "img.idx", num_classes=2)
    assert (ds.features.tobytes() ==
            (pixels.astype(np.float64) / 255.0).reshape(1, 256).tobytes())


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_idx_holds_one_float64_copy_of_the_pixels(tmp_path):
    """Loading holds the raw bytes and one float64 copy of them: scaling
    makes no second full-size array (which would put the peak near twice
    the features)."""
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(256, 28, 28), dtype=np.uint8)
    write_idx_images(tmp_path / "img.idx", images)
    ds, peak = _traced_peak(load_idx, tmp_path / "img.idx", None, "source",
                            10)
    assert peak <= 1.25 * ds.features.nbytes + images.nbytes


def test_load_idx_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 3, 5), dtype=np.uint8)
    img = tmp_path / "img.idx"
    write_idx_images(img, images)
    ds = load_idx(img, num_classes=10)
    back = np.round(ds.features * 255.0).astype(np.uint8).reshape(7, 3, 5)
    assert np.array_equal(back, images)


@pytest.mark.parametrize("labels", [np.array([[1, 0], [2, 1]]), np.array(3)])
def test_write_idx_labels_refuses_labels_that_are_not_one_vector(tmp_path,
                                                                 labels):
    """A [2, 2] array would write a header of 2 labels over 4 bytes, which
    load_idx then rejects; a 0-d array has no length to write."""
    lab = tmp_path / "lab.idx"
    with pytest.raises(ContractError, match="1-D label vector"):
        write_idx_labels(lab, labels)
    assert not lab.exists()


@pytest.mark.parametrize("bad", [300, -1, 255.5, np.nan])
def test_write_idx_refuses_values_outside_a_byte(tmp_path, bad):
    """numpy would wrap 300 around to 44 and -1 to 255."""
    images = np.zeros((2, 2, 2))
    images[1, 0, 1] = bad
    labels = np.array([1.0, bad])
    with pytest.raises(ContractError, match=r"write_idx_images: .*\[0, 255\]"):
        write_idx_images(tmp_path / "img.idx", images)
    with pytest.raises(ContractError, match=r"write_idx_labels: .*\[0, 255\]"):
        write_idx_labels(tmp_path / "lab.idx", labels)
    assert list(tmp_path.iterdir()) == []


def test_write_idx_refuses_fractional_values(tmp_path):
    """numpy would truncate 1.7 to 1 and 0.2 to 0 without a word."""
    with pytest.raises(ContractError, match="write_idx_labels: values must "
                                            "be whole numbers, got 1.7"):
        write_idx_labels(tmp_path / "lab.idx", np.array([1.7, 0.2]))
    with pytest.raises(ContractError, match="write_idx_images: values must "
                                            "be whole numbers, got 0.5"):
        write_idx_images(tmp_path / "img.idx", np.full((1, 2, 2), 0.5))
    assert list(tmp_path.iterdir()) == []
    write_idx_labels(tmp_path / "lab.idx", np.array([1.0, 0.0]))
    assert (tmp_path / "lab.idx").read_bytes()[8:] == bytes([1, 0])


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


@pytest.mark.parametrize("size", [True, 7.5, 0])
def test_batches_refuses_a_batch_size_that_is_no_integer_from_1(size):
    """A bool would yield one-row batches and a float die in numpy: both,
    like 0, are a ContractError that names the field."""
    source, target = _pair()
    with pytest.raises(ContractError, match="batch_size must be an integer"):
        next(batches(source, target, size, epoch_seed=0))


def test_batches_takes_a_numpy_integer_batch_size():
    source, target = _pair()
    want = list(batches(source, target, 4, epoch_seed=2))
    got = list(batches(source, target, np.int64(4), epoch_seed=2))
    assert len(got) == len(want)
    assert all(a.tobytes() == b.tobytes()
               for pair_a, pair_b in zip(got, want)
               for a, b in zip(pair_a, pair_b))


def test_dataset_checksum_sensitivity():
    source, target = _pair()
    assert dataset_checksum(source) != dataset_checksum(target)
    clone = DomainDataset(source.features.copy(), source.labels.copy(),
                          source.domain_tag, source.num_classes)
    assert dataset_checksum(clone) == dataset_checksum(source)


def test_dataset_checksum_hashes_the_bytes_of_each_array():
    """The digest is the one of each array's tobytes() copy, with no copy
    made: the traced peak of a [2560, 784] dataset stays under 1 MB."""
    rng = np.random.default_rng(0)
    ds = DomainDataset(rng.uniform(size=(2560, 784)),
                       rng.integers(0, 10, size=2560), "target", 10)
    h = hashlib.sha256()
    for part in (ds.features.tobytes(), ds.labels.tobytes(),
                 ds.domain_tag.encode(), str(ds.num_classes).encode()):
        h.update(part)
    digest, peak = _traced_peak(dataset_checksum, ds)
    assert digest == h.hexdigest()
    assert peak < 2**20
