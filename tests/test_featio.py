import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convrefine import featio
from convrefine.evalkit import read_truth_file, write_truth_file
from convrefine.featio import (
    ManifestError,
    TensorFormatError,
    load_manifest,
    read_labels_file,
    read_tensor_file,
    write_labels_file,
    write_tensor_file,
)
from convrefine.netir import parse_network

from conftest import class_means


def test_tensor_header_layout_is_pinned(tmp_path):
    # magic, u16 version, u16 rank, rank*u32 dims, float32 payload, all LE
    path = tmp_path / "t.atns"
    payload = np.arange(6, dtype="<f4")
    path.write_bytes(b"ATNS" + struct.pack("<HH2I", 1, 2, 2, 3) + payload.tobytes())
    t = read_tensor_file(path)
    assert t.shape == (2, 3)
    assert t.dtype == np.float64
    np.testing.assert_array_equal(t, payload.reshape(2, 3))


def test_tensor_rank4(tmp_path):
    path = tmp_path / "t.atns"
    payload = np.arange(8, dtype="<f4")
    path.write_bytes(b"ATNS" + struct.pack("<HH4I", 1, 4, 1, 2, 2, 2) + payload.tobytes())
    t = read_tensor_file(path)
    assert t.shape == (1, 2, 2, 2)


def test_tensor_errors(tmp_path):
    path = tmp_path / "t.atns"
    path.write_bytes(b"NOPE" + struct.pack("<HH2I", 1, 2, 2, 3) + b"\0" * 24)
    with pytest.raises(TensorFormatError, match="bad magic"):
        read_tensor_file(path)

    path.write_bytes(b"ATNS" + struct.pack("<HH2I", 1, 2, 2, 3) + b"\0" * 20)
    with pytest.raises(TensorFormatError, match="truncated payload"):
        read_tensor_file(path)

    path.write_bytes(b"ATNS" + struct.pack("<HH2I", 1, 2, 2, 3) + b"\0" * 28)
    with pytest.raises(TensorFormatError, match="trailing data"):
        read_tensor_file(path)

    path.write_bytes(b"ATNS" + struct.pack("<HH3I", 1, 3, 2, 3, 1) + b"\0" * 24)
    with pytest.raises(TensorFormatError, match="rank must be 2 or 4"):
        read_tensor_file(path)

    path.write_bytes(b"ATNS" + struct.pack("<HH2I", 9, 2, 2, 3) + b"\0" * 24)
    with pytest.raises(TensorFormatError, match="version"):
        read_tensor_file(path)

    bad = np.array([[1.0, np.inf, 2.0]], dtype="<f4")
    path.write_bytes(b"ATNS" + struct.pack("<HH2I", 1, 2, 1, 3) + bad.tobytes())
    with pytest.raises(TensorFormatError, match="non-finite value at flat index 1"):
        read_tensor_file(path)


def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(2, 3), (4, 1), (1, 2, 2, 2), (3, 5, 2, 4)]:
        t = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / "rt.atns"
        write_tensor_file(path, t)
        np.testing.assert_array_equal(read_tensor_file(path), t.astype(np.float64))


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "l.atlb"
    write_labels_file(path, np.array([0, 2, 1, 2]))
    np.testing.assert_array_equal(read_labels_file(path), [0, 2, 1, 2])
    with pytest.raises(TensorFormatError, match="bad magic"):
        path.write_bytes(b"XXXX" + struct.pack("<HI", 1, 0))
        read_labels_file(path)


def test_labels_writer_refuses_labels_past_u32(tmp_path):
    # a <u4 cast would wrap 2**32 + 5 to 5
    path = tmp_path / "l.atlb"
    with pytest.raises(ValueError, match=f"^{path}: label 4294967301 does not fit in a u32$"):
        write_labels_file(path, np.array([2**32 + 5, 3]))
    assert not path.exists()
    write_labels_file(path, np.array([2**32 - 1, 3]))
    assert read_labels_file(path).tolist() == [2**32 - 1, 3]


@pytest.mark.parametrize("shape", [(0, 4), (2, 0), (3, 2, 0, 1), (2**32, 1)],
                         ids=["no-images", "no-channels", "no-rows", "past-u32"])
def test_tensor_writer_refuses_dims_the_reader_refuses(tmp_path, shape):
    # a zero dim would be written and then refused by the reader; a dim past
    # u32 does not fit the header.  A broadcast view allocates nothing.
    path = tmp_path / "t.atns"
    message = f"{path}: tensor dims must lie in 1..4294967295, got {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_tensor_file(path, np.broadcast_to(np.float32(0), shape))
    assert not path.exists()


def _pooled(tensor):
    """Pool a dump through the streaming loader: one class per image."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_tensor_file(tmp / "t.atns", tensor)
        write_labels_file(tmp / "labels.atlb", np.arange(tensor.shape[0]))
        (tmp / "m.txt").write_text("layer t t.atns\nlabels labels.atlb\n")
        return load_manifest(tmp / "m.txt")["t"]


def test_pool_hand_example():
    t = np.array([[[[1.0, 2.0], [3.0, 5.0]]]])
    np.testing.assert_allclose(_pooled(t), [[2.75]])


def test_pool_identity_and_constant():
    t = np.arange(6, dtype=np.float64).reshape(2, 3, 1, 1)
    np.testing.assert_array_equal(_pooled(t), t[:, :, 0, 0])
    const = np.full((2, 3, 4, 5), 7.25)
    np.testing.assert_array_equal(_pooled(const), np.full((2, 3), 7.25))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=60)
def test_pool_preserves_means(n, c, h, w, seed):
    t = np.random.default_rng(seed).standard_normal((n, c, h, w)).astype(np.float32)
    pooled = _pooled(t)
    assert pooled.shape == (n, c)
    np.testing.assert_allclose(pooled.sum(), t.astype(np.float64).sum() / (h * w), rtol=1e-12)


def test_class_means_hand_example():
    means = class_means("l", np.array([[0.0, 2.0], [2.0, 0.0]]), np.array([0, 0]))
    np.testing.assert_array_equal(means, [[1.0, 1.0]])


def test_class_means_single_image_per_class():
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(class_means("l", feats, np.array([0, 1])), feats)


def test_class_means_missing_class():
    with pytest.raises(ValueError, match="class 1 has no images"):
        class_means("l", np.zeros((2, 3)), np.array([0, 0]), num_classes=2)


def test_class_means_permutation_invariant():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((12, 5))
    labels = rng.integers(0, 3, size=12)
    labels[:3] = [0, 1, 2]  # every class present
    perm = rng.permutation(12)
    np.testing.assert_allclose(
        class_means("l", feats, labels),
        class_means("l", feats[perm], labels[perm]),
        atol=1e-12,
    )


def _write_dumps(tmp_path, feats_by_name, labels):
    lines = []
    for name, feats in feats_by_name.items():
        write_tensor_file(tmp_path / f"{name}.atns", feats)
        lines.append(f"layer {name} {name}.atns")
    write_labels_file(tmp_path / "labels.atlb", labels)
    lines.append("labels labels.atlb")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_manifest_two_layers(tmp_path):
    rng = np.random.default_rng(5)
    manifest = _write_dumps(
        tmp_path,
        {"a": rng.standard_normal((4, 8)), "b": rng.standard_normal((4, 6, 2, 2))},
        np.array([0, 1, 0, 1]),
    )
    means = load_manifest(manifest)
    assert sorted(means) == ["a", "b"]
    assert means["a"].shape == (2, 8)
    assert means["b"].shape == (2, 6)  # pooled from rank 4


def test_manifest_count_mismatch(tmp_path):
    manifest = _write_dumps(
        tmp_path, {"a": np.zeros((4, 3))}, np.array([0, 1, 0, 1, 1])
    )
    with pytest.raises(ManifestError, match="4 images .* 5 labels"):
        load_manifest(manifest)


def test_manifest_cross_checks_against_ir(tmp_path):
    ir = parse_network(
        "block a in=3 out=8 k=3x3 group=1 stage=0\n"
        "block b in=8 out=6 k=3x3 group=1 stage=1 prev=a\n"
    )
    manifest = _write_dumps(
        tmp_path,
        {"a": np.zeros((2, 8)), "ghost": np.zeros((2, 6))},
        np.array([0, 1]),
    )
    with pytest.raises(ManifestError, match="no such block"):
        load_manifest(manifest, ir)

    manifest = _write_dumps(
        tmp_path, {"a": np.zeros((2, 8)), "b": np.zeros((2, 5))}, np.array([0, 1])
    )
    with pytest.raises(ManifestError, match="block declares 6"):
        load_manifest(manifest, ir)


def test_manifest_structural_errors(tmp_path):
    empty = tmp_path / "m.txt"
    empty.write_text("labels l.atlb\n")
    with pytest.raises(ManifestError, match="lists no layers"):
        load_manifest(empty)
    empty.write_text("# nothing\n")
    with pytest.raises(ManifestError, match="lists no layers"):
        load_manifest(empty)
    nolabels = tmp_path / "m2.txt"
    write_tensor_file(tmp_path / "a.atns", np.zeros((1, 2)))
    nolabels.write_text("layer a a.atns\n")
    with pytest.raises(ManifestError, match="no labels line"):
        load_manifest(nolabels)
    dup = tmp_path / "m3.txt"
    dup.write_text("layer a a.atns\nlayer a a.atns\nlabels l.atlb\n")
    with pytest.raises(ManifestError, match="duplicate layer"):
        load_manifest(dup)


def _reference_means(tensor, labels, num_classes):
    """Whole-array pooling, then rows.mean(axis=0) per class."""
    feats = tensor.astype(np.float64)
    if feats.ndim == 4:
        feats = feats.mean(axis=(2, 3))
    return np.stack([feats[labels == cls].mean(axis=0) for cls in range(num_classes)])


@pytest.mark.parametrize(
    "chunk_values, shape",
    [
        (None, (20_000, 7)),  # the module's chunk size, three chunks
        (None, (4_000, 5, 3, 3)),
        (100, (203, 7)),  # 14 images a chunk, the last one short
        (100, (203, 5, 3, 3)),  # 2 images a chunk
        (10, (41, 5, 3, 3)),  # an image larger than a chunk: one image a chunk
    ],
)
def test_streamed_means_equal_row_means(tmp_path, monkeypatch, chunk_values, shape):
    if chunk_values is not None:
        monkeypatch.setattr(featio, "CHUNK_VALUES", chunk_values)
    rng = np.random.default_rng(17)
    tensor = rng.standard_normal(shape).astype(np.float32)
    labels = rng.integers(0, 3, size=shape[0])  # classes interleave across chunks
    labels[:3] = [0, 1, 2]
    manifest = _write_dumps(tmp_path, {"a": tensor}, labels)
    got = load_manifest(manifest)["a"]
    np.testing.assert_array_equal(got, _reference_means(tensor, labels, 3))


@pytest.mark.parametrize("shape", [(30, 4), (30, 2, 3, 3)])
@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_streamed_non_finite_reports_global_index(tmp_path, monkeypatch, shape, bad_value):
    monkeypatch.setattr(featio, "CHUNK_VALUES", 40)
    tensor = np.ones(shape, dtype=np.float32)
    flat = tensor.reshape(-1)
    index = flat.size - 5  # in the last chunk
    flat[index] = bad_value
    path = tmp_path / "a.atns"
    path.write_bytes(
        b"ATNS" + struct.pack(f"<HH{len(shape)}I", 1, len(shape), *shape) + tensor.tobytes()
    )
    write_labels_file(tmp_path / "labels.atlb", np.arange(shape[0]) % 2)
    (tmp_path / "m.txt").write_text("layer a a.atns\nlabels labels.atlb\n")
    with pytest.raises(TensorFormatError, match=f"a.atns: non-finite value at flat index {index}$"):
        load_manifest(tmp_path / "m.txt")


def test_streamed_empty_class_names_layer(tmp_path):
    manifest = _write_dumps(
        tmp_path, {"a": np.ones((4, 3)), "b": np.ones((4, 3))}, np.array([0, 2, 0, 2])
    )
    with pytest.raises(ValueError, match="layer a: class 1 has no images"):
        load_manifest(manifest)
    # a label near 2^32 names the first empty class without a 2^32-row array
    manifest = _write_dumps(tmp_path, {"a": np.ones((2, 3))}, np.array([0, 2**32 - 1]))
    with pytest.raises(ValueError, match="layer a: class 1 has no images"):
        load_manifest(manifest)


def test_classes_counted_once_per_manifest(tmp_path, monkeypatch):
    labels = np.array([0, 1, 2, 0, 1, 2])
    feats = {name: np.arange(12.0).reshape(6, 2) + i for i, name in enumerate("abc")}
    calls = []
    count = featio._class_counts
    monkeypatch.setattr(featio, "_class_counts",
                        lambda name, *args: calls.append(name) or count(name, *args))
    means = load_manifest(_write_dumps(tmp_path, feats, labels))
    assert list(means) == ["a", "b", "c"]
    assert calls == ["a"]
    # the first layer's image count is checked before the classes are counted
    feats["a"] = np.ones((5, 2))
    with pytest.raises(ValueError, match="layer a: 5 images in .* but 6 labels"):
        load_manifest(_write_dumps(tmp_path, feats, np.array([0, 2, 0, 2, 0, 2])))


def test_header_sizes_do_not_wrap(tmp_path):
    # 65536**4 float32 values: a 64-bit element count wraps to 0, which an
    # empty payload would match.
    path = tmp_path / "huge.atns"
    path.write_bytes(b"ATNS" + struct.pack("<HH4I", 1, 4, *(1 << 16,) * 4))
    with pytest.raises(TensorFormatError, match="huge.atns: truncated payload"):
        read_tensor_file(path)
    write_labels_file(tmp_path / "labels.atlb", np.zeros(1 << 16))
    (tmp_path / "m.txt").write_text("layer a huge.atns\nlabels labels.atlb\n")
    with pytest.raises(TensorFormatError, match="huge.atns: truncated payload"):
        load_manifest(tmp_path / "m.txt")


def test_chunked_write_checks_every_chunk(tmp_path):
    path = tmp_path / "t.atns"
    good = np.ones((2, 3), dtype=np.float32)
    featio.write_tensor_chunks(path, (4, 3), [good, good * 2])
    np.testing.assert_array_equal(read_tensor_file(path), np.vstack([good, good * 2]))
    for chunks, message in [
        ([good, np.full((2, 3), np.nan)], "non-finite"),
        ([good, np.full((2, 3), 1e300)], "non-finite"),  # overflows float32
        ([good, np.ones((2, 4))], "does not fit"),
        ([good], "hold 2 images"),
    ]:
        with pytest.raises(ValueError, match=message) as info:
            featio.write_tensor_chunks(path, (4, 3), chunks)
        assert str(info.value).startswith(f"{path}: ")
        assert not path.exists()
    with pytest.raises(ValueError, match="rank must be 2 or 4") as info:
        write_tensor_file(path, np.ones(3))
    assert str(info.value).startswith(f"{path}: ")
    assert not path.exists()


def _valid_files(tmp):
    """One small valid file per binary format, with its reader."""
    tmp = Path(tmp)
    write_tensor_file(tmp / "t.atns", np.arange(6, dtype=np.float32).reshape(2, 3))
    write_labels_file(tmp / "l.atlb", np.array([0, 2, 1]))
    write_truth_file(tmp / "h.atmh", np.array([[1, 0], [0, 1]], dtype=np.uint8))
    return {
        "ATNS": (tmp / "t.atns", read_tensor_file),
        "ATLB": (tmp / "l.atlb", read_labels_file),
        "ATMH": (tmp / "h.atmh", read_truth_file),
    }


@pytest.mark.parametrize("fmt", ["ATNS", "ATLB", "ATMH"])
@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda b: b"XXXX" + b[4:], "bad magic, not an {fmt} "),
        (lambda b: b[:4] + struct.pack("<H", 2) + b[6:], "unsupported version 2"),
        (lambda b: b[:7], "truncated header"),
        (lambda b: b[:-1], "truncated payload"),
        (lambda b: b + b"\0", "trailing data after payload"),
    ],
    ids=["bad-magic", "version", "truncated-header", "truncated-payload", "trailing-data"],
)
def test_header_codec_errors_name_the_path(tmp_path, fmt, damage, message):
    path, reader = _valid_files(tmp_path)[fmt]
    reader(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(TensorFormatError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}: {message.format(fmt=fmt)}")


def _loads_or_names_path(reader, path):
    try:
        reader(path)
    except TensorFormatError as exc:
        assert str(exc).startswith(f"{path}: ")


@given(st.booleans(), st.binary(max_size=48))
@settings(max_examples=150)
def test_readers_accept_or_reject_arbitrary_bytes(behind_magic, data):
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, (path, reader) in _valid_files(tmp).items():
            # behind the right magic, the bytes get past the first check
            path.write_bytes(fmt.encode() + data if behind_magic else data)
            _loads_or_names_path(reader, path)


@given(st.integers(0, 2**16), st.integers(0, 255))
@settings(max_examples=150)
def test_readers_accept_or_reject_one_byte_mutations(position, value):
    with tempfile.TemporaryDirectory() as tmp:
        for path, reader in _valid_files(tmp).values():
            data = bytearray(path.read_bytes())
            data[position % len(data)] = value
            path.write_bytes(bytes(data))
            _loads_or_names_path(reader, path)
