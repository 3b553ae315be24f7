"""Reading activation dumps and turning them into per-class mean features.

Dumps are produced by whatever framework trained the network; this module
only consumes them.  Two little-endian binary formats are involved:

    tensor file  "ATNS" u16 version=1 | u16 rank(2|4) | rank*u32 dims | float32 payload
    labels file  "ATLB" u16 version=1 | u32 N | N*u32 class indices

A manifest ties them together, one line per layer plus one labels line::

    layer <name> <tensor-path>
    labels <path>

Paths are resolved relative to the manifest file.  Each dump is streamed
once, in chunks of whole images: rank-4 dumps (N,C,H,W) are average-pooled
over the spatial axes chunk by chunk, rank-2 dumps (N,C) are taken as
already pooled, and the pooled rows are added into per-class sums.  Memory
per layer is therefore O(classes x channels) plus one fixed-size chunk,
whatever the number of images.  All statistics run in float64 regardless of
the float32 storage.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .netir import _U32_MAX, NetworkIR, _read_records, read_text


class TensorFormatError(ValueError):
    """Corrupt or unsupported binary dump."""


class ManifestError(ValueError):
    """Bad manifest or inconsistent set of dumps."""


FORMAT_VERSION = 1
# float32 values per streamed chunk, rounded down to whole images (at least one).
CHUNK_VALUES = 1 << 16


def _unpack(head: bytes, offset: int, codes: str, path, what: str):
    """Unpack little-endian ``codes`` at ``offset``; returns (values, end offset)."""
    end = offset + struct.calcsize("<" + codes)
    if end > len(head):
        raise TensorFormatError(f"{path}: truncated {what}")
    return struct.unpack_from("<" + codes, head, offset), end


@dataclass(frozen=True)
class BinaryFormat:
    """Header codec shared by the ATNS, ATLB and ATMH files.

    A header is the 4-byte magic, a u16 version, the fixed ``fields`` (struct
    codes) and, for ATNS only, one u32 per dimension.  Sizes are compared as
    Python ints, so no product of header fields can wrap.
    """

    magic: bytes
    kind: str  # "tensor", "labels" or "truth", for messages
    fields: str

    def encode(self, *fields: int, dims=()) -> bytes:
        return self.magic + struct.pack(
            f"<H{self.fields}{len(dims)}I", FORMAT_VERSION, *fields, *dims
        )

    def decode(self, head: bytes, path) -> tuple[tuple[int, ...], int]:
        """Check magic and version; returns (fields, offset after them)."""
        if len(head) < 4:
            raise TensorFormatError(f"{path}: truncated header")
        if head[:4] != self.magic:
            raise TensorFormatError(
                f"{path}: bad magic, not an {self.magic.decode()} {self.kind} file"
            )
        (version,), offset = _unpack(head, 4, "H", path, "header")
        if version != FORMAT_VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        return _unpack(head, offset, self.fields, path, "header")


def check_payload(path, file_size: int, offset: int, expected: int, what: str) -> None:
    """Raise unless exactly ``expected`` payload bytes follow the header."""
    got = file_size - offset
    if got < expected:
        raise TensorFormatError(
            f"{path}: truncated payload, expected {expected} bytes for {what}, got {got}"
        )
    if got > expected:
        raise TensorFormatError(f"{path}: trailing data after payload")


TENSOR_FORMAT = BinaryFormat(b"ATNS", "tensor", "H")  # rank, then rank u32 dims
LABELS_FORMAT = BinaryFormat(b"ATLB", "labels", "I")  # N


def _parse_tensor_header(head: bytes, file_size: int, path) -> tuple[tuple[int, ...], int]:
    """Check an ATNS header against the file size; returns (dims, payload offset).

    ``head`` holds at least the first 24 bytes of the file, or all of a
    shorter file.
    """
    (rank,), offset = TENSOR_FORMAT.decode(head, path)
    if rank not in (2, 4):
        raise TensorFormatError(f"{path}: rank must be 2 or 4, got {rank}")
    dims, offset = _unpack(head, offset, f"{rank}I", path, "dims")
    if any(d == 0 for d in dims):
        raise TensorFormatError(f"{path}: zero-sized dimension in {dims}")
    check_payload(path, file_size, offset, math.prod(dims) * 4, f"dims {dims}")
    return dims, offset


def _non_finite(path, flat_index: int) -> TensorFormatError:
    return TensorFormatError(f"{path}: non-finite value at flat index {flat_index}")


def read_tensor_file(path) -> np.ndarray:
    """Load a whole ATNS tensor as float64, checking shape and finiteness."""
    path = Path(path)
    buf = path.read_bytes()
    dims, payload_off = _parse_tensor_header(buf, len(buf), path)
    values = np.frombuffer(buf, dtype="<f4", count=math.prod(dims), offset=payload_off)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise _non_finite(path, int(bad[0]))
    return values.astype(np.float64).reshape(dims)


def _pooled_chunks(fh, path, dims: tuple[int, ...], payload_off: int):
    """Yield (first image, pooled float64 rows) for whole-image chunks of a dump.

    ``fh`` is the dump opened for binary reading.  The rows are a view of a
    buffer reused for the next chunk: consume them before advancing.
    """
    per_image = math.prod(dims[1:])
    step = min(dims[0], max(1, CHUNK_VALUES // per_image))
    raw = np.empty(step * per_image, dtype="<f4")
    wide = np.empty(step * per_image, dtype=np.float64)
    fh.seek(payload_off)
    for lo in range(0, dims[0], step):
        k = min(step, dims[0] - lo)
        values = raw[: k * per_image]
        if fh.readinto(values) != values.nbytes:
            raise TensorFormatError(f"{path}: payload shrank while it was read")
        chunk = wide[: k * per_image]
        np.copyto(chunk, values)
        images = chunk.reshape((k,) + dims[1:])
        pooled = images.mean(axis=(2, 3)) if len(dims) == 4 else images
        # A float64 sum of float32 values cannot overflow, so the pooled rows
        # are finite exactly when every value of the chunk is.
        if not np.isfinite(pooled).all():
            bad = int(np.flatnonzero(~np.isfinite(chunk))[0])
            raise _non_finite(path, lo * per_image + bad)
        yield lo, pooled


def _class_counts(layer_name: str, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Images per class 0..M-1 of ``labels``, which lie in 0..M-1.

    Every class must be represented; an empty class is an error naming
    ``layer_name``, because its mean (and every correlation involving it)
    is undefined.
    """
    # Every class has images exactly when there are num_classes distinct
    # labels.  Nothing of size num_classes is allocated before that holds:
    # a label read from a file can be near 2^32.
    present, counts = np.unique(labels, return_counts=True)
    if present.size < num_classes:
        gaps = np.flatnonzero(present != np.arange(present.size))
        empty = int(gaps[0]) if gaps.size else present.size
        raise ValueError(f"layer {layer_name}: class {empty} has no images")
    return counts


def _class_means(labels: np.ndarray, counts: np.ndarray, width: int, chunks) -> np.ndarray:
    """Per-class means of pooled feature rows, summed chunk by chunk.

    Row m of the (M, width) float64 result is the mean feature vector of
    the ``counts[m]`` images labelled m, as :func:`_class_counts` gives
    them.  ``chunks`` yields (first image, rows) for consecutive images.
    ``np.add.at`` adds into each entry of a class's sum the rows of that
    class one at a time in image order: the same order, and so the same
    float64 result, as ``rows.mean(axis=0)`` over that class's rows.
    """
    sums = np.zeros((counts.size, width), dtype=np.float64)
    columns = np.arange(width)
    for lo, rows in chunks:
        # One flat index per value keeps the image order of every entry's
        # additions; 1-D np.add.at runs several times faster than whole rows.
        flat = labels[lo : lo + rows.shape[0], None] * width + columns
        np.add.at(sums.reshape(-1), flat.reshape(-1), rows.reshape(-1))
    sums /= counts[:, None]
    return sums


def write_tensor_chunks(path, shape, chunks) -> None:
    """Write an ATNS tensor of ``shape`` from consecutive whole-image chunks.

    The shape must be one :func:`read_tensor_file` accepts: rank 2 or 4,
    every dim in 1..2**32-1.  Each chunk is checked (trailing dims, finite
    after the float32 cast) before its bytes are written; a failed write
    leaves no file, and its error names the file.
    """
    path = Path(path)
    shape = tuple(int(d) for d in shape)
    if len(shape) not in (2, 4):
        raise ValueError(f"{path}: tensor rank must be 2 or 4, got {len(shape)}")
    if not all(1 <= d <= _U32_MAX for d in shape):
        raise ValueError(f"{path}: tensor dims must lie in 1..{_U32_MAX}, got {shape}")
    try:
        with open(path, "wb") as fh:
            fh.write(TENSOR_FORMAT.encode(len(shape), dims=shape))
            rows = 0
            for chunk in chunks:
                with np.errstate(over="ignore"):  # an overflow is refused below
                    values = np.ascontiguousarray(chunk, dtype="<f4")
                if values.shape[1:] != shape[1:]:
                    raise ValueError(
                        f"{path}: chunk of shape {values.shape} does not fit tensor {shape}"
                    )
                if not np.isfinite(values).all():
                    raise ValueError(f"{path}: refusing to write non-finite values")
                fh.write(values)
                rows += values.shape[0]
            if rows != shape[0]:
                raise ValueError(
                    f"{path}: chunks hold {rows} images, tensor {shape} needs {shape[0]}"
                )
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def write_tensor_file(path, tensor) -> None:
    tensor = np.asarray(tensor)
    write_tensor_chunks(path, tensor.shape, [tensor])


def read_labels_file(path) -> np.ndarray:
    path = Path(path)
    buf = path.read_bytes()
    (n,), offset = LABELS_FORMAT.decode(buf, path)
    check_payload(path, len(buf), offset, 4 * n, f"{n} labels")
    return np.frombuffer(buf, dtype="<u4", count=n, offset=offset).astype(np.int64)


def write_labels_file(path, labels) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1 or (labels.size and labels.min() < 0):
        raise ValueError(f"{path}: labels must be a 1-D array of non-negative integers")
    if labels.size and labels.max() > _U32_MAX:
        raise ValueError(f"{path}: label {labels.max()} does not fit in a u32")
    with open(path, "wb") as fh:
        fh.write(LABELS_FORMAT.encode(labels.size))
        fh.write(np.ascontiguousarray(labels, dtype="<u4").tobytes())


def load_manifest(path, ir: NetworkIR | None = None) -> dict[str, np.ndarray]:
    """Resolve a manifest into the (M, h) class means of every listed layer.

    The number of classes is one more than the largest label.  All layers
    must share the labels file's image count, and every class must have
    images.  When an IR is given, each layer name must exist in it, the
    feature width must match the block's out_channels, and every block must
    have a dump.
    """
    path = Path(path)
    layer_paths: dict[str, Path] = {}
    labels_path = None

    def layer(tokens):
        if len(tokens) != 3:
            raise ValueError("expected 'layer <name> <path>'")
        if tokens[1] in layer_paths:
            raise ValueError(f"duplicate layer {tokens[1]!r}")
        layer_paths[tokens[1]] = path.parent / tokens[2]

    def labels(tokens):
        nonlocal labels_path
        if len(tokens) != 2:
            raise ValueError("expected 'labels <path>'")
        if labels_path is not None:
            raise ValueError("duplicate labels line")
        labels_path = path.parent / tokens[1]

    text = read_text(path, ManifestError)
    _read_records(text, path, ManifestError, {"layer": layer, "labels": labels})
    if not layer_paths:
        raise ManifestError(f"{path}: manifest lists no layers")
    if labels_path is None:
        raise ManifestError(f"{path}: manifest has no labels line")

    labels = read_labels_file(labels_path)
    if labels.size == 0:
        raise ManifestError(f"{labels_path}: labels file is empty")
    counts = None  # images per class, counted at the first layer
    means: dict[str, np.ndarray] = {}
    for name, tensor_path in layer_paths.items():
        with open(tensor_path, "rb") as fh:
            dims, payload_off = _parse_tensor_header(
                fh.read(24), os.fstat(fh.fileno()).st_size, tensor_path
            )
            if dims[0] != labels.shape[0]:
                raise ManifestError(
                    f"layer {name}: {dims[0]} images in {tensor_path}"
                    f" but {labels.shape[0]} labels in {labels_path}"
                )
            if ir is not None:
                try:
                    block = ir.block(name)
                except KeyError:
                    raise ManifestError(f"layer {name}: no such block in the IR") from None
                if dims[1] != block.out_channels:
                    raise ManifestError(
                        f"layer {name}: {dims[1]} hidden units in dump,"
                        f" block declares {block.out_channels}"
                    )
            if counts is None:
                counts = _class_counts(name, labels, int(labels.max()) + 1)
            means[name] = _class_means(
                labels, counts, dims[1], _pooled_chunks(fh, tensor_path, dims, payload_off)
            )
    if ir is not None:
        missing = sorted({b.name for b in ir.blocks} - means.keys())
        if missing:
            raise ManifestError(f"{path}: manifest has no dumps for block(s) {missing}")
    return means
