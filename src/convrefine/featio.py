"""Reading activation dumps and turning them into per-class mean features.

Dumps are produced by whatever framework trained the network; this module
only consumes them.  Two little-endian binary formats are involved:

    tensor file  "ATNS" u16 version=1 | u16 rank(2|4) | rank*u32 dims | float32 payload
    labels file  "ATLB" u16 version=1 | u32 N | N*u32 class indices

A manifest ties them together, one line per layer plus one labels line::

    layer <name> <tensor-path>
    labels <path>

Paths are resolved relative to the manifest file.  :func:`scan_manifest`
first checks each manifest line, with the labels or dump header it names,
against the IR, reading no payload.  Every dump is read one way: its header
is checked on the open file, then its payload is read once, in chunks of
whole images into one reused float32 buffer of about ``CHUNK_VALUES``
values.  A lookup pools each chunk (rank-4 dumps (N,C,H,W) are averaged
over the spatial axes into float64 rows, rank-2 dumps (N,C) taken as
pooled) and adds the rows, in float64, into per-class sums, so memory per
layer is O(classes x channels) plus one chunk and its rows, whatever the
number of images.
:func:`read_tensor_file` fills a whole float64 tensor from the same chunks.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Mapping
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


def _read_tensor_header(fh, path) -> tuple[int, ...]:
    """Check the ATNS header of the open dump ``fh`` against its size; returns its dims.
    Reads the first 24 bytes (or all of a shorter file), then seeks to the payload."""
    head = fh.read(24)
    (rank,), offset = TENSOR_FORMAT.decode(head, path)
    if rank not in (2, 4):
        raise TensorFormatError(f"{path}: rank must be 2 or 4, got {rank}")
    dims, offset = _unpack(head, offset, f"{rank}I", path, "dims")
    if any(d == 0 for d in dims):
        raise TensorFormatError(f"{path}: zero-sized dimension in {dims}")
    check_payload(path, os.fstat(fh.fileno()).st_size, offset, 4 * math.prod(dims), f"dims {dims}")
    fh.seek(offset)
    return dims


def _chunks(fh, path, dims: tuple[int, ...]):
    """Yield (first image, float32 images) for whole-image chunks of the payload at ``fh``;
    the images view one buffer of about ``CHUNK_VALUES`` values, reused for the next chunk."""
    step = min(dims[0], max(1, CHUNK_VALUES // math.prod(dims[1:])))
    buf = np.empty((step,) + dims[1:], dtype="<f4")
    for lo in range(0, dims[0], step):
        images = buf[: dims[0] - lo]  # the last chunk may be short
        if fh.readinto(images) != images.nbytes:
            raise TensorFormatError(f"{path}: payload shrank while it was read")
        yield lo, images


def _pooled(path, chunks):
    """Yield (first image, pooled rows) for the float32 ``chunks`` of a dump.

    Rank-4 images are averaged over H and W into float64 rows, cast inside
    the reduce; rank-2 images are the rows as they are.  A float64 sum of
    float32 values cannot overflow, so the rows are finite exactly when the
    chunk's values are.
    """
    for lo, images in chunks:
        rows = images.mean(axis=(2, 3), dtype=np.float64) if images.ndim == 4 else images
        if not np.isfinite(rows).all():
            bad = lo * images[0].size + int(np.flatnonzero(~np.isfinite(images))[0])
            raise TensorFormatError(f"{path}: non-finite value at flat index {bad}")
        yield lo, rows


def read_tensor_file(path) -> np.ndarray:
    """Load a whole ATNS tensor as float64, checking shape and finiteness chunk by chunk."""
    path = Path(path)
    with open(path, "rb") as fh:
        dims = _read_tensor_header(fh, path)
        # each image read as one row, so that nothing is pooled; the rows are cast into place
        tensor = np.empty((dims[0], math.prod(dims[1:])), dtype=np.float64)
        for lo, rows in _pooled(path, _chunks(fh, path, tensor.shape)):
            tensor[lo : lo + len(rows)] = rows
    return tensor.reshape(dims)


def _class_counts(labels_path, labels: np.ndarray) -> np.ndarray:
    """Images per class 0..M-1 of ``labels``, M being the largest label plus one.

    Every class must be represented; no labels at all, or an empty class, is
    an error naming ``labels_path``, because a class's mean (and every
    correlation involving it) is undefined without images.
    """
    # Every class has images exactly when the largest of the distinct labels
    # is their count less one.  Nothing of size M is allocated before that
    # holds: a label read from a file can be near 2^32.
    present, counts = np.unique(labels, return_counts=True)
    if not present.size:
        raise ValueError(f"{labels_path}: labels file is empty")
    if present[-1] >= present.size:
        empty = int(np.flatnonzero(present != np.arange(present.size))[0])
        raise ValueError(f"{labels_path}: class {empty} has no images")
    return counts


def _class_means(labels: np.ndarray, counts: np.ndarray, width: int, chunks) -> np.ndarray:
    """Per-class means of pooled feature rows, summed chunk by chunk.

    Row m of the (M, width) float64 result is the mean feature vector of
    the ``counts[m]`` images labelled m, as :func:`_class_counts` gives
    them.  ``chunks`` yields (first image, rows), as :func:`_pooled` does;
    each chunk's rows are cast to float64 once, if they are not already.
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
        np.add.at(sums.reshape(-1), flat.reshape(-1),
                  rows.astype(np.float64, copy=False).reshape(-1))
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
    if labels.ndim != 1 or labels.dtype.kind not in "biuf" or not np.all(
            np.isfinite(labels) & (labels >= 0) & (labels == np.floor(labels))):
        raise ValueError(f"{path}: labels must be a 1-D array of non-negative integers")
    if labels.size and labels.max() > _U32_MAX:
        raise ValueError(f"{path}: label {labels.max()} does not fit in a u32")
    with open(path, "wb") as fh:
        fh.write(LABELS_FORMAT.encode(labels.size))
        fh.write(np.ascontiguousarray(labels, dtype="<u4").tobytes())


class ManifestDumps(Mapping):
    """The dumps :func:`scan_manifest` checked; a lookup streams one into its class means.

    ``labels`` and ``counts`` hold the labels file's classes and images per
    class, ``dumps`` each layer's (path, dims).  On lookup, the dump's
    header is read again first and must not have changed.
    Nothing is cached: each lookup returns a new float64 array that nothing
    else holds, so a caller holds only the means it keeps, and
    ``sepstats.network_statistics`` may centre them in place.
    """

    def __init__(self, labels: np.ndarray, counts: np.ndarray, dumps: dict):
        self._labels, self._counts, self._dumps = labels, counts, dumps

    def __getitem__(self, name: str) -> np.ndarray:
        path, dims = self._dumps[name]
        with open(path, "rb") as fh:
            if _read_tensor_header(fh, path) != dims:
                raise ManifestError(f"{path}: header changed since the manifest was checked")
            return _class_means(self._labels, self._counts, dims[1],
                                _pooled(path, _chunks(fh, path, dims)))

    def __contains__(self, name) -> bool:  # without streaming, as Mapping's would
        return name in self._dumps

    def __iter__(self):
        return iter(self._dumps)

    def __len__(self) -> int:
        return len(self._dumps)


def scan_manifest(path, ir: NetworkIR) -> ManifestDumps:
    """Check a manifest line by line against ``ir`` and the files it names, reading no payload.

    A ``layer`` line must name a block of ``ir`` not named before; its dump's
    header is checked, and its width must be the block's out_channels.  The
    ``labels`` line's file is read, and every class from 0 to its largest
    label must have images.  An error on a line reads ``<manifest>:<line>:``,
    then the dump or labels file at fault, if one is.  After the last line,
    every dump must hold as many images as there are labels, and every block
    must have a dump.  The result streams each dump into its class means on
    lookup.
    """
    path = Path(path)
    dumps: dict[str, tuple] = {}
    labels_path = labels = counts = None

    def layer(tokens):
        if len(tokens) != 3:
            raise ValueError("expected 'layer <name> <path>'")
        name, tensor_path = tokens[1], path.parent / tokens[2]
        if name in dumps:
            raise ValueError(f"duplicate layer {name!r}")
        block = ir._by_name.get(name)
        if block is None:
            raise ValueError(f"layer {name}: no such block in the IR")
        with open(tensor_path, "rb") as fh:
            dims = _read_tensor_header(fh, tensor_path)
        if dims[1] != block.out_channels:
            raise ValueError(f"layer {name}: {dims[1]} hidden units in {tensor_path},"
                             f" block declares {block.out_channels}")
        dumps[name] = (tensor_path, dims)

    def labels_line(tokens):
        nonlocal labels_path, labels, counts
        if len(tokens) != 2:
            raise ValueError("expected 'labels <path>'")
        if labels_path is not None:
            raise ValueError("duplicate labels line")
        labels_path = path.parent / tokens[1]
        labels = read_labels_file(labels_path)
        counts = _class_counts(labels_path, labels)

    text = read_text(path, ManifestError)
    _read_records(text, path, ManifestError, {"layer": layer, "labels": labels_line})
    if not dumps:
        raise ManifestError(f"{path}: manifest lists no layers")
    if labels_path is None:
        raise ManifestError(f"{path}: manifest has no labels line")
    for name, (tensor_path, dims) in dumps.items():
        if dims[0] != labels.size:
            raise ManifestError(f"layer {name}: {dims[0]} images in {tensor_path}"
                                f" but {labels.size} labels in {labels_path}")
    missing = sorted({b.name for b in ir.blocks} - dumps.keys())
    if missing:
        raise ManifestError(f"{path}: manifest has no dumps for block(s) {missing}")
    return ManifestDumps(labels, counts, dumps)
