"""Standalone evaluation and synthesis utilities.

precision@k scores external prediction dumps: scores come from an ATNS
rank-2 tensor, ground truth from an "ATMH" multi-hot file (magic, u16
version, u32 N, u32 M, then N*M bytes in {0,1}).

synth_activations fabricates activation dumps whose per-layer class-mean
correlation matrices hit requested targets, which lets the whole
analyze/plan pipeline be exercised end to end without training anything.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .featio import (
    CHUNK_VALUES,
    BinaryFormat,
    TensorFormatError,
    check_payload,
    write_labels_file,
    write_tensor_chunks,
)
from .netir import _NAME_RE, _U32_MAX, read_text

TRUTH_FORMAT = BinaryFormat(b"ATMH", "truth", "II")  # N, M


def precision_at_k(scores, truth, k: int, source="<scores>, <truth>") -> float:
    """True positives over all predictions, with per-image top lists.

    ``scores`` and ``truth`` are (N, M) arrays, ``truth`` of 0/1 entries,
    ``scores`` free of NaN; other shapes or entries raise naming ``source``.
    An image with p positive labels contributes its top min(p, k) scored
    classes as predictions; k only caps the list.  Score ties break toward
    the lower class index.  Images without positive labels are skipped with
    a warning.
    """
    if scores.ndim != 2 or truth.shape != scores.shape:
        raise ValueError(f"{source}: scores {scores.shape} and truth {truth.shape}"
                         f" must match, rank 2")
    if not np.isin(truth, (0, 1)).all():
        raise ValueError(f"{source}: truth entries must be 0 or 1")
    n, m = scores.shape
    if not 1 <= k <= m:
        raise ValueError(f"k must be in 1..{m}, got {k}")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    p = truth.sum(axis=1)
    for i in np.flatnonzero(p == 0).tolist():
        warnings.warn(f"image {i} has no positive labels; skipped", stacklevel=2)
    take = np.minimum(p, k)[:, None]
    predictions = int(take.sum())
    if predictions == 0:
        raise ValueError("no image produced predictions")
    # each image's top k: the classes scored above its k-th highest score,
    # then the lowest-indexed of those scored equal to it
    kth = np.partition(scores, m - k, axis=1)[:, [m - k]]  # a copy: the partition goes
    above = scores > kth
    tied = scores == kth
    ranks = np.cumsum(tied, axis=1, dtype=np.min_scalar_type(m))  # each tie's place among ties
    top = above | (tied & (ranks <= k - above.sum(axis=1, keepdims=True)))
    cols = np.nonzero(top)[1].reshape(n, k)[:, ::-1]  # in descending class order
    # a stable ascending sort, reversed: descending, ties to the lower class; -x wraps integers
    order = np.argsort(np.take_along_axis(scores, cols, axis=1), axis=1, kind="stable")[:, ::-1]
    ranked = np.take_along_axis(truth, np.take_along_axis(cols, order, axis=1), axis=1)
    return int(ranked[np.arange(k) < take].sum()) / predictions


def read_truth_file(path) -> np.ndarray:
    path = Path(path)
    buf = path.read_bytes()
    (n, m), offset = TRUTH_FORMAT.decode(buf, path)
    check_payload(path, len(buf), offset, n * m, f"{n}x{m} truth")
    truth = np.frombuffer(buf, dtype=np.uint8, count=n * m, offset=offset).reshape(n, m)
    if not np.isin(truth, (0, 1)).all():
        raise TensorFormatError(f"{path}: truth entries must be 0 or 1")
    return truth.copy()


def write_truth_file(path, truth) -> None:
    truth = np.asarray(truth)
    if truth.ndim != 2 or not np.isin(truth, (0, 1)).all():
        raise ValueError("truth must be a rank-2 array of 0/1")
    with open(path, "wb") as fh:
        fh.write(TRUTH_FORMAT.encode(*truth.shape))
        fh.write(np.ascontiguousarray(truth, dtype=np.uint8).tobytes())


@dataclass(frozen=True, eq=False)
class SynthLayer:
    name: str
    width: int  # hidden units, must exceed num_classes
    target: np.ndarray  # (M, M) target correlation matrix


@dataclass(frozen=True, eq=False)
class SynthProfile:
    num_classes: int
    images_per_class: int
    layers: tuple[SynthLayer, ...]
    noise: float = 0.05


def uniform_target(num_classes: int, rho: float) -> np.ndarray:
    """Unit-diagonal matrix with constant off-diagonal correlation rho."""
    t = np.full((num_classes, num_classes), float(rho))
    np.fill_diagonal(t, 1.0)
    return t


def _check_target(layer: SynthLayer, m: int) -> np.ndarray:
    t = np.asarray(layer.target, dtype=np.float64)
    if t.shape != (m, m):
        raise ValueError(f"layer {layer.name}: target must be {m}x{m}")
    if not np.allclose(t, t.T, atol=1e-12):
        raise ValueError(f"layer {layer.name}: target must be symmetric")
    if not np.allclose(np.diag(t), 1.0, atol=1e-12):
        raise ValueError(f"layer {layer.name}: target diagonal must be 1")
    if np.abs(t).max() > 1.0 + 1e-12:
        raise ValueError(f"layer {layer.name}: target entries must lie in [-1, 1]")
    return t


def synth_activations(profile: SynthProfile, seed: int):
    """Deterministic dumps whose class-mean correlations match the targets.

    Per layer, class means are built as G = sqrt(T) @ Q where the rows of Q
    are orthonormal and orthogonal to the all-ones vector, so the means are
    exactly zero-centered across hidden units and their Pearson matrix is
    the target T up to float rounding.  Per-image noise is re-centered
    within each class, leaving the class means (and thus every correlation)
    untouched.  Returns ({layer name: (N, width) float64 features}, labels).
    """
    m = profile.num_classes
    if m < 2:
        raise ValueError("need at least 2 classes")
    if profile.images_per_class < 1:
        raise ValueError("need at least 1 image per class")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(m), profile.images_per_class)
    n = labels.size

    sets: dict[str, np.ndarray] = {}
    for layer in profile.layers:
        if layer.width < m + 1:
            raise ValueError(
                f"layer {layer.name}: width {layer.width} too small for"
                f" {m} classes, need at least {m + 1}"
            )
        target = _check_target(layer, m)
        evals, evecs = np.linalg.eigh(target)
        if evals.min() < -1e-8:
            raise ValueError(
                f"layer {layer.name}: target correlation matrix is not positive"
                f" semidefinite (min eigenvalue {evals.min():.3g})"
            )
        root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None)))
        basis = np.column_stack(
            [np.ones(layer.width), rng.standard_normal((layer.width, m))]
        )
        q, _ = np.linalg.qr(basis)
        means = root @ q[:, 1 : m + 1].T  # (M, width), rows zero-mean
        if profile.noise > 0:
            # In place, one class at a time, since labels repeat class by class.
            feats = rng.standard_normal((n, layer.width))
            with np.errstate(over="ignore"):  # the dump's writer refuses an overflow
                for rows, mean in zip(feats.reshape(m, -1, layer.width), means):
                    rows -= rows.mean(axis=0)
                    rows *= profile.noise
                    rows += mean
        else:
            feats = means[labels]
        sets[layer.name] = feats
    return sets, labels


def _dump_chunks(feats, spatial, rng):
    """Whole-image chunks of one layer's dump, the jitter drawn chunk by chunk."""
    per_image = feats.shape[1] * (1 if spatial is None else math.prod(spatial))
    step = max(1, CHUNK_VALUES // per_image)
    for lo in range(0, feats.shape[0], step):
        rows = feats[lo : lo + step]
        if spatial is None:
            yield rows
            continue
        jitter = rng.standard_normal(rows.shape + tuple(spatial)) * 0.01
        jitter -= jitter.mean(axis=(2, 3), keepdims=True)
        jitter += rows[:, :, None, None]
        yield jitter


def write_activation_dumps(
    dest_dir, sets, labels, spatial: tuple[int, int] | None = (2, 2), seed: int = 0
) -> Path:
    """Write ``sets``' features as ATNS/ATLB dumps plus a manifest; returns its path.

    With ``spatial`` set, each pooled value is inflated to an HxW grid with
    zero-mean jitter so that average pooling recovers it; otherwise rank-2
    tensors are written as-is.  Tensors are built and written a chunk of
    whole images at a time; the jitter is drawn chunk by chunk from one
    generator, which gives the same values as one draw for the whole tensor.
    """
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = []
    for name in sorted(sets):
        feats = sets[name]
        shape = feats.shape if spatial is None else feats.shape + tuple(spatial)
        fname = f"{name}.atns"
        write_tensor_chunks(dest / fname, shape, _dump_chunks(feats, spatial, rng))
        lines.append(f"layer {name} {fname}")
    write_labels_file(dest / "labels.atlb", labels)
    lines.append("labels labels.atlb")
    manifest = dest / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _profile_field(obj, key: str, where: str, kind=None):
    """``obj[key]``, converted by ``kind`` when given; errors name ``where``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where}: profile has no {key!r} key")
    if kind is None:
        return obj[key]
    try:
        return kind(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: bad value {obj[key]!r} for {key!r}: {exc}") from None


def _int_at_least(low: int, rule: str):
    """Converter of a JSON integer field that must be at least ``low``, as ``rule`` says."""
    def convert(value) -> int:
        if type(value) is not int:  # also refuses bool
            raise ValueError("expected a JSON integer")
        if value < low:
            raise ValueError(rule)
        return value
    return convert


def _number(value) -> float:
    """A JSON number as a float; strings and booleans are refused."""
    if type(value) not in (int, float):
        raise ValueError("expected a JSON number")
    return float(value)


def _numbers(value) -> np.ndarray:
    """Nested lists of JSON numbers as a float64 array."""
    nodes = [value]
    for node in nodes:  # grows while it is walked, so every nesting level is seen
        if isinstance(node, list):
            nodes.extend(node)
        else:
            _number(node)
    return np.asarray(value, dtype=np.float64)


def load_profile(path) -> SynthProfile:
    """Parse the JSON profile the CLI synth command takes.

    Schema: {"num_classes": M, "images_per_class": n, "noise": optional,
    "layers": [{"name": ..., "width": ..., "rho": r | "matrix": [[...]]}]}.
    Counts and widths must be JSON integers; noise, rho and matrix entries
    JSON numbers, never strings or booleans.  A missing or wrongly typed
    key raises ValueError naming the file and the key, as do fewer than 2
    classes or 1 image per class, a width not above M, a negative or
    non-finite noise, an M x n image count beyond the labels file's u32,
    and a layer name that is not a unique block name.  Nothing of size
    M x M is built before M is checked.  Bytes that are not UTF-8 name the
    file; text that is not JSON names the file and the line.
    """
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg} (column {exc.colno})") from None
    m = _profile_field(raw, "num_classes", str(path), _int_at_least(2, "need at least 2 classes"))
    per_class = _profile_field(
        raw, "images_per_class", str(path), _int_at_least(1, "need at least 1 image per class")
    )
    if m * per_class > _U32_MAX:
        raise ValueError(
            f"{path}: bad value {raw['images_per_class']!r} for 'images_per_class':"
            f" {m} classes of that many images exceed the u32 image count of a labels file"
        )
    entries = _profile_field(raw, "layers", str(path))
    if not isinstance(entries, list):
        raise ValueError(f"{path}: bad value {entries!r} for 'layers': expected a list")
    layers: dict[str, SynthLayer] = {}
    for i, entry in enumerate(entries):
        where = f"{path}: layers[{i}]"
        name = _profile_field(entry, "name", where)
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name) or name in layers:
            raise ValueError(f"{where}: bad value {name!r} for 'name': expected a new block name")
        width = _profile_field(entry, "width", where, _int_at_least(
            m + 1, f"too small for {m} classes, need at least {m + 1}"))
        if "matrix" in entry:
            target = _profile_field(entry, "matrix", where, _numbers)
        elif "rho" in entry:
            target = uniform_target(m, _profile_field(entry, "rho", where, _number))
        else:
            raise ValueError(f"{where}: profile has no 'rho' or 'matrix' key")
        layers[name] = SynthLayer(name=name, width=width, target=target)
    noise = _profile_field(raw, "noise", str(path), _number) if "noise" in raw else SynthProfile.noise
    if not 0 <= noise < math.inf:
        raise ValueError(f"{path}: bad value {raw['noise']!r} for 'noise': must be finite, >= 0")
    return SynthProfile(
        num_classes=m, images_per_class=per_class, layers=tuple(layers.values()), noise=noise
    )
