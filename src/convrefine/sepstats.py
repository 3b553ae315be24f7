"""Inter-class correlation matrices and separation-change tallies.

For each layer the class-mean feature vectors are correlated pairwise
(Pearson, across the hidden-unit dimensions), giving an M x M matrix whose
entries live in [-1, 1].  Lower correlation means better separation between
the two classes.  Comparing a layer's matrix against its predecessor's
yields the tallies that drive the refinement planner: n_plus counts ordered
class pairs whose correlation dropped (separation improved), n_minus counts
pairs whose correlation rose.  Counting is over ordered pairs including the
diagonal, so n_total = M^2; the diagonal never moves and always ties.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .netir import NetworkIR


class DegenerateClassError(ValueError):
    """A constant class-mean vector in strict mode."""


class DegenerateClassWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SeparationTally:
    """Separation change of one layer relative to its predecessor."""

    layer_name: str
    n_plus: int  # ordered pairs whose correlation strictly decreased
    n_minus: int  # ordered pairs whose correlation strictly increased
    n_ties: int
    n_total: int

    def __post_init__(self):
        counts = (self.n_plus, self.n_minus, self.n_ties)
        if any(c < 0 for c in counts) or self.n_total < 1:
            raise ValueError("tally counts must be non-negative, total positive")
        if sum(counts) != self.n_total:
            raise ValueError(
                f"tally for {self.layer_name or '<anon>'}: "
                f"{self.n_plus}+{self.n_minus}+{self.n_ties} != {self.n_total}"
            )


def correlation_layer(name: str, means, strict: bool = False) -> np.ndarray:
    """(M, M) Pearson correlation of every ordered pair of rows of ``means``.

    Row m of ``means`` is the mean feature vector of class m in layer
    ``name``, which messages name.  A constant (zero-variance) mean vector
    has no defined correlation; its row and column are set to 0 and a
    warning names the class (strict mode raises instead).  Non-degenerate
    diagonal entries are exactly 1 and the matrix is exactly symmetric with
    entries in [-1, 1].
    """
    g = np.asarray(means, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"layer {name}: class means must be rank 2")
    if g.shape[1] < 2:
        raise ValueError(
            f"layer {name}: need at least 2 hidden units for correlation,"
            f" got {g.shape[1]}"
        )
    centered = g - g.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    degenerate = [int(i) for i in np.flatnonzero(norms == 0.0)]
    if degenerate:
        msg = (
            f"layer {name}: constant class mean vector(s) for"
            f" class(es) {degenerate}; correlations set to 0"
        )
        if strict:
            raise DegenerateClassError(msg)
        warnings.warn(msg, DegenerateClassWarning, stacklevel=2)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = centered / safe[:, None]
    corr = unit @ unit.T
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    if degenerate:
        corr[degenerate, :] = 0.0
        corr[:, degenerate] = 0.0
    return corr


def check_tie_tol(tie_tol: float) -> None:
    """Raise ValueError unless the tie tolerance is finite and non-negative."""
    if not (tie_tol >= 0 and math.isfinite(tie_tol)):
        raise ValueError(f"tie_tol must be non-negative and finite, got {tie_tol}")


def separation_tally(
    prev: np.ndarray,
    cur: np.ndarray,
    tie_tol: float = 1e-6,
    layer_name: str = "",
) -> SeparationTally:
    """Count class pairs whose correlation moved between two layers.

    A pair counts toward n_plus when cur < prev - tie_tol, toward n_minus
    when cur > prev + tie_tol, and ties otherwise.  Diagonal pairs always
    tie.  Every off-diagonal pair is counted twice, once per direction, so
    n_total = M^2.
    """
    prev = np.asarray(prev, dtype=np.float64)
    cur = np.asarray(cur, dtype=np.float64)
    if prev.shape != cur.shape or prev.ndim != 2 or prev.shape[0] != prev.shape[1]:
        raise ValueError(f"matrices must be square and same size, got {prev.shape} vs {cur.shape}")
    check_tie_tol(tie_tol)
    m = prev.shape[0]
    diff = cur - prev
    mask = ~np.eye(m, dtype=bool)
    total = m * m
    plus = int(np.count_nonzero((diff < -tie_tol) & mask))
    minus = int(np.count_nonzero((diff > tie_tol) & mask))
    return SeparationTally(
        layer_name=layer_name,
        n_plus=plus,
        n_minus=minus,
        n_ties=total - plus - minus,
        n_total=total,
    )


def network_statistics(ir: NetworkIR, means_by_layer, tie_tol: float = 1e-6,
                       strict: bool = False) -> tuple[dict, dict]:
    """Per-block correlation matrices and tallies, each matrix computed once.

    Returns ({block: (M, M) matrix} in the IR's (stage, name) order,
    {block: SeparationTally} for the blocks that have a predecessor).  A
    block is compared against the correlation matrix of its direct
    predecessor; when a block consumes several producers, the predecessor
    statistics come from the concatenation of their class-mean features, in
    edge order, which is exactly the channel stack the block sees.  Blocks
    fed by the same concatenation share its matrix.
    """
    for b in ir.blocks:
        if b.name not in means_by_layer:
            raise ValueError(f"no class means supplied for block {b.name}")
    matrix_of = {b.name: correlation_layer(b.name, means_by_layer[b.name], strict)
                 for b in ir.blocks}
    sizes = {m.shape[0] for m in matrix_of.values()}
    if len(sizes) > 1:
        raise ValueError(f"layers disagree on the number of classes: {sorted(sizes)}")

    # A shared concatenation warns once, as the default warning filter shows
    # a repeated warning from one line once.
    stacked_of: dict[tuple[str, ...], np.ndarray] = {}
    tallies: dict[str, SeparationTally] = {}
    for b in ir.blocks:
        preds = ir.predecessors(b.name)
        if not preds:
            continue
        if len(preds) == 1:
            prev_matrix = matrix_of[preds[0]]
        elif preds in stacked_of:
            prev_matrix = stacked_of[preds]
        else:
            stacked = np.concatenate([means_by_layer[p] for p in preds], axis=1)
            prev_matrix = stacked_of[preds] = correlation_layer("+".join(preds), stacked, strict)
        tallies[b.name] = separation_tally(
            prev_matrix, matrix_of[b.name], tie_tol=tie_tol, layer_name=b.name
        )
    return matrix_of, tallies


def write_correlation_csv(path, matrix: np.ndarray) -> None:
    """One matrix row per line, cells joined by ``,``, ``\\n`` line ends.

    Each cell is ``repr`` of the float64 value, Python's shortest text that
    reads back to the same float.  Each distinct bit pattern is formatted
    once (a correlation matrix is symmetric, so that halves the ``repr``
    calls); bits rather than values keep ``-0.0`` apart from ``0.0``.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    bits, inverse = np.unique(matrix.view(np.uint64).ravel(), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    with open(path, "w") as fh:
        for row in inverse.reshape(matrix.shape):
            fh.write(",".join(text[row].tolist()) + "\n")


def write_correlation_pgm(path, matrix: np.ndarray) -> None:
    """8-bit P5 heatmap: correlation -1 maps to 0, +1 to 255."""
    matrix = np.asarray(matrix, dtype=np.float64)
    scaled = np.clip(np.rint((matrix + 1.0) * 127.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
