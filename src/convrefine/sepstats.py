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

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .featio import ManifestDumps
from .netir import NetworkIR


class DegenerateClassError(ValueError):
    """A constant class-mean vector in strict mode."""


class DegenerateClassWarning(UserWarning):
    pass


@dataclass(frozen=True)
class SeparationTally:
    """Separation change of one layer relative to its predecessor."""

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
                f"tally counts {self.n_plus}+{self.n_minus}+{self.n_ties} != {self.n_total}"
            )


_NORM_ROWS = 64  # rows per block of every M x M or M x channels temporary
TIE_TOL = 1e-6  # default |change| of a correlation within which a pair ties


def _correlate(name: str, g: np.ndarray, strict: bool) -> np.ndarray:
    """The (M, M) Pearson correlation of the rows of ``g``: clipped, unit diagonal.

    ``g`` is a float64 C-order array that nothing else holds; its rows are
    centred and scaled to unit norm in place.  A row is degenerate only when
    it is constant (it is then centred to exact zeros), however small its
    values: its row and column are 0 and a warning names its class (strict
    mode raises).  The result is symmetric bit for bit only because it is
    ``g @ g.T`` of that same C-order array, which NumPy forms with BLAS
    ``syrk`` (or a loop that sums cells (i, j) and (j, i) alike);
    ``g @ np.ascontiguousarray(g.T)`` goes through ``gemm`` and is not
    symmetric.
    """
    if g.ndim != 2:
        raise ValueError(f"layer {name}: class means must be rank 2")
    if g.shape[1] < 2:
        raise ValueError(f"layer {name}: need at least 2 hidden units for correlation,"
                         f" got {g.shape[1]}")
    g -= g.mean(axis=1, keepdims=True)
    # The squares are held one block of rows at a time; a C-order row sums
    # in the same order whatever block holds it, so the norms keep their bits.
    norms = np.empty(len(g))
    for lo in range(0, len(g), _NORM_ROWS):
        block = g[lo : lo + _NORM_ROWS]
        # A constant row centres to equal values, not always to zeros (0.1 in
        # 7 channels leaves 1.4e-17 each); made zeros, its norm is 0.
        block[(block == block[:, :1]).all(axis=1)] = 0.0
        # Scaled exactly by a power of two to a largest |x| in [0.5, 1), a row
        # that varies keeps a norm > 0, and its unit row its bits, at any scale.
        np.ldexp(block, -np.frexp(np.abs(block).max(axis=1, keepdims=True))[1], out=block)
        np.sqrt((block * block).sum(axis=1), out=norms[lo : lo + _NORM_ROWS])
    degenerate = [int(i) for i in np.flatnonzero(norms == 0.0)]
    if degenerate:
        msg = (
            f"layer {name}: constant class mean vector(s) for"
            f" class(es) {degenerate}; correlations set to 0"
        )
        if strict:
            raise DegenerateClassError(msg)
        # at the line that called network_statistics
        warnings.warn(msg, DegenerateClassWarning, stacklevel=3)
    g /= np.where(norms == 0.0, 1.0, norms)[:, None]
    corr = g @ g.T
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    return corr


def check_tie_tol(tie_tol: float) -> None:
    """Raise ValueError unless the tie tolerance is finite and non-negative."""
    if not (tie_tol >= 0 and math.isfinite(tie_tol)):
        raise ValueError(f"tie_tol must be non-negative and finite, got {tie_tol}")


def separation_tally(prev: np.ndarray, cur: np.ndarray, tie_tol: float = TIE_TOL) -> SeparationTally:
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
    plus = minus = 0
    for lo in range(0, len(cur), _NORM_ROWS):  # the difference is held a block of rows at a time
        diff = cur[lo : lo + _NORM_ROWS] - prev[lo : lo + _NORM_ROWS]
        np.fill_diagonal(diff[:, lo:], 0.0)  # a tie, as tie_tol >= 0
        plus += int(np.count_nonzero(diff < -tie_tol))
        minus += int(np.count_nonzero(diff > tie_tol))
    total = cur.size
    return SeparationTally(n_plus=plus, n_minus=minus, n_ties=total - plus - minus, n_total=total)


def network_statistics(ir: NetworkIR, means_by_layer, tie_tol: float = TIE_TOL,
                       strict: bool = False, keep_matrices: bool = True) -> tuple[dict, dict]:
    """Per-block correlation matrices and tallies, in one pass over the IR.

    Returns ({block: (M, M) matrix} in the IR's (stage, name) order,
    {block: SeparationTally} for the blocks that have a predecessor, in the
    same order).  A block is compared against the correlation matrix of its
    direct predecessor; when a block consumes several producers, against
    that of the concatenation of their class-mean features, in edge order,
    which is exactly the channel stack the block sees.  Blocks fed by the
    same concatenation share its matrix, formed at the first of them before
    that block's means are read; warnings and strict errors come in this
    stream order.  ``means_by_layer`` (a dict, or a lazy
    :class:`featio.ManifestDumps`) is read once per block in IR order.  With
    ``keep_matrices`` false the first dict is empty.

    At each step the working set is the current layer's means, plus the
    kept means of the concatenations still open, plus the live matrices
    (each dropped after its last reader), plus the 64-row blocks of a tally
    and a streamed dump's one float32 chunk and its pooled float64 rows.
    Means streamed from a ``ManifestDumps``, which nothing else holds, are
    centred in place unless a concatenation reads them later; arrays from
    any other mapping are copied first, never written.
    """
    check_tie_tol(tie_tol)
    for b in ir.blocks:
        if b.name not in means_by_layer:
            raise ValueError(f"no class means supplied for block {b.name}")
    # A matrix is keyed by the blocks whose means it correlates: (name,) for
    # a block's own, which is also its single-producer consumers' key.
    preds_of = [ir.predecessors(b.name) for b in ir.blocks]
    last: dict[tuple[str, ...], int] = {}  # the step after which a matrix is read no more
    kept_until: dict[str, int] = {}  # a producer's means: the step its last concatenation forms
    for i, (b, preds) in enumerate(zip(ir.blocks, preds_of)):
        last[(b.name,)] = i
        if len(preds) > 1 and preds not in last:
            kept_until.update(dict.fromkeys(preds, i))
        if preds:
            last[preds] = i

    streamed = isinstance(means_by_layer, ManifestDumps)
    live, kept, matrices, tallies, sizes = {}, {}, {}, {}, set()
    for i, (b, preds) in enumerate(zip(ir.blocks, preds_of)):
        if len(preds) > 1 and preds not in live:
            # the concatenation is a new array, so it is centred in place
            stacked = np.ascontiguousarray(np.concatenate([kept[p] for p in preds], axis=1),
                                           dtype=np.float64)
            live[preds] = _correlate("+".join(preds), stacked, strict)
            del stacked
            for p in preds:
                if kept_until[p] == i:
                    del kept[p]
        means = means_by_layer[b.name]
        if b.name in kept_until:
            kept[b.name] = means
        if not streamed or b.name in kept_until:
            means = np.array(means, dtype=np.float64, order="C")
        live[(b.name,)] = _correlate(b.name, means, strict)
        del means  # not held while the next dump streams
        sizes.add(len(live[(b.name,)]))
        if len(sizes) > 1:
            raise ValueError(f"layers disagree on the number of classes: {sorted(sizes)}")
        if keep_matrices:
            matrices[b.name] = live[(b.name,)]
        if preds:
            tallies[b.name] = separation_tally(live[preds], live[(b.name,)], tie_tol)
        for key in [k for k in live if last[k] == i]:
            del live[key]
    return matrices, tallies


_CSV_ROWS = 16  # matrix rows per block of the CSV writer's buffers
_SLOT = 25  # bytes per cell: the widest float64 repr, "-2.2250738585072014e-308", and "," or "\n"


@functools.cache
def _csv_tables() -> tuple[np.ndarray, np.ndarray]:
    """The digits of 0000..9999 as uint32, and which bytes of a slot
    ``-0.000`` + 17 digits + separator a cell of 1e-4 <= |x| < 1 keeps, as
    rows ``keeps[(negative * 4 + zeros) * 18 + digits]``.

    Built on first use, so that importing convrefine allocates nothing.
    """
    q = np.arange(10_000)
    quads = (np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
             + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    negative, zeros, digits = (v.reshape(-1, 1) for v in np.indices((2, 4, 18)))
    at = np.arange(_SLOT)
    keeps = ((at == 0) & (negative == 1)) | (at == 1) | (at == 2) | (at == _SLOT - 1)
    keeps |= ((at >= 3) & (at < 3 + zeros)) | ((at >= 6) & (at < 6 + digits))
    for table in (quads, keeps):
        table.flags.writeable = False
    return quads, keeps


def _veltkamp(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v == hi + lo exactly, each half of at most 26 significant bits."""
    t = v * 134217729.0  # 2**27 + 1
    hi = t - (t - v)
    return hi, v - hi


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """``repr``'s digits of each float64 a with 1e-4 <= a < 1.

    Returns the zeros repr writes after ``0.``, its digits as one 17-digit
    integer padded with trailing zeros, whether that integer ends in two
    zeros or more, and where two candidates tie (left to repr).

    Scaled by 10**k (k = 17 + zeros) into [1e16, 1e17), a is exactly
    ``whole + frac`` (Dekker's product of Veltkamp halves), and the reals
    that round to a lie strictly within ``half`` of it, which is exact too
    (a power of two times 5**k).  repr's digits are those of the integer
    within ``half`` that ends in the most zeros, the one nearest ``whole +
    frac`` when several do.  As 0.68 < half < 11, the integers within run
    from ``upper - width`` to ``upper``, and at most one of them is a
    multiple of 100.  (Below a power of two the floats are twice as dense,
    but each power of two in range has an exact decimal of at most 14
    digits, which no other integer within can beat.)
    """
    zeros = (a < 0.1).astype(np.intp)
    zeros += a < 0.01
    zeros += a < 1e-3
    p = np.array([1e17, 1e18, 1e19, 1e20]).take(zeros)  # exact doubles
    prod = a * p  # an even integer, as 2**53 < 1e16
    a_hi, a_lo = _veltkamp(a)
    p_hi, p_lo = _veltkamp(p)
    err = ((a_hi * p_hi - prod) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    near = np.rint(err)
    frac = err - near  # in [-0.5, 0.5]
    whole = prod.astype(np.int64) + near.astype(np.int64)
    half = np.spacing(a) * 0.5 * p
    top = np.floor(frac + half)  # frac +- half is exact and never an integer
    width = top - np.ceil(frac - half)
    upper = whole + top.astype(np.int64)
    # (np.remainder is several times slower than these floor divisions)
    u100 = upper - upper // 100 * 100
    by100 = u100 <= width
    by10 = upper - upper // 10 * 10 <= width
    r10 = whole - whole // 10 * 10
    down = r10 + frac  # distances to the multiples of 10 below and above
    up = (10 - r10) - frac
    digits = np.where(by100, upper - u100,
                      np.where(by10, whole - r10 + 10 * (up < down), whole))
    tie = ~by100 & np.where(by10, up == down, np.abs(frac) == 0.5)
    return zeros, digits, by100, tie


def _csv_block(block: np.ndarray) -> bytes:
    """The CSV lines of a C-order block of float64 matrix rows.

    Each cell fills a slot of ``-0.000`` + 17 digits + separator, of which
    the bytes it keeps are then gathered in order.  A cell with
    1e-4 <= |x| < 1 takes its digits from :func:`_shortest_digits`; every
    other cell, and a cell whose candidates tie, is written by ``repr``, all
    in one batch.
    """
    quads, keeps = _csv_tables()
    x = block.ravel()
    a = np.abs(x)
    bulk = (a >= 1e-4) & (a < 1.0)
    a[~bulk] = 0.5  # any value in range, so that no step of the kernel can warn
    zeros, digits, by100, tie = _shortest_digits(a)
    slots = np.empty((x.size, _SLOT), np.uint8)
    slots[:] = np.frombuffer(b"-0.000" + bytes(_SLOT - 7) + b",", np.uint8)
    lead = digits // 10**16
    slots[:, 6] = lead + ord("0")
    digits -= lead * 10**16
    high = digits // 10**8
    digits -= high * 10**8
    q = np.empty((x.size, 4), np.int64)
    q[:, 0] = high // 10**4
    q[:, 1] = high - q[:, 0] * 10**4
    q[:, 2] = digits // 10**4
    q[:, 3] = digits - q[:, 2] * 10**4
    slots[:, 7:23] = quads.take(q).view(np.uint8)
    # the digits written: 17 less a multiple of 10's one trailing zero, or
    # counted where a multiple of 100 was taken
    count = 17 - (slots[:, 22] == ord("0"))
    many = np.flatnonzero(by100)
    count[many] = 17 - np.argmax(slots[many, 22:5:-1] != ord("0"), axis=1)
    keep = keeps.take(((x < 0) * 4 + zeros) * 18 + count, axis=0)
    fallback = ~bulk | tie
    if fallback.any():
        texts = np.array(list(map(repr, x[fallback].tolist())), dtype=f"S{_SLOT - 1}")
        raw = texts.view(np.uint8).reshape(-1, _SLOT - 1)
        slots[fallback, :-1] = raw
        keep[fallback, :-1] = raw != 0
    slots[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
    return slots[keep].tobytes()


def write_correlation_csv(path, matrix: np.ndarray) -> None:
    """One matrix row per line, cells joined by ``,``, ``\\n`` line ends.

    Each cell is ``repr`` of the float64 value, Python's shortest text that
    reads back to the same float.  ``matrix`` must be square and symmetric
    bit for bit, as every matrix of :func:`network_statistics` is; anything
    else raises ValueError before the file is opened, so that the check
    guards that property of every matrix ``analyze`` writes.  Cells with
    1e-4 <= |x| < 1 get repr's bytes from a NumPy kernel, 16 rows at a
    time; the others go through ``repr`` itself, in one batch per block.
    Only one block's buffers are held at a time.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{path}: correlation matrix must be square, got shape {matrix.shape}")
    bits = matrix.view(np.uint64)  # bits, so that -0.0 and 0.0 (or two NaNs) differ
    if not np.array_equal(bits, bits.T):
        raise ValueError(f"{path}: correlation matrix must be symmetric bit for bit")
    with open(path, "wb") as fh:
        for lo in range(0, len(matrix), _CSV_ROWS):
            fh.write(_csv_block(matrix[lo : lo + _CSV_ROWS]))


def write_correlation_pgm(path, matrix: np.ndarray) -> None:
    """8-bit P5 heatmap: correlation -1 maps to 0, +1 to 255, a block of 64 rows at a time."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii"))
        for lo in range(0, len(matrix), _NORM_ROWS):  # one block of rows at a time
            scaled = matrix[lo : lo + _NORM_ROWS] + 1.0
            scaled *= 127.5
            np.rint(scaled, out=scaled)
            np.clip(scaled, 0, 255, out=scaled)
            fh.write(scaled.astype(np.uint8).tobytes())
