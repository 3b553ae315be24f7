import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from convrefine import sepstats
from convrefine.featio import CHUNK_VALUES, ManifestDumps, scan_manifest
from convrefine.netir import parse_network
from convrefine.sepstats import (
    DegenerateClassError,
    DegenerateClassWarning,
    SeparationTally,
    network_statistics,
    separation_tally,
    write_correlation_csv,
    write_correlation_pgm,
)

from conftest import chain_ir, correlation_layer, networks, reference_csv, write_dumps


TWO_BLOCKS = parse_network(
    "block l0 in=3 out=6 k=1x1 group=1 stage=0\n"
    "block l1 in=6 out=6 k=1x1 group=1 stage=1 prev=l0\n"
)


def test_identical_vectors_correlate_fully():
    c = correlation_layer("l", [[1, 2, 3], [1, 2, 3]])
    assert c[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert c[0, 0] == 1.0


def test_hand_pearson_anticorrelated():
    # centered rows are (0.5, -0.5) and (-0.5, 0.5)
    c = correlation_layer("l", [[1.0, 0.0], [0.0, 1.0]])
    assert c[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_degenerate_class_convention():
    # a degenerate class's row and column, its diagonal cell too, are +0.0 bit
    # for bit, as its CSV cells print "0.0" whatever sign of zero BLAS forms
    with pytest.warns(DegenerateClassWarning, match=r"class\(es\) \[0\]"):
        c = correlation_layer("l", [[2.0, 2.0, 2.0], [1.0, 2.0, 3.0], [3.0, 1.0, 2.0]])
    assert c[0].tobytes() == c[:, 0].tobytes() == np.zeros(3).tobytes()
    assert c[1, 1] == c[2, 2] == 1.0


def test_degenerate_strict_mode():
    with pytest.raises(DegenerateClassError, match="layer l"):
        correlation_layer("l", [[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]], strict=True)


def test_every_constant_row_is_degenerate_whatever_its_value():
    # Centred in float64, a row of 7 copies of 0.1, 0.2, 0.7, 2.2 or 0.9 keeps
    # equal values of about 1e-17 (1/3 and 0.6 reach 0); unflagged, such rows
    # would correlate with each other at exactly +-1.
    values = (0.1, 0.2, 0.7, 2.2, 0.9, 1 / 3, 0.6)
    means = np.array([[v] * 7 for v in values] + [[1, 2, 3, 4, 5, 6, 7], [7, 1, 6, 2, 5, 3, 4]],
                     dtype=np.float64)
    centred = means.copy()
    with pytest.warns(DegenerateClassWarning, match=r"class\(es\) \[0, 1, 2, 3, 4, 5, 6\];"):
        c = sepstats._correlate("l", centred, False)
    assert not centred[:7].any()
    assert not c[:7].any() and not c[:, :7].any()
    assert c[7, 7] == c[8, 8] == 1.0
    with pytest.raises(DegenerateClassError, match=r"class\(es\) \[0, 1, 2, 3, 4, 5, 6\];"):
        correlation_layer("l", means, strict=True)


def test_matrix_invariants_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        h = int(rng.integers(2, 33))
        c = correlation_layer("l", rng.standard_normal((m, h)))
        assert np.array_equal(c, c.T)
        assert np.all(np.abs(c - c.T) <= 1e-12)
        assert np.all(np.diag(c) == 1.0)
        assert c.min() >= -1.0 and c.max() <= 1.0


def test_needs_two_hidden_units():
    with pytest.raises(ValueError, match="at least 2 hidden units"):
        correlation_layer("l", [[1.0], [2.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: correlation_layer("l", np.ones((2, 3, 1))), "layer l: class means must be rank 2"),
    (lambda: separation_tally(np.eye(2), np.eye(3)),
     "matrices must be square and same size, got (2, 2) vs (3, 3)"),
    (lambda: separation_tally(np.ones((2, 3)), np.ones((2, 3))),
     "matrices must be square and same size, got (2, 3) vs (2, 3)"),
    # the counts sum to the total, so only the sign check refuses them
    (lambda: SeparationTally(n_plus=-1, n_minus=2, n_ties=3, n_total=4),
     "tally counts must be non-negative, total positive"),
], ids=["rank-3-means", "sizes-differ", "not-square", "negative-count"])
def test_statistics_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_stack_two_layers():
    rng = np.random.default_rng(2)
    # given in reverse, the layers still come back in the IR's block order
    means = {f"l{i}": rng.standard_normal((2, 6)) for i in (1, 0)}
    matrices, _ = network_statistics(TWO_BLOCKS, means)
    assert list(matrices) == ["l0", "l1"]
    assert all(c.shape == (2, 2) for c in matrices.values())


def test_stack_single_layer():
    ir = parse_network("block a in=3 out=2 k=1x1 group=1 stage=0\n")
    matrices, tallies = network_statistics(ir, {"a": [[1.0, 2.0], [2.0, 1.0]]})
    assert len(matrices) == 1
    assert tallies == {}


def test_stack_class_count_mismatch():
    means = {"l0": np.eye(2, 6), "l1": np.eye(3, 6)}
    with pytest.raises(ValueError, match=r"disagree on the number of classes: \[2, 3\]"):
        network_statistics(TWO_BLOCKS, means)


def test_permuting_classes_permutes_matrix():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((5, 9))
    perm = rng.permutation(5)
    c = correlation_layer("l", g)
    cp = correlation_layer("l", g[perm])
    np.testing.assert_allclose(cp, c[np.ix_(perm, perm)], atol=1e-12)


def test_scale_invariance_after_centering():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 12))
    c = correlation_layer("l", g)
    g2 = g.copy()
    g2[1] = g[1].mean() + 7.5 * (g[1] - g[1].mean())
    c2 = correlation_layer("l", g2)
    assert np.abs(c2 - c).max() <= 1e-9


def test_tally_hand_example():
    t = separation_tally(
        np.array([[1.0, 0.8], [0.8, 1.0]]), np.array([[1.0, 0.5], [0.5, 1.0]]), tie_tol=1e-6
    )
    assert (t.n_plus, t.n_minus, t.n_ties, t.n_total) == (2, 0, 2, 4)


def test_tally_no_change():
    c = np.array([[1.0, 0.3], [0.3, 1.0]])
    t = separation_tally(c, c)
    assert (t.n_plus, t.n_minus, t.n_ties) == (0, 0, 4)


@pytest.mark.parametrize("tie_tol", [-1.0, math.nan, math.inf])
def test_tie_tol_must_be_finite_and_non_negative(tie_tol):
    with pytest.raises(ValueError, match="tie_tol must be non-negative and finite"):
        separation_tally(np.eye(2), np.eye(2), tie_tol=tie_tol)


def test_tally_boundary_is_tie():
    # dyadic values keep the +/- tie_tol comparison exact
    prev = np.array([[1.0, 0.5], [0.5, 1.0]])
    cur = np.array([[1.0, 0.25], [0.75, 1.0]])
    t = separation_tally(prev, cur, tie_tol=0.25)
    assert (t.n_plus, t.n_minus, t.n_ties) == (0, 0, 4)


def test_tally_sum_invariant_enforced():
    with pytest.raises(ValueError, match=re.escape("tally counts 1+1+1 != 4")):
        SeparationTally(n_plus=1, n_minus=1, n_ties=1, n_total=4)


def _tally_oracle(prev, cur, tol):
    """bench/oracle.py's tally of block c, fed by block p alone."""
    blocks = [oracle.IRBlock("p", 1, 1, 1, 1, 1, 0),
              oracle.IRBlock("c", 1, 1, 1, 1, 1, 1, prev=["p"])]
    t = oracle.tallies(blocks, {"p": prev, "c": cur}, {}, tol)["c"]
    return t.plus, t.minus, t.ties


def test_tally_matches_exhaustive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        prev = correlation_layer("l", rng.standard_normal((m, 8)))
        cur = correlation_layer("l", rng.standard_normal((m, 8)))
        t = separation_tally(prev, cur, tie_tol=1e-6)
        assert (t.n_plus, t.n_minus, t.n_ties) == _tally_oracle(prev, cur, 1e-6)
        assert t.n_plus <= m * m - m and t.n_minus <= m * m - m
        transposed = separation_tally(prev.T, cur.T, tie_tol=1e-6)
        assert (t.n_plus, t.n_minus, t.n_ties) == (
            transposed.n_plus,
            transposed.n_minus,
            transposed.n_ties,
        )
    # a class constant in one layer has a zero row and column there, its
    # diagonal too: that diagonal moves between 1 and 0 and still ties
    with pytest.warns(DegenerateClassWarning):
        flat = correlation_layer("l", [[2.0, 2.0, 2.0], [1.0, 2.0, 4.0], [3.0, 1.0, 2.0]])
    full = correlation_layer("l", rng.standard_normal((3, 3)))
    for prev, cur in ((flat, full), (full, flat)):
        t = separation_tally(prev, cur, tie_tol=1e-6)
        assert (t.n_plus, t.n_minus, t.n_ties) == _tally_oracle(prev, cur, 1e-6)


def test_network_tallies_concatenates_predecessors():
    ir = parse_network(
        "block a in=3 out=4 k=1x1 group=1 stage=0\n"
        "block b in=3 out=4 k=1x1 group=1 stage=0\n"
        "block c in=8 out=6 k=3x3 group=1 stage=1 prev=a,b\n"
    )
    rng = np.random.default_rng(31)
    means = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal((3, 4)),
        "c": rng.standard_normal((3, 6)),
    }
    matrices, tallies = network_statistics(ir, means)
    assert list(matrices) == ["a", "b", "c"]
    for name, c in matrices.items():
        np.testing.assert_array_equal(c, correlation_layer(name, means[name]))
    assert list(tallies) == ["c"]
    stacked = np.concatenate([means["a"], means["b"]], axis=1)
    expected = separation_tally(
        correlation_layer("a+b", stacked), correlation_layer("c", means["c"]), tie_tol=1e-6
    )
    got = tallies["c"]
    assert (got.n_plus, got.n_minus, got.n_ties) == (
        expected.n_plus,
        expected.n_minus,
        expected.n_ties,
    )


def test_network_tallies_missing_means():
    ir = parse_network(
        "block a in=3 out=4 k=1x1 group=1 stage=0\n"
        "block b in=4 out=4 k=1x1 group=1 stage=1 prev=a\n"
    )
    with pytest.raises(ValueError, match="no class means supplied for block b"):
        network_statistics(ir, {"a": np.random.default_rng(0).standard_normal((2, 4))})


def test_csv_export_reparses(tmp_path):
    c = correlation_layer("l", np.random.default_rng(4).standard_normal((3, 7)))
    path = tmp_path / "c.csv"
    write_correlation_csv(path, c)
    back = np.array(
        [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()]
    )
    np.testing.assert_array_equal(back, c)


# signed zeros, infinities, NaN, subnormals and values whose shortest text
# switches between positional and exponent notation, or gains a leading zero
DECADES = [1e-4, 1e-3, 0.01, 0.1, 1.0]
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.5e-310,
                  1e16, 1e-5, 9999999999999998.0, -1.0, *DECADES,
                  *(math.nextafter(d, to) for d in DECADES for to in (0.0, 2.0))]

# mirror cells that look alike but differ in their bits, in float64 and in float32
BIT_MISMATCHES = [(0.0, -0.0), (math.nan, -math.nan),
                  (math.nan, np.uint64(0x7FFC000000000000).view(np.float64).item()),
                  (1.0, 1.0 + 2.0**-23)]


@st.composite
def csv_inputs(draw):
    """A matrix in one of the forms the CSV writer takes, and whether it is valid.

    Valid means square and symmetric bit for bit.  Up to 8 rows, so that
    the repr batch of a block spans several rows.  Invalid matrices are
    non-square, or square with one mirror pair from ``BIT_MISMATCHES``.
    """
    rows = draw(st.integers(1, 8))
    cols = rows if draw(st.integers(0, 3)) else draw(st.integers(1, 8).filter(lambda c: c != rows))
    # a small pool makes repeated values, and so shared text, common
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    matrix = np.array(cells, dtype=np.float64).reshape(rows, cols)
    valid = rows == cols
    if valid:
        matrix = np.where(np.tri(rows, dtype=bool), matrix.T, matrix)  # mirror the bits
        if rows > 1 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
            matrix[i, j], matrix[j, i] = draw(st.sampled_from(BIT_MISMATCHES))
            valid = False
    form = draw(st.sampled_from(["c", "fortran", "float32", "list"]))
    if form == "fortran":
        matrix = np.asfortranarray(matrix)
    elif form == "float32":
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = matrix.astype(np.float32)
    elif form == "list":
        matrix = matrix.tolist()
    return matrix, valid


@given(csv_inputs())
@settings(max_examples=200)
def test_csv_export_matches_per_cell_repr(tmp_path_factory, case):
    matrix, valid = case
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    if valid:
        write_correlation_csv(path, matrix)
        assert path.read_bytes() == reference_csv(matrix).encode("ascii")
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: correlation matrix"):
            write_correlation_csv(path, matrix)
        assert not path.exists()


def _ulps_around(values, ulps=3):
    """Each value and its ``ulps`` neighbouring floats on either side."""
    out = []
    for v in values:
        below = above = v
        for _ in range(ulps):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
        out.append(v)
    return out


def test_csv_kernel_writes_repr_bytes():
    # The kernel writes cells with 1e-4 <= |x| < 1 and hands the rest, and
    # ties between two shortest candidates, to repr.  Random bit patterns in
    # [-1, 1] are mostly tiny, so the range gets its own half million;
    # dyadics of few bits make every kind of tie; the neighbours of each
    # decade and power of two cross a change of leading zeros or of spacing.
    rng = np.random.default_rng(37)
    bulk_bits = np.array([1e-4, 1.0]).view(np.int64)
    dyadic = np.arange(1, 2**15) / 2.0 ** np.arange(15, 25)[:, None]
    cells = np.concatenate([
        rng.integers(0, np.float64(1.0).view(np.int64), 10**6, endpoint=True).view(np.float64),
        rng.integers(*bulk_bits, 5 * 10**5).view(np.float64),
        dyadic[dyadic >= 1e-4].ravel(),
        _ulps_around(DECADES + [2.0**-e for e in range(1, 14)]),
    ])
    cells *= rng.choice([-1.0, 1.0], cells.size)
    special = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-5, math.nan, math.inf, 1.5,
                        12345.678, 1e16, 1.8e291, 1.7976931348623157e308])
    cells = np.concatenate([cells, special, -special])
    rows = np.resize(cells, (-(-cells.size // 1000), 1000))  # the last row wraps around
    with np.errstate(all="raise"):
        for lo in range(0, len(rows), sepstats._CSV_ROWS):
            block = rows[lo : lo + sepstats._CSV_ROWS]
            want = "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())
            assert sepstats._csv_block(block) == want.encode("ascii")


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


M_PINNED = 300
ROW_BLOCK_BYTES = 64 * M_PINNED * 8  # one 64-row block of an M x M float64 matrix


def test_csv_export_holds_a_quarter_of_the_texts(tmp_path):
    # handing each text down to its mirror cell held about M^2/4 texts at once
    # (1.8 MB here); a table of every distinct cell's text, formatted before
    # the first row, peaks at 6.0 MB
    matrix = correlation_layer("l", np.random.default_rng(23).standard_normal((M_PINNED, 400)))
    assert _traced_peak(lambda: write_correlation_csv(tmp_path / "c.csv", matrix)) <= 3.5e6


def test_csv_export_holds_one_row_block(tmp_path):
    # 0.95 MB: each cell of a 16-row block has a 25-byte slot, its keep mask
    # and about 18 float64 or int64 temporaries of the kernel live at once;
    # the kernel run over the whole matrix at once peaks at 17 MB
    matrix = correlation_layer("l", np.random.default_rng(23).standard_normal((M_PINNED, 400)))
    peak = _traced_peak(lambda: write_correlation_csv(tmp_path / "c.csv", matrix))
    assert peak <= sepstats._CSV_ROWS * M_PINNED * 256


def test_tally_works_in_row_blocks():
    # 0.31 MB: a block's difference is made while the last one is live; the
    # whole M x M difference and its two masks peak at 0.81 MB.  Class 200 is
    # constant in ``cur``, so a diagonal cell of the fourth block moves, and ties.
    rng = np.random.default_rng(29)
    prev = correlation_layer("p", rng.standard_normal((M_PINNED, 40)))
    means = rng.standard_normal((M_PINNED, 40))
    means[200] = 1.0
    with pytest.warns(DegenerateClassWarning):
        cur = correlation_layer("c", means)
    assert _traced_peak(lambda: separation_tally(prev, cur)) <= 3 * ROW_BLOCK_BYTES
    t = separation_tally(prev, cur)
    assert (t.n_plus, t.n_minus, t.n_ties) == _tally_oracle(prev, cur, 1e-6)


def test_pgm_export_works_in_row_blocks(tmp_path):
    # 0.31 MB, as for the tally; two M x M float64 temporaries peak at 1.44 MB
    matrix = correlation_layer("l", np.random.default_rng(31).standard_normal((M_PINNED, 40)))
    path = tmp_path / "c.pgm"
    assert _traced_peak(lambda: write_correlation_pgm(path, matrix)) <= 3 * ROW_BLOCK_BYTES
    whole = np.clip(np.rint((matrix + 1.0) * 127.5), 0, 255).astype(np.uint8)
    assert path.read_bytes() == b"P5\n300 300\n255\n" + whole.tobytes()


def test_pgm_export_mapping(tmp_path):
    path = tmp_path / "c.pgm"
    write_correlation_pgm(path, np.array([[1.0, -1.0], [0.0, 1.0]]))
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert list(data[-4:]) == [255, 0, 128, 255]


def _eager_correlation(name, means, strict=False):
    """correlation_layer with every step out of place, as it was written before
    streaming; a row is degenerate when its raw values are all equal or its
    centred norm is 0."""
    g = np.asarray(means, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"layer {name}: class means must be rank 2")
    if g.shape[1] < 2:
        raise ValueError(
            f"layer {name}: need at least 2 hidden units for correlation, got {g.shape[1]}"
        )
    centered = g - g.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered * centered).sum(axis=1))
    constant = (g == g[:, :1]).all(axis=1)
    degenerate = [int(i) for i in np.flatnonzero(constant | (norms == 0.0))]
    if degenerate:
        msg = (f"layer {name}: constant class mean vector(s) for"
               f" class(es) {degenerate}; correlations set to 0")
        if strict:
            raise DegenerateClassError(msg)
        warnings.warn(msg, DegenerateClassWarning, stacklevel=2)
    unit = centered / np.where(norms == 0.0, 1.0, norms)[:, None]
    corr = unit @ unit.T
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    if degenerate:
        corr[degenerate, :] = 0.0
        corr[:, degenerate] = 0.0
    return corr


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200), st.integers(2, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_correlation_equals_the_eager_reference_bit_for_bit(m, h, seed, fortran):
    # M spans several blocks of the row norms; row scales span 60 decades and
    # some rows are constant, so every row's sum order shows in its bits; a
    # Fortran-ordered copy of the means must give the same bits.  No square
    # underflows here, so the reference's norms need no scaling
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((m, h)) * 10.0 ** rng.integers(-30, 31, size=(m, 1))
    constant = rng.random(m) < 0.1
    means[constant] = rng.standard_normal((int(constant.sum()), 1))
    given_means = np.asfortranarray(means) if fortran else means
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        got = correlation_layer("l", given_means)
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = _eager_correlation("l", means)
    assert got.tobytes() == want.tobytes()
    assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]


def _correlation_and_warnings(means):
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        corr = correlation_layer("l", means)
    return corr.tobytes(), [str(w.message) for w in warned]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 80), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_only_a_constant_row_is_degenerate_whatever_its_scale(m, h, seed):
    # Scaling a row by 2**k, from 2**-900 (its squares underflow to 0) to
    # 2**900 (they overflow), changes no bit of a Pearson matrix: each row
    # varies in [1, 2) in magnitude before scaling, so every value stays normal
    rng = np.random.default_rng(seed)
    means = rng.uniform(1.0, 2.0, (m, h)) * rng.choice([-1.0, 1.0], (m, h))
    constant = np.flatnonzero(rng.random(m) < 0.1)
    means[constant] = 1.5
    scaled = np.ldexp(means, rng.integers(-900, 901, size=(m, 1)))
    warned = [f"layer l: constant class mean vector(s) for class(es) {constant.tolist()};"
              f" correlations set to 0"] if constant.size else []
    assert _correlation_and_warnings(scaled) == (_correlation_and_warnings(means)[0], warned)


_BLAS_CHECK = """
import warnings
import numpy as np
from conftest import correlation_layer
from test_sepstats import _eager_correlation

rng = np.random.default_rng(43)
for m, h in ((500, 512), (300, 520)):
    means = rng.standard_normal((m, h)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    means[m // 3] = 2.5  # one constant class
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        got = correlation_layer("l", means)
        want = _eager_correlation("l", means)
    assert len(warned) == 2 and str(warned[0].message) == str(warned[1].message)
    bits = got.view(np.uint64)
    assert np.array_equal(bits, bits.T), (m, h)
    assert got.tobytes() == want.tobytes(), (m, h)
print("ok")
"""


@pytest.mark.parametrize("setting", ["OPENBLAS_NUM_THREADS=1", "OPENBLAS_NUM_THREADS=2",
                                     "OPENBLAS_CORETYPE=Prescott"])
def test_correlation_is_symmetric_under_blas_threads_and_kernels(setting):
    # products this large are split across threads, and the kernel is picked
    # when the library loads, so each setting gets a fresh interpreter; the
    # eager reference still symmetrises, so equal bytes show nothing was lost
    tests = Path(__file__).parent
    key, _, value = setting.partition("=")
    env = dict(os.environ, **{key: value},
               PYTHONPATH=os.pathsep.join(str(tests.parent / d) for d in ("src", "bench", "tests")))
    proc = subprocess.run([sys.executable, "-c", _BLAS_CHECK], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def eager_network_statistics(ir, means_by_layer, tie_tol=1e-6, strict=False):
    """The reference: every block's means loaded, then the matrices in stream order.

    A concatenation's matrix is formed at its first consumer, before that
    consumer's own; every tally follows its block's matrix.
    """
    means_by_layer = {b.name: means_by_layer[b.name] for b in ir.blocks}
    matrix_of, tallies = {}, {}
    for b in ir.blocks:
        preds = ir.predecessors(b.name)
        if len(preds) > 1 and preds not in matrix_of:
            stacked = np.concatenate([means_by_layer[p] for p in preds], axis=1)
            matrix_of[preds] = _eager_correlation("+".join(preds), stacked, strict)
        matrix_of[b.name] = _eager_correlation(b.name, means_by_layer[b.name], strict)
        sizes = {matrix_of[ir.blocks[0].name].shape[0], matrix_of[b.name].shape[0]}
        if len(sizes) > 1:
            raise ValueError(f"layers disagree on the number of classes: {sorted(sizes)}")
        if preds:
            prev_matrix = matrix_of[preds if len(preds) > 1 else preds[0]]
            tallies[b.name] = separation_tally(prev_matrix, matrix_of[b.name], tie_tol=tie_tol)
    return {b.name: matrix_of[b.name] for b in ir.blocks}, tallies


class _Recorded(Mapping):
    """Class means that record the order in which they are looked up."""

    def __init__(self, means):
        self.means, self.reads = means, []

    def __getitem__(self, name):
        self.reads.append(name)
        return self.means[name]

    def __contains__(self, name):
        return name in self.means

    def __iter__(self):
        return iter(self.means)

    def __len__(self):
        return len(self.means)


class Outcome(NamedTuple):
    matrices: dict
    tallies: dict
    error: tuple | None
    warned: list


def _outcome(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            matrices, tallies = run()
            error = None
        except ValueError as exc:
            matrices, tallies, error = {}, {}, (type(exc), str(exc))
    return Outcome(matrices, tallies, error, [(w.category, str(w.message)) for w in caught])


@st.composite
def dags_with_means(draw):
    """A valid IR and random class means for its blocks, some classes constant.

    A constant class holds the same value in every layer, so that a
    concatenation of layers where it is constant is degenerate too.
    """
    ir = draw(networks())
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    means = {}
    for b in ir.blocks:
        g = rng.standard_normal((m, b.out_channels)) * scale
        for cls in draw(st.lists(st.integers(0, m - 1), max_size=2)):
            g[cls] = cls * scale
        means[b.name] = g
    return ir, means


@settings(max_examples=300, deadline=None)
@given(dags_with_means(), st.booleans())
def test_streamed_statistics_equal_the_eager_reference(case, strict):
    ir, means = case
    want = _outcome(lambda: eager_network_statistics(ir, means, strict=strict))
    for keep in (True, False):
        source = _Recorded(means)
        got = _outcome(
            lambda: network_statistics(ir, source, strict=strict, keep_matrices=keep)
        )
        # each block's means are read once, in IR order, up to the first error
        order = [b.name for b in ir.blocks]
        assert source.reads == (order if got.error is None else order[: len(source.reads)])
        assert (got.tallies, got.error, got.warned) == (want.tallies, want.error, want.warned)
        assert list(got.tallies) == list(want.tallies)
        if keep:
            assert list(got.matrices) == list(want.matrices)
            for name, matrix in want.matrices.items():
                assert got.matrices[name].tobytes() == matrix.tobytes()
        else:
            assert got.matrices == {}


@settings(max_examples=100, deadline=None)
@given(dags_with_means(), st.booleans())
def test_only_streamed_means_are_centred_in_place(tmp_path_factory, case, strict):
    # A ManifestDumps lookup's means are centred in place unless a
    # concatenation reads them later; a plain dict's arrays are never written.
    # Each class has one image, whose features are its mean.
    ir, means = case
    labels = np.arange(len(next(iter(means.values()))))
    dumps = scan_manifest(write_dumps(tmp_path_factory.mktemp("dumps"), means, labels), ir)
    given_means = dict(dumps)
    before = {name: g.tobytes() for name, g in given_means.items()}
    for keep in (True, False):
        streamed = _outcome(
            lambda: network_statistics(ir, dumps, strict=strict, keep_matrices=keep))
        copied = _outcome(
            lambda: network_statistics(ir, given_means, strict=strict, keep_matrices=keep))
        assert (streamed.tallies, streamed.error, streamed.warned) == (
            copied.tallies, copied.error, copied.warned)
        assert list(streamed.matrices) == list(copied.matrices)
        for name, matrix in copied.matrices.items():
            assert streamed.matrices[name].tobytes() == matrix.tobytes()
        assert {name: g.tobytes() for name, g in given_means.items()} == before


def test_streamed_chain_holds_one_layer_of_means_and_two_matrices(tmp_path):
    # Matrices dominate here: 600 classes of 16 channels, one image each.
    # A centred copy of the means, NumPy's buffer for the transpose and the
    # whole tally difference each add a third matrix (2.9 MB): 9.0 MB.
    m, width = 600, 16
    ir = chain_ir([width] * 4)
    rng = np.random.default_rng(37)
    feats = {b.name: rng.standard_normal((m, width)) for b in ir.blocks}
    dumps = scan_manifest(write_dumps(tmp_path, feats, rng.permutation(m)), ir)
    peak = _traced_peak(lambda: network_statistics(ir, dumps, keep_matrices=False))
    means, matrix = m * width * 8, m * m * 8
    chunk = _chunk_bytes((m, width))  # here every image
    # two 64-row blocks of a tally, then 0.25 MB for small objects
    assert peak <= means + 2 * matrix + chunk + 2 * 64 * m * 8 + 250_000


@pytest.mark.parametrize("tie_tol", [-1.0, math.nan])
def test_tie_tol_is_refused_before_any_means_are_read(tie_tol):
    source = _Recorded({"conv0": np.eye(3, 4), "conv1": np.eye(3, 4)})
    with pytest.raises(ValueError, match="tie_tol must be non-negative and finite"):
        network_statistics(chain_ir([4, 4]), source, tie_tol=tie_tol)
    assert source.reads == []


def _chunk_bytes(dims):
    """Bytes of one streamed chunk of a dump of ``dims``, (N, C) or (N, C, H, W).

    A chunk holds as many whole images as fit in ``CHUNK_VALUES`` values,
    and at least one: their float32 values, then their float64 rows, pooled
    or cast, and the rows' flat indices into the class sums.  NumPy's own
    buffers, of up to 8192 values each (about 0.2 MB for a rank-4 chunk),
    are left to each test's slack.
    """
    image = math.prod(dims[1:])
    step = min(dims[0], max(1, CHUNK_VALUES // image))
    return step * (4 * image + (8 + 8) * dims[1])


def _documented_working_set(ir, m, dims):
    """Bytes of ``network_statistics``' working set per step, as its docstring states them.

    There are ``m`` classes, and ``dims[block]`` are the dims of the block's
    dump.  Returns, per block in IR order, the bytes held when its means are
    looked up (the kept means of the concatenations still open and the live
    matrices), and the bytes of everything the step may hold besides: a
    concatenation formed there with the kept means it drops, the block's
    means and their copy if a concatenation reads them later, its matrix,
    one chunk of its dump (:func:`_chunk_bytes`) and two 64-row blocks.
    """
    pos = {b.name: i for i, b in enumerate(ir.blocks)}
    formed, last, kept_until = {}, {}, {}  # keyed by the blocks a matrix correlates
    for i, b in enumerate(ir.blocks):
        preds = ir.predecessors(b.name)
        formed[(b.name,)] = last[(b.name,)] = i
        if len(preds) > 1 and preds not in formed:
            formed[preds] = i
            kept_until.update(dict.fromkeys(preds, i))
        if preds:
            last[preds] = i

    def means(names):
        return 8 * m * sum(dims[n][1] for n in names)

    held, step = [], []
    for i, b in enumerate(ir.blocks):
        preds = ir.predecessors(b.name)
        live = [k for k in formed if formed[k] <= i <= last[k] and k != (b.name,)]
        held.append(means(p for p in kept_until if pos[p] < i < kept_until[p])
                    + 8 * m * m * len(live))
        stacking = formed.get(preds) == i and len(preds) > 1
        step.append(held[-1]
                    + (means(preds) + means(p for p in preds if kept_until[p] == i)
                       if stacking else 0)
                    + means([b.name]) * (2 if b.name in kept_until else 1)
                    + 8 * m * m  # the block's own matrix
                    + _chunk_bytes(dims[b.name])
                    + 2 * 64 * m * 8)
    return held, step


class _HeldAtLookup(ManifestDumps):
    """Streamed dumps that record the traced bytes held when each is looked up."""

    def __init__(self, dumps):
        vars(self).update(vars(dumps))
        self.held = []

    def __getitem__(self, name):
        self.held.append(tracemalloc.get_traced_memory()[0])
        return super().__getitem__(name)


def _inception_ir(units, scale):
    """A stem, ``units`` two-stage inception units of the benchmark's widths x ``scale``,
    and a 1x1 head; each unit reads the concatenation of the last one's four outputs."""
    out = {"stem": 64}
    lines = ["block stem in=3 out=64 k=3x3 group=1 stage=0"]
    prior = ["stem"]

    def add(name, width, stage, reads):
        out[name] = width
        lines.append(f"block {name} in={sum(out[r] for r in reads)} out={width} k=1x1"
                     f" group=1 stage={stage} prev={','.join(reads)}")

    for u in range(units):
        for k, w, stage, reads in [("1x1", 32, 1, prior), ("3r", 24, 1, prior),
                                   ("5r", 16, 1, prior), ("3x3", 32, 2, [f"u{u}_3r"]),
                                   ("5x5", 16, 2, [f"u{u}_5r"]), ("pool", 16, 2, prior)]:
            add(f"u{u}_{k}", w * scale, 2 * u + stage, reads)
        prior = [f"u{u}_{k}" for k in ("1x1", "3x3", "5x5", "pool")]
    add("head", 64, 2 * units + 1, prior)
    return parse_network("\n".join(lines) + "\n")


def test_inception_statistics_hold_the_documented_working_set(tmp_path):
    # 56 blocks of 300 classes, one image each.  Every unit's four outputs
    # feed the next unit's concatenation, whose pool branch reads it a stage
    # later.  The pass peaks at 5.2 MB against a formula of 8.0 MB; holding
    # every concatenated producer's means and every consumer's matrix to the
    # end of the pass peaks at 43.3 MB.
    m = 300
    ir = _inception_ir(9, 8)
    assert len(ir.blocks) == 56
    rng = np.random.default_rng(41)
    feats = {b.name: rng.standard_normal((m, b.out_channels)) for b in ir.blocks}
    dumps = scan_manifest(write_dumps(tmp_path, feats, rng.permutation(m)), ir)
    peak = _traced_peak(lambda: network_statistics(ir, dumps, keep_matrices=False))
    _, step = _documented_working_set(ir, m, {b.name: (m, b.out_channels) for b in ir.blocks})
    assert peak <= max(step) + 250_000


@pytest.mark.parametrize("units, m, per_class, spatial", [(3, 10, 20, (2, 2)), (2, 50, 4, (3, 3))],
                         ids=["10-classes-of-20-2x2", "50-classes-of-4-3x3"])
def test_streamed_maps_of_many_images_hold_the_documented_working_set(tmp_path, units, m,
                                                                       per_class, spatial):
    # Here a chunk of float32 maps outweighs the means and matrices: the
    # first case peaks at 0.57 MB, 12.6 times a chunk term of one rank-2
    # image per class would allow.
    ir = _inception_ir(units, 1)
    rng = np.random.default_rng(43)
    dims = {b.name: (m * per_class, b.out_channels, *spatial) for b in ir.blocks}
    feats = {name: rng.standard_normal(d) for name, d in dims.items()}
    labels = rng.permutation(np.repeat(np.arange(m), per_class))
    dumps = scan_manifest(write_dumps(tmp_path, feats, labels), ir)
    peak = _traced_peak(lambda: network_statistics(ir, dumps, keep_matrices=False))
    _, step = _documented_working_set(ir, m, dims)
    assert peak <= max(step) + 250_000


@settings(max_examples=40, deadline=None)
@given(networks(min_width=2, max_stages=5))
def test_streamed_statistics_hold_only_the_live_means_and_matrices(tmp_path_factory, ir):
    # 100 classes: a matrix (80 kB) outweighs the slack for small objects,
    # so a matrix or kept means held past their last reader show.
    m = 100
    rng = np.random.default_rng(len(ir.blocks))
    feats = {b.name: rng.standard_normal((m, b.out_channels)) for b in ir.blocks}
    dumps = _HeldAtLookup(scan_manifest(
        write_dumps(tmp_path_factory.mktemp("dumps"), feats, np.arange(m)), ir))
    peak = _traced_peak(lambda: network_statistics(ir, dumps, keep_matrices=False))
    held, step = _documented_working_set(ir, m, {b.name: (m, b.out_channels) for b in ir.blocks})
    for got, want in zip(dumps.held, held):
        assert got <= want + 40_000
    assert peak <= max(step) + 40_000
