import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convrefine.netir import parse_network
from convrefine.sepstats import (
    DegenerateClassError,
    DegenerateClassWarning,
    SeparationTally,
    correlation_layer,
    network_statistics,
    separation_tally,
    write_correlation_csv,
    write_correlation_pgm,
)

from conftest import reference_csv


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
    with pytest.warns(DegenerateClassWarning, match=r"class\(es\) \[0\]"):
        c = correlation_layer("l", [[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
    assert not c[0].any() and not c[:, 0].any()
    assert c[1, 1] == 1.0


def test_degenerate_strict_mode():
    with pytest.raises(DegenerateClassError, match="layer l"):
        correlation_layer("l", [[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]], strict=True)


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
    with pytest.raises(ValueError, match="!="):
        SeparationTally(layer_name="x", n_plus=1, n_minus=1, n_ties=1, n_total=4)


def _tally_oracle(prev, cur, tol):
    m = prev.shape[0]
    plus = minus = ties = 0
    for i in range(m):
        for j in range(m):
            if i == j:
                ties += 1
            elif cur[i, j] < prev[i, j] - tol:
                plus += 1
            elif cur[i, j] > prev[i, j] + tol:
                minus += 1
            else:
                ties += 1
    return plus, minus, ties


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
# switches between positional and exponent notation
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.5e-310,
                  1e16, 1e-5, 1e-4, 9999999999999998.0, 0.1, 1.0, -1.0]


@st.composite
def csv_inputs(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # a small pool makes repeated values, and so shared text, common
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=6))
    cells = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    matrix = np.array(cells, dtype=np.float64).reshape(rows, cols)
    if rows == cols and draw(st.booleans()):
        matrix = np.where(np.tri(rows, dtype=bool), matrix.T, matrix)  # mirror the bits
    form = draw(st.sampled_from(["c", "fortran", "float32", "list"]))
    if form == "fortran":
        return np.asfortranarray(matrix)
    if form == "float32":
        with np.errstate(over="ignore"):
            return matrix.astype(np.float32)
    if form == "list":
        return matrix.tolist()
    return matrix


@given(csv_inputs())
@settings(max_examples=200)
def test_csv_export_matches_per_cell_repr(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "c.csv"
    write_correlation_csv(path, matrix)
    assert path.read_bytes() == reference_csv(matrix).encode("ascii")


def test_pgm_export_mapping(tmp_path):
    path = tmp_path / "c.pgm"
    write_correlation_pgm(path, np.array([[1.0, -1.0], [0.0, 1.0]]))
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert list(data[-4:]) == [255, 0, 128, 255]
