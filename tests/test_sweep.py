"""`sweep`'s array grid against the per-lambda loop it replaces."""

import warnings
from fractions import Fraction

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from convrefine import cli
from convrefine.netir import param_count, parse_network
from convrefine.planner import block_terms, build_plan, lambda_o
from convrefine.rewriter import apply_plan

from conftest import networks, tallies_for, tally


def reference_rows(ir, tallies, grid, lam_o):
    """The sweep.csv rows of ``grid``, one build_plan and apply_plan per lambda."""
    for lam in grid.tolist():
        try:
            plan = build_plan(ir, tallies, lam)
            refined = apply_plan(ir, plan)
        except ValueError as exc:
            raise ValueError(f"lambda={lam!r}: {exc}") from None
        total = sum(param_count(refined).values())
        row = [repr(lam), str(int(lam > lam_o)), str(total)]
        for b in ir.blocks:
            e = plan.per_block[b.name]
            row.extend((repr(e.stretch), str(e.split)))
        yield ",".join(row)


def outcome(run):
    """The list ``run()`` yields, or its error line, and the warning lines
    Python's default filter prints meanwhile."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            result = list(run())
        except ValueError as exc:
            result = f"error: {exc}"
    return result, [f"warning: {w.category.__name__}: {w.message}" for w in caught]


@st.composite
def grids_for(draw, terms):
    """Lambdas at breakpoints x/k and at lambda_o*(1 +- 1e-9), among random ones.

    Now and then one lambda is small enough for splits past the u32 bound,
    or is the subnormal 5e-324, at which any x/lambda > 0 overflows.
    """
    lam_o = lambda_o(terms)
    xs = [x for t in terms.values() for x in t.floored if x > 0]
    top = max(xs, default=1.0)
    lams = draw(st.lists(st.floats(top / 16, 2 * top), max_size=4))
    if xs:
        lams += [draw(st.sampled_from(xs)) / draw(st.integers(1, 8))
                 for _ in range(draw(st.integers(1, 6)))]
        lams += [lam_o * (1 + 1e-9), lam_o * (1 - 1e-9)]
    if not lams or draw(st.integers(0, 4)) == 0:
        lams.append(top / draw(st.integers(20, 70)))
    if draw(st.integers(0, 9)) == 0:
        lams.append(5e-324)
    order = draw(st.sampled_from(["drawn", "sorted", "shuffled"]))
    if order == "sorted":
        lams.sort()
    return np.array(draw(st.permutations(lams)) if order == "shuffled" else lams)


def check_factors(ir, terms, rows):
    """Every factor in ``rows`` is the exactly computed, snapped one."""
    for row in rows:
        cells = row.split(",")
        lam = float(cells[0])
        for i, b in enumerate(ir.blocks):
            stretch, split = float(cells[3 + 2 * i]), int(cells[4 + 2 * i])
            t = terms.get(b.name)
            if t is None:
                assert (stretch, split) == (1.0, 1)
                continue
            plus, minus = (oracle.snapped_floor(Fraction(x) / Fraction(lam))
                           for x in (t.x_plus, t.x_minus))
            assert split == 2 ** minus
            assert stretch == (1.0 if t.case == "a" else 1.0 + lam * plus)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grid_rows_match_the_per_lambda_loop(data):
    ir = data.draw(networks())
    tallies = data.draw(tallies_for(ir))
    terms = block_terms(ir, tallies)
    grid = data.draw(grids_for(terms))
    lam_o = lambda_o(terms)
    got = outcome(lambda: cli._sweep_rows(ir, terms, grid, lam_o))
    want = outcome(lambda: reference_rows(ir, tallies, grid, lam_o))
    assert got == want
    if isinstance(want[0], list):
        check_factors(ir, terms, want[0])


# Two primes whose product is just inside u32: block a's width must be a
# multiple of both, and b's and c's groups multiply by their splits.
P, Q = 65537, 65521
COPRIME_IR = f"""\
block a in=3 out={P * Q} k=1x1 group=1 stage=0
block b in={P * Q} out={P} k=1x1 group={P} stage=1 prev=a
block c in={P * Q} out={Q} k=3x3 group={Q} stage=1 prev=a bias
block d in={P + Q} out=8 k=1x1 group=1 stage=2 prev=b,c
block e in=8 out=8 k=1x1 group=1 stage=3 prev=d
"""
COPRIME_TALLIES = {"b": tally(2, 12), "c": tally(1, 13), "d": tally(12, 2)}

# b and c fill d's in-width to the u32 bound; at lambda 0.5 b stretches by
# 1.5 and stays inside it, but their concatenation does not
CONCAT_IR = f"""\
block a in=3 out=8 k=1x1 group=1 stage=0
block b in=8 out={2**31} k=1x1 group=1 stage=1 prev=a
block c in=8 out={2**31 - 1} k=1x1 group=1 stage=1 prev=a
block d in={2**32 - 1} out=8 k=1x1 group=1 stage=2 prev=b,c
block e in=8 out=8 k=1x1 group=1 stage=3 prev=d
"""
CONCAT_TALLIES = {"b": tally(12, 2), "c": tally(1, 2), "d": tally(12, 2)}

# b feeds no block, so only its own width leaves u32 when it stretches by 1.5
DEAD_END_IR = f"""\
block a in=3 out=8 k=1x1 group=1 stage=0
block b in=8 out={2**32 - 1} k=1x1 group=1 stage=1 prev=a
block c in=8 out=8 k=1x1 group=1 stage=1 prev=a
block d in=8 out=8 k=1x1 group=1 stage=2 prev=c
block e in=8 out=8 k=1x1 group=1 stage=3 prev=d
"""
DEAD_END_TALLIES = {"b": tally(12, 2), "c": tally(1, 2), "d": tally(12, 2)}


@pytest.mark.parametrize("text, tallies, lam, error, warning", [
    # b and c would split by 2**112 and 2**121, and the planner refuses b's
    # split first.  The grid clips both at 2**32, and a's divisor, the lcm of
    # the clipped groups, still passes 2**63, where int64 products would wrap
    pytest.param(COPRIME_IR, COPRIME_TALLIES, 0.005,
                 "error: block b: split 2**112 does not fit in a u32", None, id="0.005"),
    # splits of 2**11 and 2**12 keep both groups within u32, but not their lcm
    pytest.param(COPRIME_IR, COPRIME_TALLIES, 0.05, "error: block a: out_channels ",
                 f"warning: WidthRoundingWarning: block a: width {P * Q} rounded", id="0.05"),
    pytest.param(CONCAT_IR, CONCAT_TALLIES, 0.5,
                 f"error: block d: in_channels {2**31 * 3 // 2 + 2**31 - 1} does not fit in a u32",
                 None, id="concatenated-in-width"),
    pytest.param(DEAD_END_IR, DEAD_END_TALLIES, 0.5,
                 f"error: block b: out_channels {(2**32 - 1) * 3 // 2 + 1} does not fit in a u32",
                 None, id="width-of-a-dead-end"),
])
def test_sweep_past_u32_stops_with_apply_plans_error(tmp_path, monkeypatch, capsys, text,
                                                     tallies, lam, error, warning):
    ir = parse_network(text)
    (tmp_path / "net.ir").write_text(text)
    monkeypatch.setattr(cli, "_statistics", lambda args, ir: ({}, tallies))
    out = tmp_path / "run"
    rc, printed = outcome(lambda: [cli.main([
        "sweep", "--ir", str(tmp_path / "net.ir"), "--manifest", str(tmp_path / "unread"),
        "--sweep-min", str(lam), "--sweep-max", "0.5", "--out", str(out)])])
    want, warned = outcome(lambda: [apply_plan(ir, build_plan(ir, tallies, lam))])
    assert want.startswith(error)
    assert rc == [1]
    assert capsys.readouterr().err == want.replace("error: ", f"error: lambda={lam!r}: ") + "\n"
    # the same rounding warnings as apply_plan's, in the same order
    assert printed == warned
    if warning is None:
        assert printed == []
    else:
        assert printed[0].startswith(warning)
    assert not (out / "reports" / "sweep.csv").exists()
