import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from convrefine.netir import ConvBlock, NetworkIR
from convrefine.planner import (
    BlockTerms,
    PlanEntry,
    PlanError,
    RefinementPlan,
    block_terms,
    build_plan,
    check_lambda,
    lambda_o,
    parse_plan,
    psi,
    serialize_plan,
)
from convrefine.rewriter import apply_plan

from conftest import (
    chain_ir,
    exact_terms,
    is_identity,
    networks,
    plan_of,
    random_chain_tallies,
    tallies_for,
    tally,
)


def _chain_terms(tallied, total, excluded=()):
    """block_terms of a chain conv0..convN whose convI (I >= 1) has tallied[I-1] = (plus, minus).

    The last block is the final stage, so its tally is ignored; blocks named
    in ``excluded`` carry the flag as well.
    """
    ir = chain_ir([16] * (len(tallied) + 1))
    ir = NetworkIR([dataclasses.replace(b, excluded=b.excluded or b.name in excluded)
                    for b in ir.blocks], ir.edges)
    tallies = {f"conv{i}": tally(plus, minus, total)
               for i, (plus, minus) in enumerate(tallied, start=1)}
    return block_terms(ir, tallies)


def test_xi_example():
    # xi of conv1 (stage 1): the ratios 0.5 and 0.75 of stages 2 and 3; the
    # final stage's 0.99 is left out
    terms = _chain_terms([(25, 10), (50, 0), (75, 0), (99, 0)], 100)
    assert terms["conv1"] == BlockTerms("b", 0.25 * 0.625, 0.1 * 0.625)


def test_xi_zero_when_no_enhancement():
    terms = _chain_terms([(8, 2), (0, 0), (0, 0), (0, 0)], 16)
    assert terms["conv1"] == BlockTerms("b", 0.0, 0.0)


def test_xi_empty_window_is_zero():
    # conv2's only later stage is the final one, so its xi is 0
    terms = _chain_terms([(8, 0), (8, 4), (8, 0)], 16)
    assert terms["conv2"] == BlockTerms("b", 0.0, 0.0)
    assert terms["conv1"] == BlockTerms("b", 0.5 * 0.5, 0.0)


def test_xi_skips_non_contributing_stages():
    # stage 3 holds only an excluded block, so conv1's xi averages stages 2 and 4
    terms = _chain_terms([(16, 0), (8, 0), (0, 0), (12, 0), (14, 0)], 16, excluded={"conv3"})
    assert terms["conv1"] == BlockTerms("b", 0.625, 0.0)


def test_psi_examples():
    assert int(psi(0.46875, 0.25)) == 1
    assert int(psi(0.1, 0.25)) == 0
    assert int(psi(0.25, 0.25)) == 1  # boundary floors to 1
    assert int(psi(0.0, 0.25)) == 0


# lambdas and terms around snapped boundaries: x = k*lambda, nudged by a few ulps
_lams = st.floats(1e-3, 4.0) | st.sampled_from([0.1, 0.25, 0.3, 1 / 3])
_ks = st.integers(0, 40)


@st.composite
def _boundary_terms(draw):
    lam, k = draw(_lams), draw(_ks)
    x = k * lam
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, draw(st.sampled_from([0.0, math.inf])))
    return draw(st.sampled_from([x, x * (1 + 1e-13), x * (1 - 1e-11), draw(st.floats(0, 10))])), lam


@given(st.lists(_boundary_terms(), min_size=1, max_size=12))
def test_psi_is_the_exact_snapped_floor_elementwise(pairs):
    xs, lams = (np.array(v) for v in zip(*pairs))
    floors = psi(xs, lams)
    assert floors.dtype == np.float64 and floors.shape == xs.shape
    want = [oracle.snapped_floor(Fraction(x) / Fraction(lam)) for x, lam in pairs]
    assert floors.tolist() == want
    assert [psi(x, lam).tolist() for x, lam in pairs] == want
    # broadcasting a column of terms against a row of lambdas
    grid = psi(xs[:, None], lams[None, :])
    assert grid.tolist() == [[oracle.snapped_floor(Fraction(x) / Fraction(lam))
                              for lam in lams.tolist()] for x in xs.tolist()]


def _plan_for(plus, minus, subsequent_ratio=0.625, lam=0.25):
    """5-block chain with the target tallies on conv1 and fixed xi."""
    ir = chain_ir([16] * 5)
    n = 16
    sub = int(subsequent_ratio * n)
    tallies = {
        "conv1": tally(plus, minus, n),
        "conv2": tally(sub, 0, n),
        "conv3": tally(sub, 0, n),
        "conv4": tally(0, 0, n),
    }
    return build_plan(ir, tallies, lam)


def test_build_plan_case_a():
    plan = _plan_for(plus=4, minus=12)
    entry = plan.per_block["conv1"]
    assert (entry.stretch, entry.split, entry.case) == (1.0, 2, "a")


def test_build_plan_case_b():
    plan = _plan_for(plus=12, minus=4)
    entry = plan.per_block["conv1"]
    assert (entry.stretch, entry.split, entry.case) == (1.25, 1, "b")


def test_build_plan_excludes_first_and_last():
    plan = _plan_for(plus=12, minus=0)
    assert plan.per_block["conv0"] == PlanEntry(1.0, 1, "x")
    assert plan.per_block["conv4"] == PlanEntry(1.0, 1, "x")


def test_build_plan_tally_mismatch():
    ir = chain_ir([16] * 4)
    tallies = {"conv1": tally(0, 0, 16)}
    with pytest.raises(PlanError, match="no tally for block conv2"):
        build_plan(ir, tallies, 0.25)
    tallies = {
        "conv1": tally(0, 0, 16),
        "conv2": tally(0, 0, 16),
        "ghost": tally(0, 0, 16),
    }
    with pytest.raises(PlanError, match="unknown block 'ghost'"):
        build_plan(ir, tallies, 0.25)
    tallies = {"conv1": tally(0, 0, 16), "conv2": tally(0, 0, 9)}
    with pytest.raises(PlanError, match=re.escape("tallies disagree on n_total: [9, 16]")):
        build_plan(ir, tallies, 0.25)


def test_split_factor_examples():
    assert _plan_for(plus=4, minus=1).per_block["conv1"].split == 1  # term below lambda
    # the stated equivalence point: term 0.25 at lambda 0.25 gives split 2
    assert _plan_for(plus=0, minus=8, subsequent_ratio=0.5).per_block["conv1"].split == 2


def test_stretch_factor_examples():
    assert _plan_for(plus=1, minus=0).per_block["conv1"].stretch == 1.0
    assert _plan_for(plus=16, minus=0, subsequent_ratio=1.0).per_block["conv1"].stretch == 2.0


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 2))
@settings(max_examples=50)
def test_factors_come_from_block_terms(seed, lam):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    length = int(rng.integers(3, 9))
    ir = chain_ir([m * 8] * length)
    tallies = dict(random_chain_tallies(rng, m, length))
    terms = block_terms(ir, tallies)
    exact = exact_terms(ir, tallies)
    assert list(terms) == [name for name, e in exact.items() if e is not None]
    for name, t in terms.items():
        # the float terms round a few times, on at most six window ratios
        x_plus, x_minus, case = exact[name]
        assert (t.x_plus, t.x_minus) == pytest.approx((float(x_plus), float(x_minus)),
                                                      rel=2**-48, abs=0)
        assert t.case == case
    past_u32 = [(name, int(psi(t.x_minus, lam))) for name, t in terms.items()
                if psi(t.x_minus, lam) >= 32]
    if past_u32:  # the first such block in IR order is named, before any split is built
        name, k = past_u32[0]
        message = rf"^block {name}: split 2\*\*{k} does not fit in a u32$"
        with pytest.raises(PlanError, match=message):
            build_plan(ir, tallies, lam)
        return
    plan = build_plan(ir, tallies, lam)
    for name, t in terms.items():
        entry = plan.per_block[name]
        assert entry.split == 1 << int(psi(t.x_minus, lam))
        assert entry.stretch == (1.0 if t.case == "a" else 1.0 + lam * psi(t.x_plus, lam))


@given(st.data(), st.lists(st.floats(0.01, 2), min_size=1, max_size=5))
@settings(max_examples=50)
def test_one_set_of_terms_serves_every_lambda(data, lams):
    # sweep computes block_terms once and takes lambda_o from them alone, with no plan
    ir = data.draw(networks())
    tallies = data.draw(tallies_for(ir))
    terms = block_terms(ir, tallies)
    for lam in lams:
        try:
            plan = build_plan(ir, tallies, lam)
        except PlanError as exc:  # at these lambdas, only a split past u32 is refused
            assert re.fullmatch(r"block \S+: split 2\*\*\d+ does not fit in a u32", str(exc))
            continue
        assert plan.lambda_o == lambda_o(terms)
    assert terms == block_terms(ir, tallies)


def test_lambda_upper_bound_single_case_b_layer():
    # conv1 is case b with terms 0.3 (plus) and 0.1 (minus); conv2, which
    # provides its xi, sits in the final window position and has xi 0
    tallies = {"conv1": tally(60, 20, 100), "conv2": tally(50, 0, 100)}
    plan = build_plan(chain_ir([16] * 4), tallies, 0.25)
    assert plan.lambda_o == pytest.approx(0.3)


def test_lambda_upper_bound_all_zero():
    tallies = {f"conv{i}": tally(0, 0, 16) for i in range(1, 4)}
    assert build_plan(chain_ir([16] * 5), tallies, 0.25).lambda_o == 0.0


def test_lambda_upper_bound_no_layers():
    plan = build_plan(chain_ir([16] * 2), {}, 0.25)
    assert plan.lambda_o == 0.0
    assert is_identity(plan)


def test_stage_ratios_average_within_stage():
    # two analyzed blocks in one stage average their ratios: a1's xi is the
    # mean of m1's 0.5 and m2's 0.25
    blocks = [
        ConvBlock("in0", 3, 8, 1, 1, stage=0, excluded=True),
        ConvBlock("a1", 8, 8, 1, 1, stage=1),
        ConvBlock("m1", 8, 8, 1, 1, stage=2),
        ConvBlock("m2", 8, 8, 1, 1, stage=2),
        ConvBlock("t1", 16, 8, 1, 1, stage=3, excluded=True),
    ]
    edges = [("in0", "a1"), ("a1", "m1"), ("a1", "m2"), ("m1", "t1"), ("m2", "t1")]
    tallies = {
        "a1": tally(16, 0, 16),
        "m1": tally(8, 0, 16),
        "m2": tally(4, 0, 16),
        "t1": tally(16, 0, 16),
    }
    terms = block_terms(NetworkIR(blocks, edges), tallies)
    assert terms["a1"] == BlockTerms("b", 0.375, 0.0)


def test_plan_roundtrip():
    plan = _plan_for(plus=12, minus=4)
    text = serialize_plan(plan)
    again = parse_plan(text)
    assert again.per_block == plan.per_block
    assert again.lambda_used == plan.lambda_used
    assert again.lambda_o == plan.lambda_o
    assert serialize_plan(again) == text


def test_plan_validation():
    with pytest.raises(PlanError, match="power of two"):
        RefinementPlan({"a": PlanEntry(1.0, 3, "a")}, 0.25, 0.0)
    with pytest.raises(PlanError, match="stretch 0.5 below 1"):
        RefinementPlan({"a": PlanEntry(0.5, 1, "b")}, 0.25, 0.0)
    with pytest.raises(PlanError, match="forbids stretching"):
        RefinementPlan({"a": PlanEntry(1.25, 2, "a")}, 0.25, 0.0)
    with pytest.raises(PlanError, match="excluded blocks cannot split"):
        RefinementPlan({"a": PlanEntry(1.0, 2, "x")}, 0.25, 0.0)
    with pytest.raises(PlanError, match="not 1 \\+ k\\*lambda"):
        RefinementPlan({"a": PlanEntry(1.3, 1, "b")}, 0.25, 0.0)
    with pytest.raises(PlanError, match="unknown case"):
        RefinementPlan({"a": PlanEntry(1.0, 1, "z")}, 0.25, 0.0)


def test_parse_plan_errors():
    with pytest.raises(PlanError, match="must carry lambda="):
        parse_plan("plan a stretch=1.0 split=1 case=x\n")
    with pytest.raises(PlanError, match="unrecognized line"):
        parse_plan("lambda=0.25\nlambda_o=0.5\nbogus\n")


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_lambda_must_be_positive_and_finite(lam):
    with pytest.raises(PlanError, match="lambda must be positive and finite"):
        check_lambda(lam)
    with pytest.raises(PlanError, match="lambda must be positive and finite"):
        build_plan(chain_ir([16] * 2), {}, lam)
    with pytest.raises(PlanError, match="<plan>:1: lambda must be positive and finite"):
        parse_plan(f"lambda={lam!r}\nlambda_o=0.5\nplan a stretch=1.0 split=1 case=b\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("lambda=abc\nlambda_o=0.5\n", "line 1: lambda expects a number, got 'abc'"),
        ("lambda=0.25\nlambda_o=\n", "line 2: lambda_o expects a number, got ''"),
        ("lambda=0.25\nlambda_o=nan\n", "line 2: lambda_o must be finite and non-negative"),
        ("lambda=0.25\nlambda_o=inf\n", "line 2: lambda_o must be finite and non-negative"),
        ("lambda=0.25\nlambda_o=-0.5\n", "line 2: lambda_o must be finite and non-negative"),
        ("lambda=0.25\nlambda_o=0.5\nplan a stretch=inf split=1 case=b\n",
         "line 3: stretch must be finite, got inf"),
        ("lambda=0.25\nlambda_o=0.5\nplan a stretch=nan split=1 case=b\n",
         "line 3: stretch must be finite, got nan"),
        ("lambda=0.25\nlambda_o=0.5\nplan a stretch=x split=1 case=b\n",
         "line 3: stretch expects a number, got 'x'"),
        ("lambda=0.25\nlambda=0.5\nlambda_o=0.5\n", "line 2: duplicate lambda"),
        ("lambda=0.25\nlambda_o=0.5\nplan a stretch=1.0 split=1 case=b\n"
         "plan a stretch=1.0 split=1 case=a\n", "line 4: duplicate plan entry for a"),
    ],
)
def test_parse_plan_rejects_bad_values_with_line(text, message):
    # each case reads "line N: <message>"; the error must read "<plan>:N: <message>"
    line_no, _, rest = message.removeprefix("line ").partition(": ")
    with pytest.raises(PlanError, match="^" + re.escape(f"<plan>:{line_no}: {rest}")):
        parse_plan(text)


def test_stretch_too_large_for_lambda_steps_names_block():
    # (1e308 - 1) / 0.25 overflows to inf, so the step count cannot be checked
    with pytest.raises(PlanError, match="block a: stretch 1e\\+308 is not 1 \\+ k\\*lambda"):
        RefinementPlan({"a": PlanEntry(1e308, 1, "b")}, 0.25, 0.0)


@pytest.mark.parametrize("stretch, lam, whole", [
    (1.3, 0.1, True),  # 1 + 0.1*3 is a float of its own, within 2 ulps of 1.3
    (1.25, 0.25, True),
    (1.3, 0.25, False),
    (1.0000000001, 0.25, False),  # 4e-10 steps from 1, but far more than 2 ulps
    (1.0 + 2**-52, 0.25, True),  # within 2 ulps of 1
    (1.0 + 2**-50, 0.25, False),
])
def test_stretch_lies_within_2_ulps_of_whole_lambda_steps(stretch, lam, whole):
    entries = {"a": PlanEntry(stretch, 1, "b")}
    if whole:
        assert RefinementPlan(entries, lam, 0.0).per_block == entries
        return
    with pytest.raises(PlanError, match=rf"^block a: stretch {re.escape(repr(stretch))}"
                                        rf" is not 1 \+ k\*lambda for lambda={lam}$"):
        RefinementPlan(entries, lam, 0.0)


def test_small_lambda_stretch_reads_back():
    # conv1's x+ is 1/256, so at lambda 1.7e-9 it stretches by 2,297,794
    # steps, and the float 1 + lambda*k lies 6.5e-8 steps off a whole count
    ir = chain_ir([16] * 4)
    tallies = {f"conv{i}": tally(1, 0, 16) for i in (1, 2, 3)}
    plan = build_plan(ir, tallies, 1.7e-9)
    assert plan.per_block["conv1"].stretch == 1.0 + 1.7e-9 * 2_297_794
    assert parse_plan(serialize_plan(plan)).per_block == plan.per_block


def _names_a_block(message, ir):
    named = re.match(r"block (\S+):", message)
    return named is not None and named.group(1) in {b.name for b in ir.blocks}


@pytest.mark.filterwarnings("ignore::convrefine.rewriter.WidthRoundingWarning")
@given(st.data())
@settings(max_examples=200)
def test_every_plan_the_planner_writes_reads_back(data):
    ir = data.draw(networks(max_stages=8))
    # now and then no tally has a minus count and every split is 1, so that
    # a tiny lambda reaches the stretches instead of a split past u32
    tallies = data.draw(tallies_for(ir))
    top = 2 * lambda_o(block_terms(ir, tallies)) or 1.0  # any positive lambda_o exceeds 1e-4
    # log10 lambda, often in the decades where the float 1 + lambda*k keeps
    # only some of the digits of k
    lam = 10.0 ** data.draw(st.floats(-300.0, math.log10(top)) | st.floats(-17.0, -7.0))
    lam = data.draw(st.sampled_from([lam, lam, lam, 5e-324]))  # now and then a subnormal
    try:
        plan = build_plan(ir, tallies, lam)
    except PlanError as exc:  # the plans the planner refuses: a split past u32, x/lambda = inf
        assert re.fullmatch(r"block \S+: (split 2\*\*\d+ does not fit in a u32"
                            r"|lambda \S+ is too small, x/lambda overflows)", str(exc))
        assert _names_a_block(str(exc), ir), exc
        return
    again = parse_plan(serialize_plan(plan))
    assert again.per_block == plan.per_block
    assert (again.lambda_used, again.lambda_o) == (plan.lambda_used, plan.lambda_o)
    try:
        apply_plan(ir, again)
    except ValueError as exc:
        assert _names_a_block(str(exc), ir), exc


@pytest.mark.parametrize("lam, message", [
    (1e-309, None),
    (5e-324, "block conv1: lambda 5e-324 is too small, x/lambda overflows"),
])
def test_subnormal_lambda_is_refused_as_too_small(lam, message):
    # conv1 and conv2 tally 1 plus and 0 minus of 16: only the stretch floors x/lambda
    ir = chain_ir([16] * 4)
    tallies = {f"conv{i}": tally(1, 0, 16) for i in (1, 2)}
    if message is None:
        assert build_plan(ir, tallies, lam).per_block["conv1"].stretch > 1.0
    else:
        with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
            build_plan(ir, tallies, lam)


def test_split_factors_non_increasing_in_lambda():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        length = int(rng.integers(3, 9))
        ir = chain_ir([m * 8] * length)
        tallies = dict(random_chain_tallies(rng, m, length))
        grid = np.linspace(0.02, 1.0, 25)
        prev_splits = None
        for lam in grid:
            plan = build_plan(ir, tallies, float(lam))
            splits = [plan.per_block[b].split for b in sorted(plan.per_block)]
            if prev_splits is not None:
                assert all(s <= p for s, p in zip(splits, prev_splits))
            prev_splits = splits


def test_lambda_o_closes_every_factor():
    rng = np.random.default_rng(17)
    done = 0
    while done < 100:
        m = int(rng.integers(2, 7))
        length = int(rng.integers(3, 9))
        tallies = dict(random_chain_tallies(rng, m, length))
        ir = chain_ir([m * 8] * length)
        plan = build_plan(ir, tallies, 0.25)
        if plan.lambda_o <= 0:
            continue
        done += 1
        bound = oracle.exact_plan(exact_terms(ir, tallies), Fraction(1, 4))[1]
        assert plan.lambda_o == pytest.approx(float(bound), rel=1e-12)
        closed = build_plan(ir, tallies, plan.lambda_o * (1 + 1e-9))
        assert is_identity(closed)
        open_ = build_plan(ir, tallies, plan.lambda_o * 0.999)
        assert not is_identity(open_)


def test_identity_plan_is_identity():
    ir = chain_ir([8] * 4)
    assert is_identity(plan_of(ir))
