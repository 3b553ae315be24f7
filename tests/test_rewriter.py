import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from convrefine.netir import (
    ConvBlock,
    IRValidationError,
    param_count,
    parse_network,
    serialize_network,
)
from convrefine.planner import PlanEntry, RefinementPlan
from convrefine.rewriter import (
    RewriteError,
    WidthRoundingWarning,
    apply_plan,
    refine_widths,
    render_size_report,
    size_report,
    size_report_csv,
)

from conftest import chain_ir, enumerated_weights, networks, plan_of


def test_stretch_by_half():
    ir = chain_ir([64, 64, 64])
    plan = plan_of(ir, {"conv1": PlanEntry(1.5, 1, "b")}, lam=0.5)
    refined = apply_plan(ir, plan)
    assert refined.block("conv1").out_channels == 96
    assert refined.block("conv2").in_channels == 96


def test_split_halves_params():
    ir = parse_network(
        "block conv_1 in=3 out=96 k=11x11 group=1 stage=0\n"
        "block conv_2 in=96 out=256 k=11x11 group=1 stage=1 prev=conv_1\n"
    )
    plan = plan_of(ir, {"conv_2": PlanEntry(1.0, 2, "a")})
    refined = apply_plan(ir, plan)
    assert refined.block("conv_2").group == 2
    before = param_count(ir)["conv_2"]
    after = param_count(refined)["conv_2"]
    assert (before, after) == (2_973_696, 1_486_848)


def test_identity_plan_is_noop():
    ir = parse_network(
        "block a in=3 out=96 k=3x3 group=1 stage=0\n"
        "block b in=96 out=256 k=3x3 group=2 stage=1 prev=a\n"
        "block c in=256 out=128 k=3x3 group=4 stage=2 prev=b\n"
    )
    refined = apply_plan(ir, plan_of(ir))
    assert refined == ir
    assert serialize_network(refined) == serialize_network(ir)


def test_plan_must_cover_all_blocks():
    ir = chain_ir([8, 8])
    with pytest.raises(RewriteError, match="no entry for block"):
        apply_plan(ir, RefinementPlan({"conv0": PlanEntry(1.0, 1, "x")}, 0.25, 0.0))
    full = {
        "conv0": PlanEntry(1.0, 1, "x"),
        "conv1": PlanEntry(1.0, 1, "x"),
        "ghost": PlanEntry(1.0, 1, "x"),
    }
    with pytest.raises(RewriteError, match="unknown block"):
        apply_plan(ir, RefinementPlan(full, 0.25, 0.0))


def test_splits_compose_multiplicatively():
    ir = chain_ir([16, 16, 16, 16])
    split2 = plan_of(ir, {"conv2": PlanEntry(1.0, 2, "a")})
    once = apply_plan(ir, split2)
    assert once.block("conv2").group == 2
    twice = apply_plan(once, split2)
    assert twice.block("conv2").group == 4
    # applying a plan then the identity equals applying the plan
    assert apply_plan(once, plan_of(once)) == once


def test_stretch_rounds_up_to_consumer_group():
    # conv1 stretches to 50.4 -> 50, then must stay divisible by the
    # consumer's refined group of 4 -> 52
    ir = chain_ir([8, 42, 8])
    plan = plan_of(
        ir,
        {"conv1": PlanEntry(1.2, 1, "b"), "conv2": PlanEntry(1.0, 4, "a")},
        lam=0.2,
    )
    with pytest.warns(WidthRoundingWarning, match="width 50 rounded up to 52"):
        refined = apply_plan(ir, plan)
    assert refined.block("conv1").out_channels == 52
    assert refined.block("conv2").in_channels == 52
    assert refined.block("conv2").group == 4


# a lambda as a short decimal, as a plan file or --lambda gives it, or any float
LAMBDAS = st.one_of(st.builds(lambda n, d: float(f"{n}e-{d}"), st.integers(1, 999), st.integers(1, 4)),
                    st.floats(1e-3, 1.0))


@example(widths=[50, 10], lams=[0.05], ks=[3, 3])  # 50 * 1.15 is 57.49999999999999 in float64
@given(st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=4),
       st.lists(LAMBDAS, min_size=1, max_size=4), st.lists(st.integers(1, 40), min_size=4))
def test_widths_round_the_printed_stretch_half_up(widths, lams, ks):
    # each stretch is 1 + k*lambda, as planned; its width is out times the
    # decimal that repr prints, as the plan file and sweep.csv show it
    stretches = [[1.0 + lam * k for lam in lams] for k in ks[: len(widths)]]
    w = refine_widths(chain_ir(widths), np.ones((len(widths), len(lams)), dtype=object),
                      np.array(stretches))
    assert w.raw.tolist() == [[math.floor(out * Fraction(repr(s)) + Fraction(1, 2)) for s in row]
                              for out, row in zip(widths, stretches)]


def test_cannot_split_input_fed_block():
    ir = chain_ir([8, 8])
    plan = plan_of(ir, {"conv0": PlanEntry(1.0, 2, "a")})
    # the data fixes an input-fed block's in_channels, so the refined IR's validation refuses it
    with pytest.raises(IRValidationError,
                       match="^block conv0: group 2 does not divide in_channels 3$"):
        apply_plan(ir, plan)


def test_non_finite_stretched_width_names_block():
    ir = chain_ir([8, 8, 8])
    plan = plan_of(ir, {"conv1": PlanEntry(1e308, 1, "b")}, lam=1.0)
    with pytest.raises(RewriteError, match="block conv1: stretched width inf is not finite"):
        apply_plan(ir, plan)


def test_refined_ir_validates_with_concat_consumers():
    ir = parse_network(
        "block a in=3 out=8 k=1x1 group=1 stage=0\n"
        "block b in=3 out=8 k=1x1 group=1 stage=0\n"
        "block mid in=16 out=32 k=3x3 group=1 stage=1 prev=a,b\n"
        "block top in=32 out=16 k=3x3 group=1 stage=2 prev=mid\n"
    )
    plan = plan_of(ir, {"mid": PlanEntry(1.25, 2, "b")})
    refined = apply_plan(ir, plan)
    # each producer width must stay divisible by mid's refined group of 2
    assert refined.block("mid").group == 2
    assert refined.block("mid").in_channels == 16
    assert refined.block("mid").out_channels == 40
    assert refined.block("top").in_channels == 40


def test_size_report_identity():
    ir = chain_ir([16, 16, 16])
    report = size_report(ir, apply_plan(ir, plan_of(ir)))
    assert report.reduction_pct == 0.0
    assert report.original_conv_params == report.refined_conv_params


def test_size_report_split_two():
    ir = parse_network(
        "block p in=3 out=96 k=11x11 group=1 stage=0\n"
        "block q in=96 out=256 k=11x11 group=1 stage=1 prev=p\n"
    )
    plan = plan_of(ir, {"q": PlanEntry(1.0, 2, "a")})
    report = size_report(ir, apply_plan(ir, plan))
    before, after = report.per_block["q"]
    assert after * 2 == before


def test_size_report_stretch_and_split_block():
    # stretch 1.25 with split 2 scales the block by 1.25/2 when the
    # producer is unstretched: a 37.5% reduction on that block
    ir = parse_network(
        "block p in=3 out=96 k=11x11 group=1 stage=0\n"
        "block q in=96 out=256 k=11x11 group=1 stage=1 prev=p\n"
    )
    plan = plan_of(ir, {"q": PlanEntry(1.25, 2, "b")})
    report = size_report(ir, apply_plan(ir, plan))
    before, after = report.per_block["q"]
    assert before == 2_973_696
    assert after == 1_858_560
    assert 100.0 * (1.0 - after / before) == pytest.approx(37.5, abs=1e-12)


def test_exact_multiple_stretch_matches_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(50):
        w0 = int(rng.integers(1, 3)) * 4
        w1 = int(rng.integers(1, 3)) * 4
        ir = chain_ir([w0, w1, 8], kernel=int(rng.integers(1, 4)))
        stretch = float(rng.choice([1.0, 1.5, 2.0]))
        split = int(rng.choice([1, 2]))
        plan = plan_of(ir, {"conv1": PlanEntry(stretch, split, "b")}, lam=0.5)
        refined = apply_plan(ir, plan)
        b = refined.block("conv1")
        if stretch * w1 == b.out_channels:  # no divisibility rounding kicked in
            expected = param_count(ir)["conv1"] * stretch / split
            assert param_count(refined)["conv1"] == expected
        assert param_count(refined)["conv1"] == enumerated_weights(
            b.in_channels, b.out_channels, b.group, b.kernel_h, b.kernel_w
        )


@pytest.mark.filterwarnings("ignore::convrefine.rewriter.WidthRoundingWarning")
@given(st.data())
def test_size_report_totals_are_the_sums_of_its_blocks(data):
    ir = data.draw(networks(max_stages=8))
    lam = 0.25
    plan = plan_of(ir, {
        b.name: PlanEntry(1.0 + lam * data.draw(st.integers(0, 4)),
                          2 ** data.draw(st.integers(0, 2)), "b")
        for b in ir.blocks if not b.excluded
    }, lam=lam)
    refined = apply_plan(ir, plan)
    report = size_report(ir, refined)
    before, after = param_count(ir), param_count(refined)
    assert report.per_block == {name: (n, after[name]) for name, n in before.items()}
    assert report.original_conv_params == sum(b for b, _ in report.per_block.values())
    assert report.refined_conv_params == sum(a for _, a in report.per_block.values())
    assert report.reduction_pct == 100.0 * (
        1.0 - report.refined_conv_params / report.original_conv_params)


def test_report_rendering(tmp_path):
    ir = chain_ir([16, 16, 16])
    plan = plan_of(ir, {"conv1": PlanEntry(1.0, 2, "a")})
    report = size_report(ir, apply_plan(ir, plan))
    text = render_size_report(report)
    assert text.startswith("original_conv_params=")
    assert "block conv1 " in text
    csv = size_report_csv(report)
    lines = csv.splitlines()
    assert lines[0] == "block,before,after,delta_pct"
    assert lines[-1].startswith("TOTAL,")


def test_reports_list_blocks_in_stage_order():
    # (stage, name) order is z, b, a; sorted names would give a, b, z
    ir = parse_network(
        "block a in=8 out=8 k=3x3 group=1 stage=2 prev=b\n"
        "block z in=3 out=8 k=3x3 group=1 stage=0\n"
        "block b in=8 out=8 k=3x3 group=1 stage=1 prev=z\n"
    )
    report = size_report(ir, apply_plan(ir, plan_of(ir, {"b": PlanEntry(1.0, 2, "a")})))
    text_names = [line.split()[1] for line in render_size_report(report).splitlines()[3:]]
    csv_names = [line.split(",")[0] for line in size_report_csv(report).splitlines()[1:-1]]
    assert text_names == csv_names == ["z", "b", "a"]
