import numpy as np
import pytest
from hypothesis import given, strategies as st

from convrefine.netir import ConvBlock, param_count, parse_network, serialize_network
from convrefine.planner import PlanEntry, RefinementPlan
from convrefine.rewriter import (
    RewriteError,
    WidthRoundingWarning,
    apply_plan,
    render_size_report,
    size_report,
    size_report_csv,
)

from conftest import chain_ir, identity_plan, random_ir


def _plan(ir, overrides, lam=0.25):
    entries = {}
    for b in ir.blocks:
        if b.name in overrides:
            entries[b.name] = overrides[b.name]
        else:
            entries[b.name] = PlanEntry(1.0, 1, "x" if b.excluded else "b")
    return RefinementPlan(per_block=entries, lambda_used=lam, lambda_o=0.0)


def test_stretch_by_half():
    ir = chain_ir([64, 64, 64])
    plan = _plan(ir, {"conv1": PlanEntry(1.5, 1, "b")}, lam=0.5)
    refined = apply_plan(ir, plan)
    assert refined.block("conv1").out_channels == 96
    assert refined.block("conv2").in_channels == 96


def test_split_halves_params():
    ir = parse_network(
        "block conv_1 in=3 out=96 k=11x11 group=1 stage=0\n"
        "block conv_2 in=96 out=256 k=11x11 group=1 stage=1 prev=conv_1\n"
    )
    plan = _plan(ir, {"conv_2": PlanEntry(1.0, 2, "a")})
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
    refined = apply_plan(ir, identity_plan(ir))
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
    split2 = _plan(ir, {"conv2": PlanEntry(1.0, 2, "a")})
    once = apply_plan(ir, split2)
    assert once.block("conv2").group == 2
    twice = apply_plan(once, split2)
    assert twice.block("conv2").group == 4
    # applying a plan then the identity equals applying the plan
    assert apply_plan(once, identity_plan(once)) == once


def test_stretch_rounds_up_to_consumer_group():
    # conv1 stretches to 50.4 -> 50, then must stay divisible by the
    # consumer's refined group of 4 -> 52
    ir = chain_ir([8, 42, 8])
    plan = _plan(
        ir,
        {"conv1": PlanEntry(1.2, 1, "b"), "conv2": PlanEntry(1.0, 4, "a")},
        lam=0.2,
    )
    with pytest.warns(WidthRoundingWarning, match="width 50 rounded up to 52"):
        refined = apply_plan(ir, plan)
    assert refined.block("conv1").out_channels == 52
    assert refined.block("conv2").in_channels == 52
    assert refined.block("conv2").group == 4


def test_cannot_split_input_fed_block():
    ir = chain_ir([8, 8])
    plan = _plan(ir, {"conv0": PlanEntry(1.0, 2, "a")})
    with pytest.raises(RewriteError, match="input-fed block"):
        apply_plan(ir, plan)


def test_non_finite_stretched_width_names_block():
    ir = chain_ir([8, 8, 8])
    plan = _plan(ir, {"conv1": PlanEntry(1e308, 1, "b")}, lam=1.0)
    with pytest.raises(RewriteError, match="block conv1: stretched width inf is not finite"):
        apply_plan(ir, plan)


def test_refined_ir_validates_with_concat_consumers():
    ir = parse_network(
        "block a in=3 out=8 k=1x1 group=1 stage=0\n"
        "block b in=3 out=8 k=1x1 group=1 stage=0\n"
        "block mid in=16 out=32 k=3x3 group=1 stage=1 prev=a,b\n"
        "block top in=32 out=16 k=3x3 group=1 stage=2 prev=mid\n"
    )
    plan = _plan(ir, {"mid": PlanEntry(1.25, 2, "b")})
    refined = apply_plan(ir, plan)
    # each producer width must stay divisible by mid's refined group of 2
    assert refined.block("mid").group == 2
    assert refined.block("mid").in_channels == 16
    assert refined.block("mid").out_channels == 40
    assert refined.block("top").in_channels == 40


def test_size_report_identity():
    ir = chain_ir([16, 16, 16])
    report = size_report(ir, apply_plan(ir, identity_plan(ir)))
    assert report.reduction_pct == 0.0
    assert report.original_conv_params == report.refined_conv_params


def test_size_report_split_two():
    ir = parse_network(
        "block p in=3 out=96 k=11x11 group=1 stage=0\n"
        "block q in=96 out=256 k=11x11 group=1 stage=1 prev=p\n"
    )
    plan = _plan(ir, {"q": PlanEntry(1.0, 2, "a")})
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
    plan = _plan(ir, {"q": PlanEntry(1.25, 2, "b")})
    report = size_report(ir, apply_plan(ir, plan))
    before, after = report.per_block["q"]
    assert before == 2_973_696
    assert after == 1_858_560
    assert 100.0 * (1.0 - after / before) == pytest.approx(37.5, abs=1e-12)


def _connection_params(in_ch, out_ch, group, kh, kw):
    per_in = in_ch // group
    per_out = out_ch // group
    weights = 0
    for o in range(out_ch):
        bundle = o // per_out
        for i in range(bundle * per_in, (bundle + 1) * per_in):
            weights += kh * kw
    return weights


def test_exact_multiple_stretch_matches_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(50):
        g_in = int(rng.choice([1, 2]))
        g_out = int(rng.choice([1, 2]))
        w0 = int(rng.integers(1, 3)) * 4
        w1 = int(rng.integers(1, 3)) * 4
        ir = chain_ir([w0, w1, 8], kernel=int(rng.integers(1, 4)))
        stretch = float(rng.choice([1.0, 1.5, 2.0]))
        split = int(rng.choice([1, 2]))
        plan = _plan(ir, {"conv1": PlanEntry(stretch, split, "b")}, lam=0.5)
        refined = apply_plan(ir, plan)
        b = refined.block("conv1")
        if stretch * w1 == b.out_channels:  # no divisibility rounding kicked in
            expected = param_count(ir)["conv1"] * stretch / split
            assert param_count(refined)["conv1"] == expected
        assert param_count(refined)["conv1"] == _connection_params(
            b.in_channels, b.out_channels, b.group, b.kernel_h, b.kernel_w
        )


@pytest.mark.filterwarnings("ignore::convrefine.rewriter.WidthRoundingWarning")
@given(st.integers(0, 2**32 - 1))
def test_size_report_totals_are_the_sums_of_its_blocks(seed):
    rng = np.random.default_rng(seed)
    ir = random_ir(rng)
    lam = 0.25
    plan = _plan(ir, {
        b.name: PlanEntry(1.0 + lam * int(rng.integers(0, 5)), 2 ** int(rng.integers(0, 3)), "b")
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
    plan = _plan(ir, {"conv1": PlanEntry(1.0, 2, "a")})
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
    report = size_report(ir, apply_plan(ir, _plan(ir, {"b": PlanEntry(1.0, 2, "a")})))
    text_names = [line.split()[1] for line in render_size_report(report).splitlines()[3:]]
    csv_names = [line.split(",")[0] for line in size_report_csv(report).splitlines()[1:-1]]
    assert text_names == csv_names == ["z", "b", "a"]
