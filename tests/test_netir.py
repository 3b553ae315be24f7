import dataclasses
import itertools
import math
import re
import time

import oracle
import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from convrefine.netir import (
    ConvBlock,
    IRSyntaxError,
    IRValidationError,
    NetworkIR,
    param_count,
    parse_network,
    serialize_network,
)
from convrefine.planner import PlanEntry, RefinementPlan
from convrefine.rewriter import RewriteError, apply_plan

from conftest import chain_ir, enumerated_weights, network_parts, networks


def test_parse_minimal_block():
    ir = parse_network("block conv1 in=3 out=64 k=3x3 group=1 stage=0\n")
    assert len(ir.blocks) == 1
    assert ir.num_stages == 1
    b = ir.blocks[0]
    assert (b.in_channels, b.out_channels) == (3, 64)
    assert (b.kernel_h, b.kernel_w) == (3, 3)
    assert b.excluded  # single block is both input-fed and terminal


def test_parse_grouped_consumer_chain():
    # 96 x 256 input connections, split into 2 symmetric groups
    ir = parse_network(
        "block conv_1 in=3 out=96 k=11x11 group=1 stage=0\n"
        "block conv_2 in=96 out=256 k=11x11 group=2 stage=1 prev=conv_1\n"
    )
    assert ir.block("conv_2").group == 2
    assert ir.predecessors("conv_2") == ("conv_1",)


def test_group_must_divide_own_out_channels():
    with pytest.raises(IRValidationError, match="does not divide out_channels 256"):
        parse_network(
            "block a in=3 out=96 k=3x3 group=1 stage=0\n"
            "block b in=96 out=256 k=3x3 group=3 stage=1 prev=a\n"
        )


def test_downstream_group_divisibility_error():
    # a group-6 consumer needs 6 to divide both its input width and the
    # producer's out_channels; 256 fails both
    with pytest.raises(IRValidationError, match="group 6"):
        parse_network(
            "block a in=3 out=96 k=3x3 group=1 stage=0\n"
            "block b in=96 out=256 k=3x3 group=2 stage=1 prev=a\n"
            "block c in=256 out=252 k=3x3 group=6 stage=2 prev=b\n"
        )


def test_group_must_divide_in_channels():
    with pytest.raises(IRValidationError, match="does not divide in_channels"):
        parse_network("block a in=3 out=64 k=3x3 group=2 stage=0\n")


def test_serialize_minimal_canonical():
    ir = parse_network("block conv1   in=3  out=64  k=3x3  group=1  stage=0")
    assert serialize_network(ir) == "block conv1 in=3 out=64 k=3x3 group=1 stage=0 excluded\n"


def test_vgg11_roundtrip(vgg11_text):
    ir = parse_network(vgg11_text)
    assert len(ir.blocks) == 8
    text = serialize_network(ir)
    again = parse_network(text)
    assert again == ir
    assert serialize_network(again) == text  # canonical-form idempotence


def test_serialize_byte_stable(vgg11_text):
    ir = parse_network(vgg11_text)
    assert serialize_network(ir) == serialize_network(ir)


def test_parse_syntax_errors_carry_line_numbers():
    with pytest.raises(IRSyntaxError, match="^<ir>:2: "):
        parse_network("# fine\nnode conv1 in=3 out=4 k=1x1 group=1 stage=0\n")
    # a form feed or a line separator inside a line starts no new line
    with pytest.raises(IRSyntaxError, match="^<ir>:3: "):
        parse_network("# page\fbreak \u2028 here\n\nnode conv1 in=3 out=4 k=1x1 group=1 stage=0\n")
    with pytest.raises(IRSyntaxError, match="missing field"):
        parse_network("block conv1 in=3 out=4 k=1x1 stage=0\n")
    with pytest.raises(IRSyntaxError, match="unknown field"):
        parse_network("block conv1 in=3 out=4 k=1x1 group=1 stage=0 pad=1\n")
    with pytest.raises(IRSyntaxError, match="unsigned integer"):
        parse_network("block conv1 in=-3 out=4 k=1x1 group=1 stage=0\n")
    with pytest.raises(IRSyntaxError, match="k expects"):
        parse_network("block conv1 in=3 out=4 k=3 group=1 stage=0\n")
    with pytest.raises(IRSyntaxError, match="duplicate"):
        parse_network("block conv1 in=3 in=3 out=4 k=1x1 group=1 stage=0\n")
    with pytest.raises(IRSyntaxError, match="^<ir>:1: prev expects block names joined by ',',"
                                            " got 'a,,b'$"):
        parse_network("block c in=3 out=4 k=1x1 group=1 stage=1 prev=a,,b\n")


def test_validation_errors():
    with pytest.raises(IRValidationError, match="unknown block"):
        parse_network("block a in=3 out=4 k=1x1 group=1 stage=0 prev=ghost\n")
    with pytest.raises(IRValidationError, match="duplicate block name"):
        parse_network(
            "block a in=3 out=4 k=1x1 group=1 stage=0\n"
            "block a in=4 out=4 k=1x1 group=1 stage=1 prev=a\n"
        )
    with pytest.raises(IRValidationError, match="in_channels 8 != 4"):
        parse_network(
            "block a in=3 out=4 k=1x1 group=1 stage=0\n"
            "block b in=8 out=4 k=1x1 group=1 stage=1 prev=a\n"
        )
    with pytest.raises(IRValidationError, match="advance the stage order"):
        NetworkIR(
            [
                ConvBlock("a", 3, 4, 1, 1, stage=0, excluded=True),
                ConvBlock("b", 4, 4, 1, 1, stage=0, excluded=True),
            ],
            [("a", "b")],
        )


def test_concat_in_channels():
    ir = parse_network(
        "block a in=3 out=8 k=1x1 group=1 stage=0\n"
        "block b in=3 out=24 k=1x1 group=1 stage=0\n"
        "block c in=32 out=16 k=3x3 group=1 stage=1 prev=a,b\n"
    )
    assert ir.predecessors("c") == ("a", "b")
    assert ir.block("c").in_channels == 32


def test_stage_gap_rejected():
    with pytest.raises(IRValidationError,
                       match=r"^<ir>: stage indices must cover 0\.\.3 exactly \(missing \[2\]\)$"):
        parse_network(
            "block a in=3 out=4 k=1x1 group=1 stage=0\n"
            "block b in=4 out=4 k=1x1 group=1 stage=1 prev=a\n"
            "block c in=4 out=4 k=1x1 group=1 stage=3 prev=b\n"
        )


@pytest.mark.parametrize("stage", [2**32 - 1, 10**30], ids=["u32-max", "1e30"])
def test_huge_stage_gap_is_refused_at_once(stage):
    # as many missing stages as blocks are listed, then a count of the rest
    text = ("block a in=3 out=4 k=1x1 group=1 stage=0\n"
            f"block b in=4 out=4 k=1x1 group=1 stage={stage} prev=a\n")
    start = time.perf_counter()
    with pytest.raises(IRValidationError) as err:
        parse_network(text)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (f"<ir>: stage indices must cover 0..{stage} exactly"
                              f" (missing [1, 2] and {stage - 3} more)")


def test_programmatic_construction_derives_exclusion_flags():
    # conv0 is input-fed and conv3 terminal; the flag given to conv1 adds to them
    given = [ConvBlock(f"conv{i}", 3 if i == 0 else 8, 8, 3, 3, stage=i, excluded=i == 1)
             for i in range(4)]
    ir = NetworkIR(given, [(f"conv{i}", f"conv{i + 1}") for i in range(3)])
    assert [b.excluded for b in ir.blocks] == [True, True, False, True]
    assert ir.blocks[1] is given[1] and ir.blocks[2] is given[2]  # no flag to add, no new block
    assert dataclasses.replace(ir, blocks=given) == ir
    assert parse_network(serialize_network(ir), "rt.ir") == ir


def test_analysis_sequence_linear_chain():
    ir = chain_ir([8] * 8)
    assert [(b.stage, b.name) for b in ir.blocks] == [(i, f"conv{i}") for i in range(8)]
    # blocks come out in (stage, name) order whatever order they are given in
    assert NetworkIR(tuple(reversed(ir.blocks)), ir.edges).blocks == ir.blocks


def test_analysis_sequence_inception(inception_text):
    ir = parse_network(inception_text)
    assert [(b.stage, b.name) for b in ir.blocks] == [
        (0, "incep_1x1"), (0, "incep_3x3r"), (0, "incep_5x5r"),
        (1, "incep_3x3"), (1, "incep_5x5"), (1, "incep_pool"),
    ]
    # all six blocks belong to the trailing unit and are excluded
    assert all(b.excluded for b in ir.blocks)


def test_analysis_sequence_retains_excluded_blocks(vgg11_text):
    ir = parse_network(vgg11_text)
    assert [b.stage for b in ir.blocks] == list(range(8))
    flags = {b.name: b.excluded for b in ir.blocks}
    assert flags["conv1_1"] and flags["conv5_2"]
    assert not flags["conv3_1"]


def _block_count(block):
    """param_count of ``block`` alone, as a one-block IR."""
    return param_count(NetworkIR([block], []))[block.name]


def test_param_count_group_anchor():
    dense = ConvBlock("c", 96, 256, 11, 11, group=1, stage=0, excluded=True)
    halved = ConvBlock("c", 96, 256, 11, 11, group=2, stage=0, excluded=True)
    assert _block_count(dense) == 2_973_696
    assert _block_count(halved) == 1_486_848
    assert _block_count(dense) == enumerated_weights(96, 256, 1, 11, 11)
    assert _block_count(halved) == enumerated_weights(96, 256, 2, 11, 11)


def test_param_count_bias():
    b = ConvBlock("c", 3, 1, 1, 1, group=1, stage=0, has_bias=True, excluded=True)
    assert _block_count(b) == 4


def test_param_count_totals(vgg11_text):
    ir = parse_network(vgg11_text)
    counts = param_count(ir)
    assert list(counts) == [b.name for b in ir.blocks]
    assert counts["conv1_1"] == 3 * 64 * 9 + 64


@given(
    in_per_group=st.integers(1, 8),
    out_per_group=st.integers(1, 8),
    group=st.integers(1, 6),
    kh=st.integers(1, 5),
    kw=st.integers(1, 5),
)
def test_param_count_scales_exactly_with_group(in_per_group, out_per_group, group, kh, kw):
    in_ch = in_per_group * group
    out_ch = out_per_group * group
    grouped = ConvBlock("c", in_ch, out_ch, kh, kw, group=group, stage=0, excluded=True)
    dense = ConvBlock("c", in_ch, out_ch, kh, kw, group=1, stage=0, excluded=True)
    assert _block_count(dense) % group == 0
    assert _block_count(grouped) == _block_count(dense) // group
    assert _block_count(grouped) == enumerated_weights(in_ch, out_ch, group, kh, kw)


def _assert_lookups_match_scan(ir, names):
    # the reference: a plain scan of the canonical tuples, which the index
    # must reproduce exactly, order included
    for name in names:
        assert ir.predecessors(name) == tuple(p for p, c in ir.edges if c == name)
        assert ir.consumers(name) == tuple(c for p, c in ir.edges if p == name)
        scanned = [b for b in ir.blocks if b.name == name]
        if scanned:
            assert ir.block(name) is scanned[0]
        else:
            with pytest.raises(KeyError):
                ir.block(name)


@given(network_parts())
def test_index_matches_scan_on_random_dags(parts):
    blocks, edges = parts
    ir = NetworkIR(blocks, edges)
    # blocks in (stage, name) order; edges grouped by consumer in block order,
    # each consumer's producers in the order they were handed over
    assert [(b.stage, b.name) for b in ir.blocks] == sorted((b.stage, b.name) for b in blocks)
    assert ir.edges == tuple((p, b.name) for b in ir.blocks for p, c in edges if c == b.name)
    # excluded: the flags given, and the blocks bench/oracle.py excludes by structure
    handed = [oracle.IRBlock(*dataclasses.astuple(b), [p for p, c in edges if c == b.name])
              for b in blocks]
    assert {b.name for b in ir.blocks if b.excluded} == \
        oracle.structural_exclusions(handed) | {b.name for b in blocks if b.excluded}
    _assert_lookups_match_scan(ir, [b.name for b in ir.blocks] + ["ghost"])


def _stage_sizes(ir):
    return [sum(b.stage == s for b in ir.blocks) for s in range(ir.num_stages)]


def _coprime_consumer_groups(ir):
    return any(math.gcd(x, y) == 1 < min(x, y) for b in ir.blocks for x, y in
               itertools.combinations([ir.block(c).group for c in ir.consumers(b.name)], 2))


GRAPH_FAMILIES = {
    "concatenation": lambda ir, parts: any(len(ir.predecessors(b.name)) > 1 for b in ir.blocks),
    "skipped-stage": lambda ir, parts: any(ir.block(c).stage > ir.block(p).stage + 1
                                           for p, c in ir.edges),
    "coprime-groups": lambda ir, parts: _coprime_consumer_groups(ir),
    "inception-end": lambda ir, parts: min(_stage_sizes(ir)[-2:]) > 1 < ir.num_stages,
    # a flag that no structural rule would set
    "explicit-exclusion": lambda ir, parts: any(b.excluded and ir.predecessors(b.name)
                                                and b.stage < ir.num_stages - 2
                                                for b in ir.blocks),
    "non-canonical-order": lambda ir, parts: ([b.name for b in parts[0]]
                                              != [b.name for b in ir.blocks]
                                              and tuple(parts[1]) != ir.edges),
}


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_networks_reach_every_graph_family(family):
    has = GRAPH_FAMILIES[family]
    find(network_parts(), lambda parts: has(NetworkIR(*parts), parts),  # any example will do
         settings=settings(max_examples=2000, database=None, phases=[Phase.generate]))


@pytest.mark.parametrize("fixture", ["vgg11_text", "inception_text"])
def test_index_matches_scan_on_fixtures(fixture, request):
    ir = parse_network(request.getfixturevalue(fixture))
    _assert_lookups_match_scan(ir, [b.name for b in ir.blocks] + ["ghost"])


@pytest.mark.parametrize(
    "blocks, edges, message",
    [
        # an edge into an unknown block
        (
            [ConvBlock("a", 3, 4, 1, 1, stage=0, excluded=True),
             ConvBlock("b", 4, 4, 1, 1, stage=1, excluded=True)],
            [("a", "b"), ("b", "ghost"), ("a", "ghost")],
            "edge (b, ghost) names an unknown block",
        ),
        # the same name twice
        (
            [ConvBlock("a", 3, 4, 1, 1, stage=1, excluded=True),
             ConvBlock("a", 3, 8, 1, 1, stage=0, excluded=True)],
            [],
            "duplicate block name 'a'",
        ),
        # the same edge twice
        (
            [ConvBlock("a", 3, 4, 1, 1, stage=0, excluded=True),
             ConvBlock("b", 8, 4, 1, 1, stage=1, excluded=True)],
            [("a", "b"), ("a", "b")],
            "duplicate edge (a, b)",
        ),
        # a name its own IR text could not carry: "$" matches before a final newline
        (
            [ConvBlock("a\n", 3, 8, 3, 3, excluded=True),
             ConvBlock("b", 8, 8, 3, 3, stage=1, excluded=True)],
            [("a\n", "b")],
            "invalid block name 'a\\n'",
        ),
        # a width of zero; a stage before the first
        ([ConvBlock("a", 0, 4, 1, 1, excluded=True)], [],
         "block a: in_channels must be positive, got 0"),
        ([ConvBlock("a", 3, 4, 1, 1, stage=-1, excluded=True)], [],
         "block a: stage must be non-negative"),
        # a group that divides the concatenated width but not one producer's
        (
            [ConvBlock("a", 3, 3, 1, 1, excluded=True),
             ConvBlock("b", 3, 3, 1, 1, excluded=True),
             ConvBlock("c", 6, 4, 1, 1, group=2, stage=1, excluded=True)],
            [("a", "c"), ("b", "c")],
            "block c: group 2 does not divide out_channels 3 of predecessor a",
        ),
    ],
)
def test_invalid_irs_index_like_a_scan_and_are_rejected(blocks, edges, message):
    # an invalid IR is rejected when it is built, so it is never indexed
    with pytest.raises(IRValidationError, match=re.escape(message)):
        NetworkIR(blocks, edges)


def test_replace_validates_the_new_ir():
    ir = chain_ir([8, 8, 8])
    with pytest.raises(IRValidationError, match=re.escape(
        "edge (conv2, conv0) does not advance the stage order (2 -> 0)"
    )):
        dataclasses.replace(ir, edges=ir.edges + (("conv2", "conv0"),))


def test_replace_builds_a_fresh_index():
    ir = chain_ir([8, 8, 8])
    wider = tuple(dataclasses.replace(b, out_channels=16) if b.name == "conv2" else b
                  for b in ir.blocks)
    rebuilt = dataclasses.replace(ir, blocks=wider, edges=ir.edges[:1])
    assert rebuilt.block("conv2").out_channels == 16
    assert ir.block("conv2").out_channels == 8
    assert rebuilt.predecessors("conv2") == ()
    assert ir.predecessors("conv2") == ("conv1",)
    assert rebuilt.consumers("conv1") == ()
    # the index takes no part in equality, hashing or repr
    assert dataclasses.replace(ir) == ir
    assert hash(dataclasses.replace(ir)) == hash(ir)
    assert "_by_name" not in repr(ir)


@pytest.mark.parametrize("field, label", [
    ("in", "in_channels"), ("out", "out_channels"), ("kh", "kernel_h"), ("group", "group"),
])
def test_fields_beyond_u32_rejected(field, label):
    line = "block a in={in} out={out} k={kh}x1 group={group} stage=0"
    ones = {"in": 1, "out": 1, "kh": 1, "group": 1}
    parse_network(line.format(**dict.fromkeys(ones, 2**32 - 1)))  # the largest u32 is fine
    with pytest.raises(
        IRValidationError, match=f"block a: {label} 4294967296 does not fit in a u32"
    ):
        parse_network(line.format(**{**ones, field: 2**32}))


@st.composite
def plans_for(draw, ir):
    """A plan for ``ir``: power-of-two splits, stretches 1 + k*lambda.

    In about one plan in four, a split or a stretch may be large enough to
    leave the u32 bound of the refined IR; the rest always fit, so that
    most plans are built and checked.
    """
    lam = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    exponents, steps = st.integers(0, 3), st.integers(0, 6)
    if draw(st.integers(0, 3)) == 0:
        exponents, steps = exponents | st.just(33), steps | st.integers(2**32, 2**34)
    entries = {}
    for b in ir.blocks:
        if b.excluded:
            entries[b.name] = PlanEntry(1.0, 1, "x")
            continue
        split = 1 << draw(exponents)
        case = draw(st.sampled_from("ab"))
        k = 0 if case == "a" else draw(steps)
        entries[b.name] = PlanEntry(1.0 + k * lam, split, case)
    return RefinementPlan(entries, lambda_used=lam, lambda_o=0.0)


@pytest.mark.filterwarnings("ignore::convrefine.rewriter.WidthRoundingWarning")
@given(st.data())
def test_apply_plan_builds_what_full_construction_builds(data):
    # a refined IR is built and validated like any other: it keeps the
    # source's edges and blocks but for widths and groups, and indexes them
    ir = data.draw(networks())
    plan = data.draw(plans_for(ir))
    try:
        got = apply_plan(ir, plan)
    except (RewriteError, IRValidationError) as exc:
        # only a size past the u32 bound, or a stretch past float range, refuses
        # a plan of plans_for; any other refusal is a refined IR built wrong
        assert re.search(r"does not fit in a u32$|stretched width \S+ is not finite$",
                         str(exc)), exc
        return
    assert got.edges == ir.edges
    for b in ir.blocks:
        refined = got.block(b.name)
        assert dataclasses.replace(refined, in_channels=b.in_channels,
                                   out_channels=b.out_channels, group=b.group) == b
    _assert_lookups_match_scan(got, [b.name for b in ir.blocks] + ["ghost"])
