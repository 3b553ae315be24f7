"""Graph IR for convolutional architectures.

Only convolutional blocks are modelled; pooling/activation layers that sit
between them are abstracted by the edges.  Every block carries a stage index
(its position in the analysis sequence) and an exclusion flag; statistics and
refinement passes traverse blocks in stage order.

Text format, one block per line, fields in exactly this order::

    block <name> in=<u32> out=<u32> k=<u32>x<u32> group=<u32> stage=<u32> [bias] [excluded] prev=<name>[,<name>...]

Lines starting with ``#`` are comments.  ``prev=`` is omitted for blocks fed
directly by the network input.  A block with several predecessors consumes
their channel concatenation, in the order the ``prev=`` list gives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace


class IRSyntaxError(ValueError):
    """Malformed IR text.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IRValidationError(ValueError):
    """Well-formed IR text that violates a structural invariant."""


_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
_KERNEL_RE = re.compile(r"(\d+)x(\d+)$")
_UINT_RE = re.compile(r"\d+$")
_U32_MAX = 2**32 - 1


@dataclass(frozen=True)
class ConvBlock:
    """One convolutional block.

    ``out_channels`` is the block's number of hidden units; ``group`` is the
    symmetric-split factor already applied to its inputs (1 = dense).
    ``excluded`` marks blocks the refinement analysis must leave untouched.
    """

    name: str
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    group: int = 1
    stage: int = 0
    has_bias: bool = False
    excluded: bool = False


@dataclass(frozen=True)
class NetworkIR:
    """A validated-on-demand DAG of conv blocks.

    Blocks are kept in canonical (stage, name) order; edges are kept grouped
    by consumer, preserving the per-consumer predecessor order because that
    order defines how input channels concatenate.  The lookup index is built
    once from the canonical blocks and edges and takes no part in equality,
    hashing or repr.
    """

    blocks: tuple[ConvBlock, ...]
    edges: tuple[tuple[str, str], ...]
    num_stages: int
    _by_name: dict = field(init=False, repr=False, compare=False)
    _preds: dict = field(init=False, repr=False, compare=False)
    _consumers: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda b: (b.stage, b.name)))
        by_name: dict[str, ConvBlock] = {}
        for b in blocks:
            by_name.setdefault(b.name, b)  # a scan finds the first of a duplicated name
        grouped: dict[str, list[str]] = {}
        for producer, consumer in self.edges:
            grouped.setdefault(consumer, []).append(producer)
        edges = tuple(
            (p, b.name) for b in blocks for p in grouped.get(b.name, ())
        )
        # any edge whose consumer is unknown would be silently dropped above;
        # keep it so validation can reject it
        edges += tuple(e for e in self.edges if e[1] not in by_name)
        # index the canonical edges themselves, so lookups return exactly
        # what a scan of them would, stray and repeated edges included
        preds: dict[str, list[str]] = {}
        consumers: dict[str, list[str]] = {}
        for producer, consumer in edges:
            preds.setdefault(consumer, []).append(producer)
            consumers.setdefault(producer, []).append(consumer)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_preds", {k: tuple(v) for k, v in preds.items()})
        object.__setattr__(self, "_consumers", {k: tuple(v) for k, v in consumers.items()})

    def block(self, name: str) -> ConvBlock:
        return self._by_name[name]

    def predecessors(self, name: str) -> tuple[str, ...]:
        return self._preds.get(name, ())

    def consumers(self, name: str) -> tuple[str, ...]:
        return self._consumers.get(name, ())


@dataclass(frozen=True, eq=False)
class ParamCount:
    per_block: dict[str, int]
    conv_total: int


def make_network(blocks, edges) -> NetworkIR:
    """Assemble and validate a NetworkIR, computing num_stages."""
    blocks = tuple(blocks)
    num_stages = max((b.stage for b in blocks), default=-1) + 1
    ir = NetworkIR(blocks, tuple(edges), num_stages)
    validate_network(ir)
    return ir


def auto_excluded(blocks, edges) -> set[str]:
    """Names of blocks the analysis must skip, derived from structure.

    Skipped are: blocks fed by the network input (no predecessor), blocks in
    the final stage, and — when the final two stages both hold several blocks,
    i.e. the network ends in an inception-style unit — the penultimate stage
    as well.
    """
    consumers = {c for _, c in edges}
    out = {b.name for b in blocks if b.name not in consumers}
    if not blocks:
        return out
    last = max(b.stage for b in blocks)
    by_stage: dict[int, list] = {}
    for b in blocks:
        by_stage.setdefault(b.stage, []).append(b)
    out.update(b.name for b in by_stage.get(last, ()))
    if last >= 1 and len(by_stage.get(last, ())) >= 2 and len(by_stage.get(last - 1, ())) >= 2:
        out.update(b.name for b in by_stage[last - 1])
    return out


def validate_network(ir: NetworkIR) -> None:
    """Raise IRValidationError naming the first violated invariant."""
    if not ir.blocks:
        raise IRValidationError("network has no blocks")
    by_name: dict[str, ConvBlock] = {}
    for b in ir.blocks:
        if b.name in by_name:
            raise IRValidationError(f"duplicate block name {b.name!r}")
        by_name[b.name] = b
    for b in ir.blocks:
        if not _NAME_RE.match(b.name):
            raise IRValidationError(f"invalid block name {b.name!r}")
        for label, v in (
            ("in_channels", b.in_channels),
            ("out_channels", b.out_channels),
            ("kernel_h", b.kernel_h),
            ("kernel_w", b.kernel_w),
            ("group", b.group),
        ):
            if v < 1:
                raise IRValidationError(f"block {b.name}: {label} must be positive, got {v}")
            if v > _U32_MAX:
                raise IRValidationError(f"block {b.name}: {label} {v} does not fit in a u32")
        if b.stage < 0:
            raise IRValidationError(f"block {b.name}: stage must be non-negative")

    seen_edges = set()
    for producer, consumer in ir.edges:
        if producer not in by_name or consumer not in by_name:
            raise IRValidationError(f"edge ({producer}, {consumer}) names an unknown block")
        if (producer, consumer) in seen_edges:
            raise IRValidationError(f"duplicate edge ({producer}, {consumer})")
        seen_edges.add((producer, consumer))
        # stage strictly increases along every edge, so the graph is acyclic
        if by_name[producer].stage >= by_name[consumer].stage:
            raise IRValidationError(
                f"edge ({producer}, {consumer}) does not advance the stage order"
                f" ({by_name[producer].stage} -> {by_name[consumer].stage})"
            )

    stages = {b.stage for b in ir.blocks}
    if stages != set(range(ir.num_stages)):
        missing = sorted(set(range(ir.num_stages)) - stages)
        extra = sorted(stages - set(range(ir.num_stages)))
        raise IRValidationError(
            f"stage indices must cover 0..{ir.num_stages - 1} exactly"
            f" (missing {missing}, out of range {extra})"
        )

    for b in ir.blocks:
        preds = [by_name[p] for p in ir.predecessors(b.name)]
        if preds:
            fed = sum(p.out_channels for p in preds)
            if b.in_channels != fed:
                raise IRValidationError(
                    f"block {b.name}: in_channels {b.in_channels} != {fed},"
                    f" the concatenated width of {[p.name for p in preds]}"
                )
        if b.in_channels % b.group:
            raise IRValidationError(
                f"block {b.name}: group {b.group} does not divide in_channels {b.in_channels}"
            )
        if b.out_channels % b.group:
            raise IRValidationError(
                f"block {b.name}: group {b.group} does not divide out_channels {b.out_channels}"
            )
        for p in preds:
            if p.out_channels % b.group:
                raise IRValidationError(
                    f"block {b.name}: group {b.group} does not divide out_channels"
                    f" {p.out_channels} of predecessor {p.name}"
                )

    must_exclude = auto_excluded(ir.blocks, ir.edges)
    for name in sorted(must_exclude):
        if not by_name[name].excluded:
            raise IRValidationError(
                f"block {name} is terminal or input-fed and must carry the excluded flag"
            )


def _parse_uint(line_no: int, key: str, raw: str) -> int:
    if not _UINT_RE.match(raw):
        raise IRSyntaxError(line_no, f"{key} expects an unsigned integer, got {raw!r}")
    return int(raw)


def parse_network(text: str) -> NetworkIR:
    """Parse IR text into a validated NetworkIR.

    Exclusion flags are the union of explicit ``excluded`` tokens and the
    structural rules of :func:`auto_excluded`; explicit flags can only add
    exclusions, never remove the structural ones.
    """
    blocks = []
    edges = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] != "block":
            raise IRSyntaxError(line_no, f"expected 'block', got {tokens[0]!r}")
        if len(tokens) < 2:
            raise IRSyntaxError(line_no, "missing block name")
        name = tokens[1]
        if not _NAME_RE.match(name):
            raise IRSyntaxError(line_no, f"invalid block name {name!r}")
        fields: dict[str, int] = {}
        kernel = None
        bias = False
        excluded = False
        prev: list[str] = []
        for tok in tokens[2:]:
            if tok == "bias":
                if bias:
                    raise IRSyntaxError(line_no, "duplicate 'bias' flag")
                bias = True
            elif tok == "excluded":
                if excluded:
                    raise IRSyntaxError(line_no, "duplicate 'excluded' flag")
                excluded = True
            elif "=" in tok:
                key, _, value = tok.partition("=")
                if key in ("in", "out", "group", "stage"):
                    if key in fields:
                        raise IRSyntaxError(line_no, f"duplicate field {key}=")
                    fields[key] = _parse_uint(line_no, key, value)
                elif key == "k":
                    if kernel is not None:
                        raise IRSyntaxError(line_no, "duplicate field k=")
                    m = _KERNEL_RE.match(value)
                    if not m:
                        raise IRSyntaxError(line_no, f"k expects <u32>x<u32>, got {value!r}")
                    kernel = (int(m.group(1)), int(m.group(2)))
                elif key == "prev":
                    if prev:
                        raise IRSyntaxError(line_no, "duplicate field prev=")
                    prev = value.split(",")
                    if not all(_NAME_RE.match(p) for p in prev):
                        raise IRSyntaxError(line_no, f"bad prev list {value!r}")
                else:
                    raise IRSyntaxError(line_no, f"unknown field {key!r}")
            else:
                raise IRSyntaxError(line_no, f"unexpected token {tok!r}")
        missing = [k for k in ("in", "out", "group", "stage") if k not in fields]
        if kernel is None:
            missing.insert(2, "k")
        if missing:
            raise IRSyntaxError(line_no, f"missing field(s): {', '.join(missing)}")
        blocks.append(
            ConvBlock(
                name=name,
                in_channels=fields["in"],
                out_channels=fields["out"],
                kernel_h=kernel[0],
                kernel_w=kernel[1],
                group=fields["group"],
                stage=fields["stage"],
                has_bias=bias,
                excluded=excluded,
            )
        )
        edges.extend((p, name) for p in prev)

    flagged = auto_excluded(blocks, edges)
    blocks = [
        b if (b.excluded or b.name not in flagged) else replace(b, excluded=True)
        for b in blocks
    ]
    return make_network(blocks, edges)


def serialize_network(ir: NetworkIR) -> str:
    """Render an IR in canonical text form.

    Blocks are emitted in (stage, name) order with fields in the fixed
    grammar order, so equal IRs always serialize to identical bytes.
    """
    lines = []
    for b in ir.blocks:
        parts = [
            f"block {b.name}",
            f"in={b.in_channels}",
            f"out={b.out_channels}",
            f"k={b.kernel_h}x{b.kernel_w}",
            f"group={b.group}",
            f"stage={b.stage}",
        ]
        if b.has_bias:
            parts.append("bias")
        if b.excluded:
            parts.append("excluded")
        preds = ir.predecessors(b.name)
        if preds:
            parts.append("prev=" + ",".join(preds))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def block_params(block: ConvBlock) -> int:
    """Weights (plus bias terms) of one block.

    A group factor g keeps only the g diagonal input/output channel bundles
    connected, so the dense weight count divides exactly by g.
    """
    if block.in_channels % block.group:
        raise IRValidationError(
            f"block {block.name}: group {block.group} does not divide"
            f" in_channels {block.in_channels}"
        )
    n = (block.in_channels // block.group) * block.kernel_h * block.kernel_w * block.out_channels
    if block.has_bias:
        n += block.out_channels
    return n


def param_count(ir: NetworkIR) -> ParamCount:
    per_block = {b.name: block_params(b) for b in ir.blocks}
    return ParamCount(per_block=per_block, conv_total=sum(per_block.values()))
