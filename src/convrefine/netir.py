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
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain, islice
from pathlib import Path


class IRSyntaxError(ValueError):
    """Malformed IR text, reported as ``<source>:<line>: <message>``."""


class IRValidationError(ValueError):
    """Well-formed IR text that violates a structural invariant."""


_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*")
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
    """A validated DAG of conv blocks.

    Construction raises IRValidationError naming the first invariant the
    blocks and edges violate, then sets the excluded flag on the blocks the
    analysis must skip: those fed by the network input, the final stage,
    and the penultimate stage too when both hold several blocks, i.e. the
    network ends in an inception-style unit.  A flag given can only add
    exclusions.
    Blocks are kept in canonical (stage, name) order; edges are kept
    grouped by consumer, preserving the per-consumer predecessor order
    because that order defines how input channels concatenate.  The lookup
    index is built once from the canonical blocks and edges and takes no
    part in equality, hashing or repr.
    """

    blocks: tuple[ConvBlock, ...]
    edges: tuple[tuple[str, str], ...]
    _by_name: dict = field(init=False, repr=False, compare=False)
    _preds: dict = field(init=False, repr=False, compare=False)
    _consumers: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda b: (b.stage, b.name)))
        preds = validate_network(blocks, tuple(self.edges))
        edges = tuple((p, b.name) for b in blocks for p in preds.get(b.name, ()))
        consumers: dict[str, list[str]] = {}
        for producer, consumer in edges:
            consumers.setdefault(producer, []).append(consumer)
        last = blocks[-1].stage
        sizes = Counter(b.stage for b in blocks)
        tail = last - 1 if sizes[last] >= 2 and sizes[last - 1] >= 2 else last
        blocks = tuple(replace(b, excluded=True)
                       if not b.excluded and (b.stage >= tail or b.name not in preds) else b
                       for b in blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_by_name", {b.name: b for b in blocks})
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_consumers", {k: tuple(v) for k, v in consumers.items()})

    @property
    def num_stages(self) -> int:
        return self.blocks[-1].stage + 1

    def block(self, name: str) -> ConvBlock:
        return self._by_name[name]

    def predecessors(self, name: str) -> tuple[str, ...]:
        return self._preds.get(name, ())

    def consumers(self, name: str) -> tuple[str, ...]:
        return self._consumers.get(name, ())


def validate_network(blocks, edges) -> dict[str, tuple[str, ...]]:
    """Raise IRValidationError naming the first violated invariant.

    ``blocks`` are in (stage, name) order.  Returns the predecessors of each
    block that has any, in the order ``edges`` lists them.  A block with
    predecessors reads their concatenated width, and its group divides its
    in_channels, its out_channels and each predecessor's out_channels.
    """
    if not blocks:
        raise IRValidationError("network has no blocks")
    by_name: dict[str, ConvBlock] = {}
    for b in blocks:
        if b.name in by_name:
            raise IRValidationError(f"duplicate block name {b.name!r}")
        by_name[b.name] = b
    for b in blocks:
        if not _NAME_RE.fullmatch(b.name):
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
    grouped: dict[str, list[str]] = {}
    for producer, consumer in edges:
        if producer not in by_name or consumer not in by_name:
            raise IRValidationError(f"edge ({producer}, {consumer}) names an unknown block")
        if (producer, consumer) in seen_edges:
            raise IRValidationError(f"duplicate edge ({producer}, {consumer})")
        seen_edges.add((producer, consumer))
        grouped.setdefault(consumer, []).append(producer)
        # stage strictly increases along every edge, so the graph is acyclic
        if by_name[producer].stage >= by_name[consumer].stage:
            raise IRValidationError(
                f"edge ({producer}, {consumer}) does not advance the stage order"
                f" ({by_name[producer].stage} -> {by_name[consumer].stage})"
            )

    # stages are non-negative, so none lies beyond the last block's; as a
    # stage may be huge, the first missing ones are read off the gaps
    stages = sorted({b.stage for b in blocks})
    count = stages[-1] + 1 - len(stages)
    if count:
        gaps = chain.from_iterable(range(lo + 1, hi) for lo, hi in zip([-1, *stages], stages))
        missing = list(islice(gaps, len(blocks)))
        more = f" and {count - len(missing)} more" if count > len(missing) else ""
        raise IRValidationError(
            f"stage indices must cover 0..{stages[-1]} exactly (missing {missing}{more})"
        )

    preds = {k: tuple(v) for k, v in grouped.items()}
    for b in blocks:
        fed_by = [by_name[p] for p in preds.get(b.name, ())]
        if fed_by:
            fed = sum(p.out_channels for p in fed_by)
            if b.in_channels != fed:
                raise IRValidationError(
                    f"block {b.name}: in_channels {b.in_channels} != {fed},"
                    f" the concatenated width of {[p.name for p in fed_by]}"
                )
        if b.in_channels % b.group:
            raise IRValidationError(
                f"block {b.name}: group {b.group} does not divide in_channels {b.in_channels}"
            )
        if b.out_channels % b.group:
            raise IRValidationError(
                f"block {b.name}: group {b.group} does not divide out_channels {b.out_channels}"
            )
        for p in fed_by:
            if p.out_channels % b.group:
                raise IRValidationError(
                    f"block {b.name}: group {b.group} does not divide out_channels"
                    f" {p.out_channels} of predecessor {p.name}"
                )
    return preds


def read_text(path, error=ValueError) -> str:
    """The UTF-8 text of ``path``; undecodable bytes raise ``error`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from None


def _read_records(text: str, source, error, handlers) -> None:
    """Hand the tokens of each line of ``text`` to ``handlers[key]``.

    The key is the first token, or the ``key=`` that starts it; blank and
    ``#`` lines are skipped.  An unknown key and a handler's ValueError raise
    ``error`` reading ``<source>:<line>: <message>``.  Lines end at ``\n``
    only, so a form feed or a Unicode line separator moves no line number.
    """
    for line_no, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        key, eq, _ = tokens[0].partition("=")
        try:
            if key + eq not in handlers:
                raise ValueError(f"unrecognized line {line.strip()!r}")
            handlers[key + eq](tokens)
        except ValueError as exc:
            raise error(f"{source}:{line_no}: {exc}") from None


def _parse_fields(tokens, fields, optional=()) -> dict:
    """The ``key=value`` tokens and bare flags of one record, by key.

    ``fields`` maps each key to the converter of its text value, or to None
    for a bare flag, which reads as True.  Flags and ``optional`` keys may be
    left out; the others are required.  Unknown, duplicate and missing keys
    and refused values raise ValueError, a converter's message after its key.
    """
    values = {}
    for tok in tokens:
        key, eq, raw = tok.partition("=")
        if key not in fields or (fields[key] is None) == bool(eq):
            raise ValueError(f"unknown field {key!r}" if eq else f"unexpected token {tok!r}")
        if key in values:
            raise ValueError(f"duplicate {key!r}")
        convert = fields[key]
        try:
            values[key] = True if convert is None else convert(raw)
        except ValueError as exc:
            raise ValueError(f"{key} {exc}") from None
    missing = [k for k, c in fields.items() if c and k not in values and k not in optional]
    if missing:
        raise ValueError(f"missing field(s): {', '.join(missing)}")
    return values


def _block_name(tokens) -> str:
    name = tokens[1] if len(tokens) > 1 else ""
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid block name {name!r}")
    return name


def _uint(raw: str) -> int:
    if not raw.isdecimal():
        raise ValueError(f"expects an unsigned integer, got {raw!r}")
    return int(raw)


def _kernel(raw: str) -> tuple[int, int]:
    h, _, w = raw.partition("x")
    if not (h.isdecimal() and w.isdecimal()):
        raise ValueError(f"expects <u32>x<u32>, got {raw!r}")
    return int(h), int(w)


def _names(raw: str) -> list[str]:
    names = raw.split(",")
    if not all(_NAME_RE.fullmatch(n) for n in names):
        raise ValueError(f"expects block names joined by ',', got {raw!r}")
    return names


_BLOCK_FIELDS = {
    "in": _uint, "out": _uint, "k": _kernel, "group": _uint, "stage": _uint,
    "bias": None, "excluded": None, "prev": _names,
}


def parse_network(text: str, source="<ir>") -> NetworkIR:
    """Parse IR text into a validated NetworkIR; errors name ``source``.

    An ``excluded`` token adds to the exclusions NetworkIR derives.
    """
    blocks = []
    edges = []

    def block(tokens):
        name = _block_name(tokens)
        f = _parse_fields(tokens[2:], _BLOCK_FIELDS, optional=("prev",))
        blocks.append(ConvBlock(name, f["in"], f["out"], *f["k"], f["group"], f["stage"],
                                "bias" in f, "excluded" in f))
        edges.extend((p, name) for p in f.get("prev", ()))

    _read_records(text, source, IRSyntaxError, {"block": block})
    try:
        return NetworkIR(blocks, edges)
    except IRValidationError as exc:
        raise IRValidationError(f"{source}: {exc}") from None


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


def conv_params(in_channels, out_channels, kernel_h, kernel_w, group, has_bias):
    """Weights plus bias terms of a conv of these sizes whose group divides in_channels.

    A group factor g keeps only the g diagonal input/output channel bundles
    connected, so the dense weight count divides exactly by g.  Works on
    Python ints, and elementwise on NumPy object arrays of them, so that
    many refined sizes are counted at once and no count can wrap.
    """
    return (in_channels // group) * kernel_h * kernel_w * out_channels + has_bias * out_channels


def param_count(ir: NetworkIR) -> dict[str, int]:
    """Weights (plus bias terms) of every block, by name in (stage, name) order."""
    return {b.name: conv_params(b.in_channels, b.out_channels, b.kernel_h, b.kernel_w, b.group,
                                b.has_bias) for b in ir.blocks}
