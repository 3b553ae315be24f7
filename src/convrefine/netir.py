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
from pathlib import Path


class IRSyntaxError(ValueError):
    """Malformed IR text, reported as ``<source>:<line>: <message>``."""


class IRValidationError(ValueError):
    """Well-formed IR text that violates a structural invariant."""


_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
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

    def _check_fields(self) -> None:
        """Raise IRValidationError unless every size field is a positive u32."""
        for label, v in (
            ("in_channels", self.in_channels),
            ("out_channels", self.out_channels),
            ("kernel_h", self.kernel_h),
            ("kernel_w", self.kernel_w),
            ("group", self.group),
        ):
            if v < 1:
                raise IRValidationError(f"block {self.name}: {label} must be positive, got {v}")
            if v > _U32_MAX:
                raise IRValidationError(f"block {self.name}: {label} {v} does not fit in a u32")


@dataclass(frozen=True)
class NetworkIR:
    """A validated DAG of conv blocks.

    Construction raises IRValidationError naming the first invariant the
    blocks and edges violate.  Blocks are kept in canonical (stage, name)
    order; edges are kept grouped by consumer, preserving the per-consumer
    predecessor order because that order defines how input channels
    concatenate.  The lookup index is built once from the canonical blocks
    and edges and takes no part in equality, hashing or repr.
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


def auto_excluded(blocks, edges) -> set[str]:
    """Names of blocks the analysis must skip, derived from structure.

    Skipped are: blocks fed by the network input (no predecessor), blocks in
    the final stage, and — when the final two stages both hold several blocks,
    i.e. the network ends in an inception-style unit — the penultimate stage
    as well.
    """
    consumers = {c for _, c in edges}
    out = {b.name for b in blocks if b.name not in consumers}
    last = max((b.stage for b in blocks), default=0)
    by_stage: dict[int, list] = {}
    for b in blocks:
        by_stage.setdefault(b.stage, []).append(b)
    out.update(b.name for b in by_stage.get(last, ()))
    if last >= 1 and len(by_stage.get(last, ())) >= 2 and len(by_stage.get(last - 1, ())) >= 2:
        out.update(b.name for b in by_stage[last - 1])
    return out


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
        if not _NAME_RE.match(b.name):
            raise IRValidationError(f"invalid block name {b.name!r}")
        b._check_fields()
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

    # stages are non-negative, so none lies beyond the last block's
    missing = sorted(set(range(blocks[-1].stage)) - {b.stage for b in blocks})
    if missing:
        raise IRValidationError(
            f"stage indices must cover 0..{blocks[-1].stage} exactly"
            f" (missing {missing}, out of range [])"
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
    for name in sorted(auto_excluded(blocks, edges)):
        if not by_name[name].excluded:
            raise IRValidationError(
                f"block {name} is terminal or input-fed and must carry the excluded flag"
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
    if not _NAME_RE.match(name):
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
    if not all(_NAME_RE.match(n) for n in names):
        raise ValueError(f"expects block names joined by ',', got {raw!r}")
    return names


_BLOCK_FIELDS = {
    "in": _uint, "out": _uint, "k": _kernel, "group": _uint, "stage": _uint,
    "bias": None, "excluded": None, "prev": _names,
}


def parse_network(text: str, source="<ir>") -> NetworkIR:
    """Parse IR text into a validated NetworkIR; errors name ``source``.

    Exclusion flags are the union of explicit ``excluded`` tokens and the
    structural rules of :func:`auto_excluded`; explicit flags can only add
    exclusions, never remove the structural ones.
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
    flagged = auto_excluded(blocks, edges)
    blocks = [replace(b, excluded=True) if b.name in flagged else b for b in blocks]
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
