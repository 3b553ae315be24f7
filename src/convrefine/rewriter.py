"""Applies a refinement plan to an IR and accounts for the size change.

Stretching multiplies a block's out_channels; splitting multiplies its
group factor, so re-refining an already refined network composes splits
multiplicatively.  Stretched widths are rounded to the nearest integer and
then up to the smallest multiple of every group factor that must divide
them (the block's own and each consumer's), keeping the refined IR valid.
Downstream in_channels are recomputed from the refined producer widths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .netir import ConvBlock, NetworkIR, param_count
from .planner import RefinementPlan


class RewriteError(ValueError):
    pass


class WidthRoundingWarning(UserWarning):
    """A width had to grow beyond its stretched value to stay divisible."""


@dataclass(frozen=True, eq=False)
class SizeReport:
    original_conv_params: int
    refined_conv_params: int
    reduction_pct: float
    per_block: dict[str, tuple[int, int]]  # name -> (before, after), in (stage, name) order

    def __post_init__(self):
        want = 100.0 * (1.0 - self.refined_conv_params / self.original_conv_params)
        if abs(self.reduction_pct - want) > 1e-9:
            raise ValueError(
                f"reduction_pct {self.reduction_pct} inconsistent with totals"
                f" ({self.original_conv_params} -> {self.refined_conv_params})"
            )
        if sum(b for b, _ in self.per_block.values()) != self.original_conv_params:
            raise ValueError("per-block before counts do not sum to the original total")
        if sum(a for _, a in self.per_block.values()) != self.refined_conv_params:
            raise ValueError("per-block after counts do not sum to the refined total")


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def apply_plan(ir: NetworkIR, plan: RefinementPlan) -> NetworkIR:
    """Refined IR with the plan's stretch and split factors applied.

    The plan must carry an entry for every block.  Widths of input-fed
    blocks are fixed by the data, so a split whose group cannot divide such
    a block's in_channels is unrepairable and raises.  A plan changes only
    widths and groups, so the refined IR is built with ``ir``'s structure
    and only its widths are checked again.
    """
    names = {b.name for b in ir.blocks}
    missing = sorted(names - plan.per_block.keys())
    if missing:
        raise RewriteError(f"plan has no entry for block(s) {missing}")
    unknown = sorted(plan.per_block.keys() - names)
    if unknown:
        raise RewriteError(f"plan names unknown block(s) {unknown}")

    new_group = {
        b.name: b.group * plan.per_block[b.name].split for b in ir.blocks
    }
    new_out: dict[str, int] = {}
    for b in ir.blocks:
        width = b.out_channels * plan.per_block[b.name].stretch
        if not math.isfinite(width):
            raise RewriteError(f"block {b.name}: stretched width {width} is not finite")
        raw = _round_half_up(width)
        divisor = math.lcm(new_group[b.name], *(new_group[c] for c in ir.consumers(b.name)))
        rounded = -(-raw // divisor) * divisor
        if rounded != raw:
            warnings.warn(
                f"block {b.name}: width {raw} rounded up to {rounded} so every"
                f" group factor keeps dividing it",
                WidthRoundingWarning,
                stacklevel=2,
            )
        new_out[b.name] = rounded

    blocks = []
    for b in ir.blocks:
        preds = ir.predecessors(b.name)
        if preds:
            new_in = sum(new_out[p] for p in preds)
        else:
            new_in = b.in_channels
            if new_in % new_group[b.name]:
                raise RewriteError(
                    f"block {b.name}: cannot split input-fed block, group"
                    f" {new_group[b.name]} does not divide in_channels {new_in}"
                )
        blocks.append(ConvBlock(b.name, new_in, new_out[b.name], b.kernel_h, b.kernel_w,
                                new_group[b.name], b.stage, b.has_bias, b.excluded))
    return ir._with_widths(blocks)


def size_report(before: NetworkIR, after: NetworkIR) -> SizeReport:
    """Convolutional parameter totals of two IRs and the reduction between them."""
    counts_before = param_count(before)
    counts_after = param_count(after)
    if counts_before.keys() != counts_after.keys():
        raise ValueError("IRs do not share a block set; cannot compare sizes")
    total_before = sum(counts_before.values())
    total_after = sum(counts_after.values())
    return SizeReport(
        original_conv_params=total_before,
        refined_conv_params=total_after,
        reduction_pct=100.0 * (1.0 - total_after / total_before),
        per_block={name: (n, counts_after[name]) for name, n in counts_before.items()},
    )


def render_size_report(report: SizeReport) -> str:
    lines = [
        f"original_conv_params={report.original_conv_params}",
        f"refined_conv_params={report.refined_conv_params}",
        f"reduction_pct={report.reduction_pct!r}",
    ]
    for name, (b, a) in report.per_block.items():
        delta = 100.0 * (1.0 - a / b)
        lines.append(f"block {name} before={b} after={a} delta_pct={delta!r}")
    return "\n".join(lines) + "\n"


def size_report_csv(report: SizeReport) -> str:
    lines = ["block,before,after,delta_pct"]
    for name, (b, a) in report.per_block.items():
        lines.append(f"{name},{b},{a},{100.0 * (1.0 - a / b)!r}")
    lines.append(
        f"TOTAL,{report.original_conv_params},{report.refined_conv_params},"
        f"{report.reduction_pct!r}"
    )
    return "\n".join(lines) + "\n"
