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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .netir import NetworkIR, param_count
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

    @staticmethod
    def delta_pct(before: int, after: int) -> float:
        """The percentage by which a parameter count shrank from ``before`` to ``after``."""
        return 100.0 * (1.0 - after / before)


class Widths(NamedTuple):
    """Refined sizes of an IR's blocks: (blocks, plans) arrays, rows in block order."""

    groups: np.ndarray  # group factor times split
    stretched: np.ndarray  # out_channels times stretch, float64
    raw: np.ndarray  # out_channels times repr(stretch) rounded half up; 1 if not finite
    widths: np.ndarray  # raw rounded up to a multiple of every group that must divide it
    in_widths: np.ndarray  # concatenated producer widths, or in_channels if input-fed


def refine_widths(ir: NetworkIR, splits, stretches) -> Widths:
    """The refined groups and widths of ``ir`` under a stack of plans.

    Column j of ``splits`` (an object array of Python ints) and
    ``stretches`` holds one plan's factors, rows in ``ir.blocks`` order, so
    every size is exact and none can wrap.  A block's width must stay
    divisible by its own refined group and by each consumer's.  The
    stretched width is out_channels times the decimal that ``repr`` prints
    for the stretch, as the plan file and sweep.csv show it, rounded half up
    exactly: ``stretch=1.15`` makes a 50-wide block 58 wide, not the 57 of
    float64's 57.49999999999999.
    """
    blocks = ir.blocks

    def column(values):
        return np.array(values, dtype=object)[:, None]

    groups = column([b.group for b in blocks]) * splits
    with np.errstate(over="ignore"):
        stretched = np.array([b.out_channels for b in blocks], dtype=float)[:, None] * stretches
    half_up = np.where(np.isfinite(stretched), stretched, 1.0) + 0.5
    raw = np.frompyfunc(int, 1, 1)(np.floor(half_up))
    # The float product is within a few ulps of out times the printed stretch,
    # so only a cell that near a half can round otherwise: it is redone exactly.
    near = np.abs(half_up - np.rint(half_up)) <= half_up * 2.0**-49
    stretches = np.broadcast_to(stretches, stretched.shape)
    for i, j in zip(*np.nonzero(near)):
        digits, _, exp = repr(float(stretches[i, j])).partition("e")
        whole, _, frac = digits.partition(".")
        shift = int(exp or 0) - len(frac)  # the stretch is int(whole + frac) * 10**shift
        num, den = int(whole + frac) * 10 ** max(shift, 0), 10 ** max(-shift, 0)
        raw[i, j] = (2 * blocks[i].out_channels * num + den) // (2 * den)

    row = {b.name: i for i, b in enumerate(blocks)}
    consumers = [[row[c] for c in ir.consumers(b.name)] for b in blocks]
    divisors = groups.copy()
    for k in range(max(map(len, consumers))):  # the k-th consumer of every producer at once
        producers = [i for i, cs in enumerate(consumers) if len(cs) > k]
        a, b = divisors[producers], groups[[consumers[i][k] for i in producers]]
        divisors[producers] = a // np.gcd(a, b) * b
    widths = -(-raw // divisors) * divisors

    in_widths = np.repeat(column([b.in_channels for b in blocks]), widths.shape[1], axis=1)
    for i, b in enumerate(blocks):
        preds = [row[p] for p in ir.predecessors(b.name)]
        if preds:
            in_widths[i] = widths[preds].sum(axis=0)
    return Widths(groups, stretched, raw, widths, in_widths)


def warn_rounding(name: str, raw: int, width: int) -> None:
    """Warn that block ``name``'s width ``raw`` grew to ``width`` to stay divisible.

    Every such warning is issued from this one line, so Python's default
    filter prints each distinct message once per process, whichever command
    or grid lambda raised it.
    """
    warnings.warn(f"block {name}: width {raw} rounded up to {width} so every group factor"
                  f" keeps dividing it", WidthRoundingWarning)


def apply_plan(ir: NetworkIR, plan: RefinementPlan) -> NetworkIR:
    """Refined IR with the plan's stretch and split factors applied.

    The plan must carry an entry for every block.  The sizes come from
    :func:`refine_widths` in exact integers; a stretched width that is not
    finite raises, and each rounded width warns.  The rest is refused by
    :func:`refined_network`'s validation.
    """
    names = {b.name for b in ir.blocks}
    missing = sorted(names - plan.per_block.keys())
    if missing:
        raise RewriteError(f"plan has no entry for block(s) {missing}")
    unknown = sorted(plan.per_block.keys() - names)
    if unknown:
        raise RewriteError(f"plan names unknown block(s) {unknown}")

    entries = [plan.per_block[b.name] for b in ir.blocks]
    w = refine_widths(ir, np.array([[e.split] for e in entries], dtype=object),
                      np.array([[e.stretch] for e in entries], dtype=float))
    stretched, raw, widths = (v[:, 0].tolist() for v in (w.stretched, w.raw, w.widths))
    for b, width, r, rounded in zip(ir.blocks, stretched, raw, widths):
        if not math.isfinite(width):
            raise RewriteError(f"block {b.name}: stretched width {width} is not finite")
        if rounded != r:
            warn_rounding(b.name, r, rounded)
    return refined_network(ir, w, 0)


def refined_network(ir: NetworkIR, w: Widths, j: int) -> NetworkIR:
    """The refined IR of plan ``j`` of ``w``.  Its validation refuses what rounding cannot
    repair: a size past u32, or a group that does not divide an input-fed in_channels."""
    sizes = zip(*(v[:, j].tolist() for v in (w.groups, w.widths, w.in_widths)))
    return NetworkIR([replace(b, group=g, out_channels=o, in_channels=i)
                      for b, (g, o, i) in zip(ir.blocks, sizes)], ir.edges)


def size_report(before: NetworkIR, after: NetworkIR) -> SizeReport:
    """Convolutional parameter totals of an IR and of its refined IR from :func:`apply_plan`.

    The two IRs share their blocks: :func:`apply_plan` keeps every block and its name.
    """
    counts_before = param_count(before)
    counts_after = param_count(after)
    total_before = sum(counts_before.values())
    total_after = sum(counts_after.values())
    return SizeReport(
        original_conv_params=total_before,
        refined_conv_params=total_after,
        reduction_pct=SizeReport.delta_pct(total_before, total_after),
        per_block={name: (n, counts_after[name]) for name, n in counts_before.items()},
    )


def render_size_report(report: SizeReport) -> str:
    lines = [
        f"original_conv_params={report.original_conv_params}",
        f"refined_conv_params={report.refined_conv_params}",
        f"reduction_pct={report.reduction_pct!r}",
    ]
    for name, (b, a) in report.per_block.items():
        lines.append(f"block {name} before={b} after={a} delta_pct={report.delta_pct(b, a)!r}")
    return "\n".join(lines) + "\n"


def size_report_csv(report: SizeReport) -> str:
    lines = ["block,before,after,delta_pct"]
    for name, (b, a) in report.per_block.items():
        lines.append(f"{name},{b},{a},{report.delta_pct(b, a)!r}")
    lines.append(
        f"TOTAL,{report.original_conv_params},{report.refined_conv_params},"
        f"{report.reduction_pct!r}"
    )
    return "\n".join(lines) + "\n"
