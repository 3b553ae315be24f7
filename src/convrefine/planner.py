"""Turns separation tallies into per-block stretch and split factors.

For an analyzed block, let x+ = (n_plus/n_total)*xi and
x- = (n_minus/n_total)*xi, where xi is the mean separation-enhancement
ratio of the subsequent analyzed stages.  Two cases:

  case a (n_plus < n_minus):  separation mostly deteriorated here, so the
      block's inputs are split by 2**floor(x-/lambda) and it is not
      stretched (stretching redundant connections only adds redundancy).
  case b (n_plus >= n_minus): the block helps, so it is stretched by
      1 + lambda*floor(x+/lambda) and its inputs still split by
      2**floor(x-/lambda) to trim the hindering share of connections.

Splits are powers of two so that the group factor keeps dividing typical
channel counts.  lambda scales both floors: larger lambda, gentler factors.
lambda_o is the smallest lambda at which every factor is already identity;
above it nothing can change.

Excluded blocks (input-fed, final stage, trailing inception unit) always
get the identity pair (1, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .netir import NetworkIR, _block_name, _parse_fields, _read_records, _uint


class PlanError(ValueError):
    pass


# Snap x/lambda to an integer when within this distance before flooring.
# Tight enough that lambda_o*(1+1e-9) still lands below the floor boundary,
# wide enough to absorb float noise in the tally ratios.
_FLOOR_SNAP = 1e-12


def check_lambda(lam: float) -> None:
    """Raise PlanError unless lambda is a positive finite number."""
    if not (lam > 0 and math.isfinite(lam)):
        raise PlanError(f"lambda must be positive and finite, got {lam}")


@dataclass(frozen=True)
class PlanEntry:
    stretch: float
    split: int
    case: str  # "a", "b" or "x" (excluded)


# The entry of every excluded block; PlanEntry is immutable, so plans share it.
_EXCLUDED = PlanEntry(stretch=1.0, split=1, case="x")


@dataclass(frozen=True, eq=False)
class RefinementPlan:
    per_block: dict[str, PlanEntry]
    lambda_used: float
    lambda_o: float

    def __post_init__(self):
        for name, entry in self.per_block.items():
            if entry.case not in ("a", "b", "x"):
                raise PlanError(f"block {name}: unknown case {entry.case!r}")
            if entry.split < 1 or entry.split & (entry.split - 1):
                raise PlanError(f"block {name}: split {entry.split} is not a power of two")
            if entry.stretch < 1.0:
                raise PlanError(f"block {name}: stretch {entry.stretch} below 1")
            if entry.case in ("a", "x") and entry.stretch != 1.0:
                raise PlanError(f"block {name}: case {entry.case} forbids stretching")
            if entry.case == "x" and entry.split != 1:
                raise PlanError(f"block {name}: excluded blocks cannot split")
            steps = (entry.stretch - 1.0) / self.lambda_used
            if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
                raise PlanError(
                    f"block {name}: stretch {entry.stretch} is not 1 + k*lambda"
                    f" for lambda={self.lambda_used}"
                )


def psi(x: float, lam: float) -> int:
    """floor(x / lambda) with a snap against float noise at the boundary."""
    if x < 0:
        raise PlanError(f"psi expects x >= 0, got {x}")
    if not lam > 0:
        raise PlanError(f"lambda must be positive, got {lam}")
    q = x / lam
    nearest = round(q)
    if abs(q - nearest) <= _FLOOR_SNAP * max(1.0, abs(q)):
        return nearest
    return math.floor(q)


def xi(plus_ratios, index: int) -> float:
    """Mean n_plus/n_total ratio of the stages after ``index``.

    ``plus_ratios`` is indexed by stage, with None for stages that
    contribute nothing (no tallies, or only excluded blocks).  The final
    stage is always left out.  An empty window yields 0, which makes every
    factor of the corresponding block identity.
    """
    window = list(plus_ratios)[index + 1 : max(index + 1, len(plus_ratios) - 1)]
    vals = [v for v in window if v is not None]
    if not vals:
        return 0.0
    return sum(vals) / len(vals)


def stage_plus_ratios(ir: NetworkIR, tallies) -> list:
    """Per-stage mean of n_plus/n_total over non-excluded tallied blocks.

    Stages with nothing to contribute map to None.  For single-block stages
    this is just the block's own ratio; for inception-style stages it is the
    mean across the stage's analyzed blocks.
    """
    per_stage: list[list[float]] = [[] for _ in range(ir.num_stages)]
    for b in ir.blocks:
        if b.excluded:
            continue
        t = tallies.get(b.name)
        if t is not None:
            per_stage[b.stage].append(t.n_plus / t.n_total)
    return [sum(v) / len(v) if v else None for v in per_stage]


class BlockTerms(NamedTuple):
    """The two floored terms of an analyzed block and its case.

    x_plus = (n_plus/n_total)*xi and x_minus = (n_minus/n_total)*xi, with xi
    the mean n_plus/n_total of the block's later stages.  Case "a" blocks
    never stretch, so only x_minus is floored for them.
    """

    case: str  # "a" or "b"
    x_plus: float
    x_minus: float

    @property
    def floored(self) -> tuple[float, ...]:
        return (self.x_minus,) if self.case == "a" else (self.x_plus, self.x_minus)


def block_terms(ir: NetworkIR, tallies) -> dict[str, BlockTerms]:
    """Case, x+ and x- of every non-excluded block, in the IR's block order.

    ``tallies`` maps block name to SeparationTally and must cover every
    non-excluded block; entries for excluded blocks are ignored.  xi is
    computed once per stage.
    """
    for name in tallies:
        try:
            ir.block(name)
        except KeyError:
            raise PlanError(f"tally/IR mismatch: tally names unknown block {name!r}") from None
    for b in ir.blocks:
        if not b.excluded and b.name not in tallies:
            raise PlanError(f"tally/IR mismatch: no tally for block {b.name}")

    totals = {tallies[b.name].n_total for b in ir.blocks if not b.excluded}
    if len(totals) > 1:
        raise PlanError(f"tallies disagree on n_total: {sorted(totals)}")

    ratios = stage_plus_ratios(ir, tallies)
    xis = [xi(ratios, s) for s in range(ir.num_stages)]
    terms: dict[str, BlockTerms] = {}
    for b in ir.blocks:
        if b.excluded:
            continue
        t = tallies[b.name]
        terms[b.name] = BlockTerms(
            "a" if t.n_plus < t.n_minus else "b",
            (t.n_plus / t.n_total) * xis[b.stage],
            (t.n_minus / t.n_total) * xis[b.stage],
        )
    return terms


def lambda_o(terms) -> float:
    """The smallest lambda at which every factor is identity.

    That is the largest term any block of ``terms`` (a :func:`block_terms`
    result) floors, or 0 when there is none.
    """
    return max((x for t in terms.values() for x in t.floored), default=0.0)


def build_plan(ir: NetworkIR, tallies, lam: float) -> RefinementPlan:
    """Stretch/split factors at ``lam`` for every block of the network."""
    return plan_from_terms(ir, block_terms(ir, tallies), lam)


def plan_from_terms(ir: NetworkIR, terms, lam: float) -> RefinementPlan:
    """The plan at ``lam`` from the :func:`block_terms` of ``ir``.

    The split is 2**psi(x-), the case-b stretch 1 + lambda*psi(x+), and
    lambda_o is :func:`lambda_o` of ``terms``.  ``terms`` is only read, so
    one result of :func:`block_terms` serves every lambda of a sweep.
    """
    check_lambda(lam)
    entries: dict[str, PlanEntry] = {}
    for b in ir.blocks:
        t = terms.get(b.name)
        if t is None:
            entries[b.name] = _EXCLUDED
            continue
        stretch = 1.0 if t.case == "a" else 1.0 + lam * psi(t.x_plus, lam)
        entries[b.name] = PlanEntry(stretch=stretch, split=1 << psi(t.x_minus, lam), case=t.case)
    return RefinementPlan(per_block=entries, lambda_used=lam, lambda_o=lambda_o(terms))


def serialize_plan(plan: RefinementPlan) -> str:
    lines = [
        f"lambda={plan.lambda_used!r}",
        f"lambda_o={plan.lambda_o!r}",
        "# xi aggregation: per-stage mean over analyzed blocks",
    ]
    for name in sorted(plan.per_block):
        e = plan.per_block[name]
        lines.append(f"plan {name} stretch={e.stretch!r} split={e.split} case={e.case}")
    return "\n".join(lines) + "\n"


def _number(ok, rule):
    """Converter of a float field whose value must pass ``ok``, as ``rule`` says."""
    def convert(raw: str) -> float:
        try:
            x = float(raw)
        except ValueError:
            raise ValueError(f"expects a number, got {raw!r}") from None
        if not ok(x):
            raise ValueError(f"must be {rule}, got {x}")
        return x
    return convert


_HEADER_FIELDS = {
    "lambda": _number(lambda x: x > 0 and math.isfinite(x), "positive and finite"),
    "lambda_o": _number(lambda x: x >= 0 and math.isfinite(x), "finite and non-negative"),
}
_ENTRY_FIELDS = {"stretch": _number(math.isfinite, "finite"), "split": _uint, "case": str}


def parse_plan(text: str, source="<plan>") -> RefinementPlan:
    """The plan :func:`serialize_plan` wrote as ``text``; errors name ``source``."""
    headers: dict[str, float] = {}
    entries: dict[str, PlanEntry] = {}

    def header(tokens):
        key = tokens[0].partition("=")[0]
        if key in headers:
            raise ValueError(f"duplicate {key}")
        headers.update(_parse_fields(tokens, {key: _HEADER_FIELDS[key]}))

    def entry(tokens):
        name = _block_name(tokens)
        if name in entries:
            raise ValueError(f"duplicate plan entry for {name}")
        entries[name] = PlanEntry(**_parse_fields(tokens[2:], _ENTRY_FIELDS))

    _read_records(text, source, PlanError, {"lambda=": header, "lambda_o=": header, "plan": entry})
    if headers.keys() != _HEADER_FIELDS.keys():
        raise PlanError(f"{source}: plan file must carry lambda= and lambda_o= headers")
    try:
        return RefinementPlan(entries, lambda_used=headers["lambda"], lambda_o=headers["lambda_o"])
    except PlanError as exc:
        raise PlanError(f"{source}: {exc}") from None
