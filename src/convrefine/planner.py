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

import numpy as np

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
        # A stretch must lie within 2 ulps of 1 + k*lambda for the whole k
        # nearest (stretch - 1)/lambda, so that each float 1 + lambda*k the
        # planner computes reads back, however few of k's digits it keeps.
        stretches = np.array([e.stretch for e in self.per_block.values()], dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            steps = np.round((stretches - 1.0) / self.lambda_used)
            whole = np.abs(1.0 + self.lambda_used * steps - stretches) <= 2 * np.spacing(stretches)
        for (name, entry), ok in zip(self.per_block.items(), whole):
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
            if not ok:
                raise PlanError(
                    f"block {name}: stretch {entry.stretch} is not 1 + k*lambda"
                    f" for lambda={self.lambda_used}"
                )


def psi(x, lam):
    """floor(x / lambda) with a snap against float noise at the boundary.

    Works elementwise on x >= 0 and lambda > 0, broadcasting ``x`` against
    ``lam``, and returns the floors as a float64 array.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.asarray(x, dtype=float) / lam
        nearest = np.round(q)
        return np.where(np.abs(q - nearest) <= _FLOOR_SNAP * np.maximum(1.0, np.abs(q)),
                        nearest, np.floor(q))


class BlockTerms(NamedTuple):
    """The two floored terms of an analyzed block and its case.

    x_plus = (n_plus/n_total)*xi and x_minus = (n_minus/n_total)*xi, with xi
    the mean n_plus/n_total of the block's later stages.  Case "a" blocks
    never stretch, so their x_plus is not floored.
    """

    case: str  # "a" or "b"
    x_plus: float
    x_minus: float

    @property
    def floored(self) -> tuple[float, float]:
        """The terms floored for the stretch and the split; 0.0 stands for none."""
        return (self.x_plus if self.case == "b" else 0.0), self.x_minus


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

    per_stage: list[list[float]] = [[] for _ in range(ir.num_stages)]
    for b in ir.blocks:
        if not b.excluded:
            t = tallies[b.name]
            per_stage[b.stage].append(t.n_plus / t.n_total)
    means = [sum(v) / len(v) if v else None for v in per_stage]
    xis = []
    for s in range(ir.num_stages):  # xi: the later stages' means, the final stage left out
        window = [r for r in means[s + 1 : -1] if r is not None]
        xis.append(sum(window) / len(window) if window else 0.0)
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
    """Stretch/split factors at ``lam`` for every block of the network.

    The factors are :func:`factor_grid`'s at the one lambda, and lambda_o
    is :func:`lambda_o` of the :func:`block_terms`.  A split of 2**32 or
    more, or a term whose quotient by ``lam`` overflows, raises PlanError
    naming the first such block.
    """
    terms = block_terms(ir, tallies)
    check_lambda(lam)
    stretches, exponents = factor_grid(ir, terms, np.array([lam]))
    entries: dict[str, PlanEntry] = {}
    for b, stretch, exponent in zip(ir.blocks, stretches[:, 0].tolist(), exponents[:, 0].tolist()):
        if math.isinf(stretch) or math.isinf(exponent):  # x/lam overflowed
            raise PlanError(f"block {b.name}: lambda {lam!r} is too small, x/lambda overflows")
        if exponent >= 32:  # refused before the shift, whose result can outgrow memory
            raise PlanError(f"block {b.name}: split 2**{exponent:.0f} does not fit in a u32")
        t = terms.get(b.name)
        entries[b.name] = _EXCLUDED if t is None else PlanEntry(stretch, 1 << int(exponent), t.case)
    return RefinementPlan(per_block=entries, lambda_used=lam, lambda_o=lambda_o(terms))


def factor_grid(ir: NetworkIR, terms, lams):
    """Stretches and split exponents of ``ir``'s blocks at each lambda of ``lams``.

    Rows follow ``ir.blocks``, columns ``lams``.  The split is
    2**psi(x-) and the case-b stretch 1 + lambda*psi(x+); case-a and
    excluded blocks keep stretch 1.0, and excluded blocks split by 1.  Every
    term of ``terms`` (a :func:`block_terms` result) is floored at every
    lambda in one :func:`psi` call.  Exponents are float64 whole numbers,
    so none can wrap.
    """
    x = np.zeros((len(ir.blocks), 2, 1))
    stretched = np.zeros((len(ir.blocks), 1), dtype=bool)
    for i, b in enumerate(ir.blocks):
        t = terms.get(b.name)
        if t is not None:
            stretched[i] = t.case == "b"
            x[i, :, 0] = t.floored
    lams = np.asarray(lams, dtype=float)
    floors = psi(x, lams)
    return np.where(stretched, 1.0 + lams * floors[:, 0], 1.0), floors[:, 1]


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
