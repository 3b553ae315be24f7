import math
import struct
from pathlib import Path

import numpy as np
import oracle
import pytest

from convrefine import featio
from convrefine.netir import ConvBlock, NetworkIR, serialize_network
from convrefine.planner import PlanEntry, RefinementPlan
from convrefine.sepstats import SeparationTally

FIXTURES = Path(__file__).parent / "fixtures"


def class_means(name, feats, labels, num_classes=None):
    """Class means of in-memory pooled features, summed as a streamed dump is.

    ``num_classes`` defaults to one more than the largest label, as in
    ``scan_manifest``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    feats = np.asarray(feats, dtype=np.float64)
    m = int(labels.max()) + 1 if num_classes is None else num_classes
    counts = featio._class_counts(name, labels, m)
    return featio._class_means(labels, counts, feats.shape[1], [(0, feats)])


def poison(path, flat_index=0):
    """Overwrite value ``flat_index`` of an ATNS dump's payload with NaN."""
    data = bytearray(Path(path).read_bytes())
    (rank,) = struct.unpack_from("<H", data, 6)
    struct.pack_into("<f", data, 8 + 4 * rank + 4 * flat_index, math.nan)
    Path(path).write_bytes(bytes(data))


def reference_csv(rows) -> str:
    """The correlation CSV format, one ``repr`` call per cell."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def tally(plus, minus, total=16):
    """A SeparationTally whose pairs that neither separate nor merge are ties."""
    return SeparationTally(plus, minus, total - plus - minus, total)


def exact_terms(ir, tallies):
    """bench/oracle.py's exact {block: (x+, x-, case)} of ``ir``, None where excluded.

    The oracle reads the IR's text, so it derives the exclusions itself.
    """
    return oracle.block_terms(
        oracle.parse_ir(serialize_network(ir)),
        {n: oracle.Tally(t.n_plus, t.n_minus, t.n_ties, t.n_total, 0) for n, t in tallies.items()},
    )


def identity_plan(ir, lam=0.25):
    """A plan that leaves every block untouched."""
    entries = {
        b.name: PlanEntry(stretch=1.0, split=1, case="x" if b.excluded else "b")
        for b in ir.blocks
    }
    return RefinementPlan(per_block=entries, lambda_used=lam, lambda_o=0.0)


def is_identity(plan):
    return all(e.stretch == 1.0 and e.split == 1 for e in plan.per_block.values())


def chain_ir(widths, in0=3, kernel=3, bias=False, groups=None):
    """Linear chain of conv blocks named conv0..convN-1."""
    groups = groups or [1] * len(widths)
    blocks = []
    edges = []
    prev_out = in0
    for i, (w, g) in enumerate(zip(widths, groups)):
        blocks.append(
            ConvBlock(
                name=f"conv{i}",
                in_channels=prev_out,
                out_channels=w,
                kernel_h=kernel,
                kernel_w=kernel,
                group=g,
                stage=i,
                has_bias=bias,
            )
        )
        if i:
            edges.append((f"conv{i - 1}", f"conv{i}"))
        prev_out = w
    return NetworkIR(blocks, edges)


def random_chain_tallies(rng, num_classes, num_stages):
    """Random (name, tally) pairs of a chain's blocks conv1.. in stage order.

    Stage 0 has no predecessor and so no tally.  The diagonal never moves,
    so n_plus + n_minus never exceeds M^2 - M.
    """
    total = num_classes * num_classes
    offdiag = total - num_classes
    out = []
    for i in range(1, num_stages):
        plus = int(rng.integers(0, offdiag + 1))
        minus = int(rng.integers(0, offdiag - plus + 1))
        out.append((f"conv{i}", tally(plus, minus, total)))
    return out


def random_split_only_tallies(rng, num_classes, num_stages):
    """Chain (name, tally) pairs with n_plus < n_minus everywhere: nothing ever stretches."""
    total = num_classes * num_classes
    offdiag = total - num_classes
    out = []
    for i in range(1, num_stages):
        minus = int(rng.integers(1, offdiag + 1))
        plus = int(rng.integers(0, min(minus, offdiag - minus + 1)))
        out.append((f"conv{i}", tally(plus, minus, total)))
    return out


def random_ir(rng, max_stages=4):
    """Small random DAG; about a fifth of its blocks carry an explicit exclusion flag."""
    num_stages = int(rng.integers(1, max_stages + 1))
    blocks = []
    edges = []
    prev_stage = []
    name_idx = 0
    for stage in range(num_stages):
        stage_blocks = []
        for _ in range(int(rng.integers(1, 4))):
            name = f"b{name_idx}"
            name_idx += 1
            if prev_stage and rng.random() < 0.85:
                k = int(rng.integers(1, len(prev_stage) + 1))
                picks = list(rng.choice(len(prev_stage), size=k, replace=False))
                preds = [prev_stage[i] for i in picks]
            else:
                preds = []
            in_ch = sum(p.out_channels for p in preds) if preds else int(rng.integers(1, 9))
            out_ch = int(rng.integers(1, 9)) * 4
            divisors = [
                g for g in (1, 2, 4)
                if in_ch % g == 0 and out_ch % g == 0
                and all(p.out_channels % g == 0 for p in preds)
            ]
            group = int(rng.choice(divisors))
            stage_blocks.append(
                ConvBlock(
                    name=name,
                    in_channels=in_ch,
                    out_channels=out_ch,
                    kernel_h=int(rng.integers(1, 6)),
                    kernel_w=int(rng.integers(1, 6)),
                    group=group,
                    stage=stage,
                    has_bias=bool(rng.random() < 0.5),
                    excluded=bool(rng.random() < 0.2),
                )
            )
            edges.extend((p.name, name) for p in preds)
        blocks.extend(stage_blocks)
        prev_stage = stage_blocks
    return NetworkIR(blocks, edges)


@pytest.fixture
def vgg11_text():
    return (FIXTURES / "vgg11.ir").read_text()


@pytest.fixture
def inception_text():
    return (FIXTURES / "inception.ir").read_text()
