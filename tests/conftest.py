import math
import os
import struct
from pathlib import Path

import numpy as np
import oracle
import pytest
from hypothesis import strategies as st

from convrefine import featio, sepstats
from convrefine.netir import ConvBlock, NetworkIR, serialize_network
from convrefine.planner import PlanEntry, RefinementPlan
from convrefine.sepstats import SeparationTally

FIXTURES = Path(__file__).parent / "fixtures"


def class_means(name, feats, labels):
    """Class means of in-memory pooled features, summed as a streamed dump is.

    There is one class more than the largest label, as in ``scan_manifest``;
    ``name`` stands for the labels file in the error of an empty class.
    """
    labels = np.asarray(labels, dtype=np.int64)
    feats = np.asarray(feats, dtype=np.float64)
    counts = featio._class_counts(name, labels)
    return featio._class_means(labels, counts, feats.shape[1], [(0, feats)])


def correlation_layer(name, means, strict=False):
    """(M, M) Pearson correlation of every ordered pair of rows of ``means``.

    ``sepstats._correlate``, the one step of each matrix that
    ``network_statistics`` forms, applied to a C-order copy.  Row m of
    ``means`` is the mean feature vector of class m in layer ``name``, which
    messages name; a constant row's row and column are 0 and a warning names
    its class (strict mode raises).  The copy makes the bits independent of
    the means' memory layout, and ``means`` is never written.
    """
    return sepstats._correlate(name, np.array(means, dtype=np.float64, order="C"), strict)


def poison(path, flat_index=0):
    """Overwrite value ``flat_index`` of an ATNS dump's payload with NaN."""
    data = bytearray(Path(path).read_bytes())
    (rank,) = struct.unpack_from("<H", data, 6)
    struct.pack_into("<f", data, 8 + 4 * rank + 4 * flat_index, math.nan)
    Path(path).write_bytes(bytes(data))


def write_dumps(dest, feats_by_name, labels):
    """ATNS dumps of ``feats_by_name``, a labels file and their manifest; returns its path."""
    lines = []
    for name, feats in feats_by_name.items():
        featio.write_tensor_file(dest / f"{name}.atns", feats)
        lines.append(f"layer {name} {name}.atns")
    featio.write_labels_file(dest / "labels.atlb", labels)
    lines.append("labels labels.atlb")
    manifest = dest / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def one_stage_ir(dumps):
    """A one-stage IR with a block of each dump's name and width, as ``scan_manifest`` checks.

    ``dumps`` maps a name to its tensor, or to its width alone.
    """
    return NetworkIR([ConvBlock(name, 1, dump if isinstance(dump, int) else np.shape(dump)[1], 1, 1)
                      for name, dump in dumps.items()], [])


def shrink_after_recheck(monkeypatch, path, keep_bytes):
    """Cut the dump at ``path`` to ``keep_bytes`` right after its header's second check.

    The first check is the manifest scan's; the second is a lookup's, after
    which the payload is streamed from the file it has open.  The dump must
    be well over a read buffer (1 MB is), or the cut bytes are already read.
    """
    read_header = featio._read_tensor_header
    checks = []

    def read_then_shrink(fh, checked):
        result = read_header(fh, checked)
        if Path(checked) == Path(path):
            checks.append(checked)
            if len(checks) == 2:
                os.truncate(path, keep_bytes)
        return result

    monkeypatch.setattr(featio, "_read_tensor_header", read_then_shrink)


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


def plan_of(ir, overrides=(), lam=0.25):
    """A plan with the entries of ``overrides`` that leaves every other block untouched."""
    entries = {b.name: PlanEntry(stretch=1.0, split=1, case="x" if b.excluded else "b")
               for b in ir.blocks}
    entries.update(overrides)
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


def random_chain_tallies(rng, num_classes, num_stages, split_only=False):
    """Random (name, tally) pairs of a chain's blocks conv1.. in stage order.

    Stage 0 has no predecessor and so no tally.  The diagonal never moves,
    so n_plus + n_minus never exceeds M^2 - M.  With ``split_only``, n_plus
    < n_minus everywhere, so nothing ever stretches.
    """
    total = num_classes * num_classes
    offdiag = total - num_classes
    out = []
    for i in range(1, num_stages):
        if split_only:
            minus = int(rng.integers(1, offdiag + 1))
            plus = int(rng.integers(0, min(minus, offdiag - minus + 1)))
        else:
            plus = int(rng.integers(0, offdiag + 1))
            minus = int(rng.integers(0, offdiag - plus + 1))
        out.append((f"conv{i}", tally(plus, minus, total)))
    return out


@st.composite
def network_parts(draw, min_width=1, max_stages=6):
    """The blocks and edges of a valid IR, shuffled, to be handed to NetworkIR.

    1 to ``max_stages`` stages hold 1-3 blocks each.  A block takes 0-3
    producers from any earlier stage, so concatenations, skipped stages and
    inception-style ends all occur; names sort apart from draw order.  Each
    group is a common divisor, from 1, 2, 3, 4, 5, 9 and 15, of the block's
    in-width and its producers' widths, the larger of two picks; the
    out-width is the group times a factor from 1, 2, 3, 5, 6 and 15, at
    least ``min_width``.  So coprime groups often meet on one producer,
    where a width must be a multiple of their lcm.  About a fifth of the
    blocks carry an exclusion flag.

    Hypothesis draws the stage sizes, so a failing graph shrinks to the
    fewest blocks; one seeded Random draws the rest, since a Hypothesis draw
    per field makes generation four times slower.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=max_stages))
    rnd = draw(st.randoms(use_true_random=True))
    blocks, edges = [], []
    for stage, size in enumerate(sizes):
        earlier = list(blocks)
        for _ in range(size):
            name = rnd.choice(["z", "m", "b-", "_a"]) + str(len(blocks))
            preds = rnd.sample(earlier, rnd.randint(0, min(3, len(earlier))))
            in_ch = sum(p.out_channels for p in preds) or \
                rnd.randint(1, 4) * rnd.choice([1, 3, 5, 15])
            common = math.gcd(in_ch, *(p.out_channels for p in preds))
            divisors = [g for g in (1, 2, 3, 4, 5, 9, 15) if common % g == 0]
            group = max(rnd.choice(divisors), rnd.choice(divisors))
            unit = group * rnd.choice([1, 2, 3, 5, 6, 15])
            out = unit * (-(-min_width // unit) + rnd.randint(0, 1))
            blocks.append(ConvBlock(name, in_ch, out, rnd.randint(1, 5), rnd.randint(1, 5),
                                    group, stage, rnd.random() < 0.5, rnd.random() < 0.2))
            edges.extend((p.name, name) for p in preds)
    rnd.shuffle(blocks)
    rnd.shuffle(edges)
    return blocks, edges


def networks(min_width=1, max_stages=6):
    """Random valid IRs: :func:`network_parts` handed to NetworkIR."""
    return network_parts(min_width, max_stages).map(lambda parts: NetworkIR(*parts))


@st.composite
def tallies_for(draw, ir):
    """A tally of M^2 ordered class pairs, M in 2..6, for every block with a predecessor.

    The diagonal never moves, so n_plus + n_minus never exceeds M^2 - M.
    Now and then no block has a minus count, so that every split is 1.
    """
    m = draw(st.integers(2, 6))
    offdiag = m * m - m
    minus_free = draw(st.integers(0, 3)) == 0
    tallies = {}
    for b in ir.blocks:
        if ir.predecessors(b.name):
            plus = draw(st.integers(0, offdiag))
            minus = 0 if minus_free else draw(st.integers(0, offdiag - plus))
            tallies[b.name] = tally(plus, minus, m * m)
    return tallies


def enumerated_weights(in_ch, out_ch, group, kh, kw):
    """Weights of a grouped conv, counted over every connected channel pair."""
    per_in = in_ch // group
    per_out = out_ch // group
    weights = 0
    for o in range(out_ch):
        bundle = o // per_out
        for _ in range(bundle * per_in, (bundle + 1) * per_in):
            weights += kh * kw
    return weights


@pytest.fixture
def vgg11_text():
    return (FIXTURES / "vgg11.ir").read_text()


@pytest.fixture
def inception_text():
    return (FIXTURES / "inception.ir").read_text()
