"""Workload definitions for the convrefine benchmark.

Everything here is plain numpy and depends only on the seed, never on the
program under test: the IR text, the per-layer correlation targets handed to
``evalkit.synth_activations``, the prediction scores and the multi-hot truth.
The oracle rebuilds the same targets from the same seed to check the
program's correlation matrices against them.

Three workloads, each chosen because a different module dominates it:

* ``vgg11-maps``       rank-4 7x7 dumps of the VGG-11 conv stack; reading and
                       pooling in ``featio`` dominate.
* ``classes500-flat``  500 classes on a five-block chain of rank-2 dumps;
                       M^2 statistics, per-class means and CSV output dominate.
* ``inception30-sweep`` 182 blocks in 30 inception units with tiny 2x2 dumps
                       and a dense lambda grid; graph lookups dominate.

Targets are T = a*J + b*R + (1-a-b)*I with J the all-ones matrix and R a
random rank-``dim`` correlation matrix drawn afresh for every block.  Any
such convex combination is a valid correlation matrix.  Between a block and
its predecessor the off-diagonal entries move by (a - a_prev) plus a random
term of spread b*sqrt(2/dim), so the level ``a`` steers which share of class
pairs separates (n+) or merges (n-).  The levels are chosen so that the
lambda=0.25 plan has case-a blocks with split > 1 and case-b blocks with
stretch > 1; random targets give an identity plan on 1,000 classes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("vgg11-maps", "classes500-flat", "inception30-sweep")
SIZES = ("bench", "smoke")

LAMBDA = 0.25
TIE_TOL = 1e-6
# Spread weight and rank of the random part of every target (see module doc).
TARGET_B = 0.2
TARGET_DIM = 8


@dataclass
class Block:
    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stage: int
    prev: list[str] = field(default_factory=list)
    bias: bool = False

    def line(self) -> str:
        parts = [
            f"block {self.name}",
            f"in={self.in_channels}",
            f"out={self.out_channels}",
            f"k={self.kernel}x{self.kernel}",
            "group=1",
            f"stage={self.stage}",
        ]
        if self.bias:
            parts.append("bias")
        if self.prev:
            parts.append("prev=" + ",".join(self.prev))
        return " ".join(parts)


@dataclass
class Spec:
    """Everything needed to build one workload's inputs and run it."""

    workload: str
    size: str
    seed: int
    ir_text: str
    widths: dict[str, int]  # block name -> hidden units
    levels: dict[str, float]  # block name -> target level a
    num_classes: int
    images_per_class: int
    spatial: tuple[int, int] | None  # None writes rank-2 dumps
    noise: float
    sweep_steps: int
    k: int  # precision@k
    extra_positives: int  # positive labels per image besides its class

    @property
    def num_images(self) -> int:
        return self.num_classes * self.images_per_class

    def subseed(self, purpose: str) -> int:
        """Independent 63-bit seed per purpose, derived from the run seed."""
        digest = hashlib.sha256(f"{self.workload}/{self.seed}/{purpose}".encode()).digest()
        return int.from_bytes(digest[:8], "little") >> 1

    def seeds(self) -> dict[str, int]:
        return {p: self.subseed(p) for p in ("targets", "synth", "dumps", "scores")}

    def targets(self) -> dict[str, np.ndarray]:
        """Per-block target correlation matrices, in block-name order."""
        rng = np.random.default_rng(self.subseed("targets"))
        m = self.num_classes
        out = {}
        for name in sorted(self.levels):
            v = rng.standard_normal((m, TARGET_DIM))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            r = v @ v.T
            a = self.levels[name]
            t = a * np.ones((m, m)) + TARGET_B * r + (1.0 - a - TARGET_B) * np.eye(m)
            t = (t + t.T) / 2.0
            np.fill_diagonal(t, 1.0)
            out[name] = t
        return out

    def predictions(self) -> tuple[np.ndarray, np.ndarray]:
        """Scores (N x M, float32-representable) and multi-hot truth (N x M)."""
        rng = np.random.default_rng(self.subseed("scores"))
        m = self.num_classes
        n = self.num_images
        labels = np.repeat(np.arange(m), self.images_per_class)
        truth = np.zeros((n, m), dtype=np.uint8)
        truth[np.arange(n), labels] = 1
        for _ in range(self.extra_positives):
            truth[np.arange(n), rng.integers(0, m, size=n)] = 1
        scores = rng.standard_normal((n, m)) + 1.5 * truth
        return scores.astype(np.float32).astype(np.float64), truth

    def commands(self, ir: str, manifest: str, scores: str, truth: str, out: str):
        """The CLI sequence a user runs, as (name, argv after the program)."""
        common = ["--ir", ir, "--manifest", manifest, "--out", out]
        return [
            ("analyze", ["analyze", *common]),
            ("plan", ["plan", *common, "--lambda", repr(LAMBDA)]),
            ("apply", ["apply", "--ir", ir, "--plan", f"{out}/plans/lambda_{LAMBDA!r}.plan",
                       "--out", out]),
            ("sweep", ["sweep", *common, "--sweep-steps", str(self.sweep_steps)]),
            ("precision", ["precision", "--scores", scores, "--truth", truth,
                           "--k", str(self.k)]),
        ]


def _chain(names, widths, levels, in0, kernel, bias):
    blocks = []
    prev_out = in0
    for i, name in enumerate(names):
        blocks.append(
            Block(name, prev_out, widths[i], kernel, i, [names[i - 1]] if i else [], bias)
        )
        prev_out = widths[i]
    return blocks, dict(zip(names, levels))


def _vgg11(size):
    # The VGG-11 conv stack, the blocks of tests/fixtures/vgg11.ir, written
    # out here so the benchmark's inputs do not change when fixtures do.
    names = ["conv1_1", "conv2_1", "conv3_1", "conv3_2", "conv4_1", "conv4_2", "conv5_1", "conv5_2"]
    widths = [64, 128, 256, 256, 512, 512, 512, 512]
    # conv3_2 merges classes (case a, split 4); the blocks before and after
    # it separate them (case b, stretch > 1).
    levels = (0.75, 0.67, 0.56, 0.65, 0.52, 0.41, 0.29, 0.2)
    blocks, lv = _chain(names, widths, levels, 3, 3, True)
    per_class = {"bench": 10, "smoke": 2}[size]
    return blocks, lv, dict(num_classes=50, images_per_class=per_class, spatial=(7, 7),
                            sweep_steps=20, k=3, extra_positives=1)


def _classes500(size):
    # Five blocks, the fewest a chain needs for both cases: fc0 (input-fed)
    # and fc4 (terminal) are excluded, and xi leaves out the last stage, so
    # only fc1 and fc2 get factors.  fc1 separates classes (case b, stretch
    # > 1), fc2 merges them (case a, split > 1) and fc3 separates them again.
    # Each block adds 500^2 values to analyze's CSV output (about 0.3 s).
    # Widths must exceed the class count (synth_activations).
    names = [f"fc{i}" for i in range(5)]
    widths = [512, 512, 768, 768, 1024]
    levels = (0.75, 0.62, 0.7, 0.5, 0.4)
    if size == "smoke":
        widths = [w // 4 for w in widths]
    blocks, lv = _chain(names, widths, levels, 4096, 1, False)
    m = 500 if size != "smoke" else 100
    return blocks, lv, dict(num_classes=m, images_per_class=2,
                            spatial=None, sweep_steps=20, k=5, extra_positives=2)


def _inception30(size):
    """Stem, 30 two-stage inception units, 1x1 head.

    Unit u reads the concatenation of the previous unit's four outputs
    (1x1, 3x3, 5x5, pool projection).  Target levels: every block sits low
    (L) except the 5x5 branch, which sits high above its 5x5 reducer, so it
    merges classes (case a) while the unit's concatenated output stays above
    L and the next unit's blocks separate them again (case b).
    """
    units = {"bench": 30, "smoke": 3}[size]
    low, high, step = 0.3, 0.7, 0.1
    blocks = [Block("stem", 3, 64, 3, 0)]
    levels = {"stem": 0.45}
    prior = ["stem"]
    width = {"1x1": 32, "3r": 24, "3x3": 32, "5r": 16, "5x5": 16, "pool": 16}
    for u in range(units):
        s = 2 * u + 1
        fed = sum(next(b.out_channels for b in blocks if b.name == p) for p in prior)
        n = {k: f"u{u:02d}_{k}" for k in width}
        blocks += [
            Block(n["1x1"], fed, width["1x1"], 1, s, list(prior)),
            Block(n["3r"], fed, width["3r"], 1, s, list(prior)),
            Block(n["5r"], fed, width["5r"], 1, s, list(prior)),
            Block(n["3x3"], width["3r"], width["3x3"], 3, s + 1, [n["3r"]]),
            Block(n["5x5"], width["5r"], width["5x5"], 5, s + 1, [n["5r"]]),
            Block(n["pool"], fed, width["pool"], 1, s + 1, list(prior)),
        ]
        levels.update({n["1x1"]: low, n["3r"]: low, n["5r"]: low, n["3x3"]: low - step,
                       n["5x5"]: high, n["pool"]: low})
        prior = [n["1x1"], n["3x3"], n["5x5"], n["pool"]]
    fed = sum(width[k] for k in ("1x1", "3x3", "5x5", "pool"))
    blocks.append(Block("head", fed, 64, 1, 2 * units + 1, list(prior)))
    levels["head"] = low
    return blocks, levels, dict(num_classes=10, images_per_class=20, spatial=(2, 2),
                                sweep_steps={"bench": 100, "smoke": 20}[size], k=3,
                                extra_positives=1)


_BUILDERS = {
    "vgg11-maps": _vgg11,
    "classes500-flat": _classes500,
    "inception30-sweep": _inception30,
}


def make_spec(workload: str, seed: int, size: str = "bench") -> Spec:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    blocks, levels, shape = _BUILDERS[workload](size)
    return Spec(
        workload=workload,
        size=size,
        seed=seed,
        ir_text="\n".join(b.line() for b in blocks) + "\n",
        widths={b.name: b.out_channels for b in blocks},
        levels=levels,
        noise=0.05,
        **shape,
    )
