"""Independent checks of every file and line convrefine produces.

Nothing here imports convrefine.  The dumps are read with ``struct`` and
numpy, class means and Pearson matrices (``np.corrcoef``) are recomputed,
tallies are recounted, factors and lambda_o are recomputed in exact rational
arithmetic, conv parameter counts come from sum (in/g)*kh*kw*out (+out with
bias), and precision@k from ranking every positive label against every
class.  The file formats and formulas follow the convrefine README and
module documentation, not its code.

Each check returns a list of problems; an empty list passes.  A check that
raises on a malformed output fails with the exception text.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import LAMBDA, TIE_TOL

# |program - np.corrcoef| on the same float32 data; both run in float64.
CORR_TOL = 1e-10
# |correlation - synthesis target|: sixteen float32 ulps at 1.0.  The data
# is stored as float32, so the recovered matrices can only match the targets
# to storage precision (about 3e-9 is seen).
TARGET_TOL = 16 * 2.0**-24
# A pair whose |change| lies this close to tie_tol could be counted either
# way by a different summation order; such pairs are counted and reported.
NEAR_MARGIN = 1e-9
# The planner's documented snap: x/lambda within 1e-12 (relative) of an
# integer floors to that integer.
FLOOR_SNAP = Fraction(1, 10**12)
FLOAT_RTOL = 1e-12

ORACLE_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError, struct.error)


# ---------------------------------------------------------------- file readers


def read_atns(path) -> np.ndarray:
    """ATNS: "ATNS" u16 version=1, u16 rank, rank*u32 dims, float32 payload."""
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) != 8 or head[:4] != b"ATNS":
            raise ValueError(f"{path}: not an ATNS file")
        version, rank = struct.unpack("<HH", head[4:])
        if version != 1 or rank not in (2, 4):
            raise ValueError(f"{path}: version {version} rank {rank}")
        dims = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    data = np.fromfile(path, dtype="<f4", offset=8 + 4 * rank)
    if data.size != math.prod(dims):
        raise ValueError(f"{path}: {data.size} values for dims {dims}")
    return data.reshape(dims)


def read_atlb(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if buf[:4] != b"ATLB":
        raise ValueError(f"{path}: not an ATLB file")
    version, n = struct.unpack("<HI", buf[4:10])
    if version != 1 or len(buf) != 10 + 4 * n:
        raise ValueError(f"{path}: bad header or size")
    return np.frombuffer(buf, dtype="<u4", offset=10).astype(np.int64)


def read_atmh(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if buf[:4] != b"ATMH":
        raise ValueError(f"{path}: not an ATMH file")
    version, n, m = struct.unpack("<HII", buf[4:14])
    if version != 1 or len(buf) != 14 + n * m:
        raise ValueError(f"{path}: bad header or size")
    return np.frombuffer(buf, dtype=np.uint8, offset=14).reshape(n, m)


def read_manifest(path) -> tuple[dict[str, Path], Path]:
    path = Path(path)
    layers, labels = {}, None
    for line in path.read_text().splitlines():
        tok = line.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] == "layer":
            layers[tok[1]] = path.parent / tok[2]
        elif tok[0] == "labels":
            labels = path.parent / tok[1]
    return layers, labels


# ------------------------------------------------------------------ IR model


@dataclass
class IRBlock:
    name: str
    in_channels: int
    out_channels: int
    kh: int
    kw: int
    group: int
    stage: int
    bias: bool = False
    excluded: bool = False
    prev: list[str] = field(default_factory=list)


def parse_ir(text: str) -> list[IRBlock]:
    """Blocks in file order; raises ValueError on any malformed line."""
    blocks = []
    for line in text.splitlines():
        tok = line.split()
        if not tok or tok[0].startswith("#"):
            continue
        if tok[0] != "block" or len(tok) < 7:
            raise ValueError(f"bad IR line {line!r}")
        fields, flags, prev = {}, set(), []
        for t in tok[2:]:
            if t in ("bias", "excluded"):
                flags.add(t)
            elif t.startswith("prev="):
                prev = t[5:].split(",")
            else:
                key, _, value = t.partition("=")
                fields[key] = value
        kh, kw = (int(v) for v in fields["k"].split("x"))
        blocks.append(
            IRBlock(tok[1], int(fields["in"]), int(fields["out"]), kh, kw,
                    int(fields["group"]), int(fields["stage"]),
                    "bias" in flags, "excluded" in flags, prev)
        )
    return blocks


def canonical(blocks):
    return sorted(blocks, key=lambda b: (b.stage, b.name))


def structural_exclusions(blocks) -> set[str]:
    """Input-fed blocks, the final stage, and a trailing inception unit."""
    out = {b.name for b in blocks if not b.prev}
    last = max(b.stage for b in blocks)
    per_stage = {}
    for b in blocks:
        per_stage.setdefault(b.stage, []).append(b.name)
    out.update(per_stage[last])
    if last >= 1 and len(per_stage[last]) >= 2 and len(per_stage.get(last - 1, ())) >= 2:
        out.update(per_stage[last - 1])
    return out


def validate_ir(blocks) -> list[str]:
    problems = []
    by = {b.name: b for b in blocks}
    if len(by) != len(blocks):
        problems.append("duplicate block names")
    stages = {b.stage for b in blocks}
    if stages != set(range(len(stages))):
        problems.append(f"stages do not cover 0..{len(stages) - 1}")
    for b in blocks:
        for p in b.prev:
            if p not in by:
                problems.append(f"{b.name}: unknown producer {p}")
                continue
            if by[p].stage >= b.stage:
                problems.append(f"edge {p}->{b.name} does not advance the stage")
            if by[p].out_channels % b.group:
                problems.append(f"{b.name}: group {b.group} does not divide {p} width")
        if b.prev and b.in_channels != sum(by[p].out_channels for p in b.prev if p in by):
            problems.append(f"{b.name}: in={b.in_channels} is not the producers' total width")
        if b.in_channels % b.group or b.out_channels % b.group:
            problems.append(f"{b.name}: group {b.group} does not divide its widths")
    for name in structural_exclusions(blocks) - {b.name for b in blocks if b.excluded}:
        problems.append(f"{name}: must carry the excluded flag")
    return problems


def conv_params(blocks) -> dict[str, int]:
    return {
        b.name: (b.in_channels // b.group) * b.kh * b.kw * b.out_channels
        + (b.out_channels if b.bias else 0)
        for b in blocks
    }


def refine(blocks, factors) -> list[IRBlock]:
    """Apply (stretch, split) per block, as the rewriter documents it.

    Width: stretch*out rounded half up, then up to a multiple of the new
    group of the block and of each consumer; in_channels follow producers.
    """
    consumers = {b.name: [] for b in blocks}
    for b in blocks:
        for p in b.prev:
            consumers[p].append(b.name)
    group = {b.name: b.group * factors[b.name][1] for b in blocks}
    width = {}
    for b in blocks:
        raw = math.floor(b.out_channels * factors[b.name][0] + 0.5)
        step = math.lcm(group[b.name], *(group[c] for c in consumers[b.name]))
        width[b.name] = -(-raw // step) * step
    return [
        IRBlock(b.name, sum(width[p] for p in b.prev) if b.prev else b.in_channels,
                width[b.name], b.kh, b.kw, group[b.name], b.stage, b.bias, b.excluded,
                list(b.prev))
        for b in blocks
    ]


# --------------------------------------------------------- exact statistics


def class_means(manifest) -> dict[str, np.ndarray]:
    layers, labels_path = read_manifest(manifest)
    labels = read_atlb(labels_path)
    m = int(labels.max()) + 1
    if np.bincount(labels, minlength=m).min() == 0:
        raise ValueError("a class has no images")
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(m))
    counts = np.bincount(labels, minlength=m)[:, None]
    means = {}
    for name, path in layers.items():
        x = read_atns(path)
        pooled = x.mean(axis=(2, 3), dtype=np.float64) if x.ndim == 4 else x.astype(np.float64)
        means[name] = np.add.reduceat(pooled[order], starts, axis=0) / counts
    return means


@dataclass
class Tally:
    plus: int
    minus: int
    ties: int
    total: int
    near: int  # off-diagonal pairs with ||change| - tie_tol| <= NEAR_MARGIN


def tallies(blocks, corr, means, tie_tol) -> dict[str, Tally]:
    out = {}
    for b in canonical(blocks):
        if not b.prev:
            continue
        prev = corr[b.prev[0]] if len(b.prev) == 1 else np.corrcoef(
            np.concatenate([means[p] for p in b.prev], axis=1))
        diff = corr[b.name] - prev
        m = diff.shape[0]
        off = ~np.eye(m, dtype=bool)
        plus = int(np.count_nonzero((diff < -tie_tol) & off))
        minus = int(np.count_nonzero((diff > tie_tol) & off))
        near = int(np.count_nonzero((np.abs(np.abs(diff) - tie_tol) <= NEAR_MARGIN) & off))
        out[b.name] = Tally(plus, minus, m * m - plus - minus, m * m, near)
    return out


def snapped_floor(q: Fraction) -> int:
    nearest = round(q)
    if abs(q - nearest) <= FLOOR_SNAP * max(1, abs(q)):
        return nearest
    return math.floor(q)


def stage_ratios(blocks, tallies) -> list[Fraction | None]:
    """Mean n+/n_total over each stage's analysed (non-excluded) blocks."""
    excluded = structural_exclusions(blocks) | {b.name for b in blocks if b.excluded}
    per_stage = [[] for _ in range(max(b.stage for b in blocks) + 1)]
    for b in blocks:
        if b.name not in excluded and b.name in tallies:
            t = tallies[b.name]
            per_stage[b.stage].append(Fraction(t.plus, t.total))
    return [sum(v) / len(v) if v else None for v in per_stage]


def block_terms(blocks, tallies) -> dict[str, tuple | None]:
    """Per analysed block (x+, x-, case); None for excluded blocks.

    x+- = (n+- / n_total) * xi, where xi is the mean stage ratio of the
    stages after the block's own, the final stage left out.
    """
    excluded = structural_exclusions(blocks) | {b.name for b in blocks if b.excluded}
    ratios = stage_ratios(blocks, tallies)
    last = len(ratios) - 1
    terms = {}
    for b in blocks:
        if b.name in excluded:
            terms[b.name] = None
            continue
        window = [r for r in ratios[b.stage + 1 : max(b.stage + 1, last)] if r is not None]
        xi = sum(window) / len(window) if window else Fraction(0)
        t = tallies[b.name]
        terms[b.name] = (Fraction(t.plus, t.total) * xi, Fraction(t.minus, t.total) * xi,
                         "a" if t.plus < t.minus else "b")
    return terms


def exact_plan(terms, lam: Fraction):
    """{name: (stretch, split, case)} and lambda_o, all exact.

    Case a splits by 2**floor(x-/lambda) and never stretches; case b also
    stretches by 1 + lambda*floor(x+/lambda).  lambda_o is the largest
    quantity either case floors.
    """
    entries, floored = {}, []
    for name, term in terms.items():
        if term is None:
            entries[name] = (Fraction(1), 1, "x")
            continue
        x_plus, x_minus, case = term
        split = 2 ** snapped_floor(x_minus / lam)
        if case == "a":
            entries[name] = (Fraction(1), split, "a")
            floored.append(x_minus)
        else:
            entries[name] = (1 + lam * snapped_floor(x_plus / lam), split, "b")
            floored += [x_plus, x_minus]
    return entries, max(floored, default=Fraction(0))


def precision_exhaustive(scores: np.ndarray, truth: np.ndarray, k: int) -> Fraction:
    """Rank every positive label against every class of its image.

    rank = #classes scored higher + #lower-indexed classes scored equal;
    a positive is a hit when its rank is below min(#positives, k).
    """
    p = truth.sum(axis=1).astype(np.int64)
    take = np.minimum(p, k)
    rows, cols = np.nonzero(truth)
    hits = 0
    cls = np.arange(scores.shape[1])
    for lo in range(0, rows.size, 2048):
        r, c = rows[lo : lo + 2048], cols[lo : lo + 2048]
        s = scores[r]
        own = s[np.arange(r.size), c][:, None]
        rank = (s > own).sum(axis=1) + ((s == own) & (cls < c[:, None])).sum(axis=1)
        hits += int(np.count_nonzero(rank < take[r]))
    return Fraction(hits, int(take.sum()))


# ------------------------------------------------------------------- checks


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Expected:
    """Everything the oracle derives from the inputs alone."""

    blocks: list[IRBlock]
    corr: dict[str, np.ndarray]
    tallies: dict[str, Tally]
    terms: dict
    plan: dict
    lambda_o: Fraction
    precision: Fraction


def expected_from_inputs(spec, inputs) -> Expected:
    blocks = canonical(parse_ir(Path(inputs["ir"]).read_text()))
    for b in blocks:  # the IR parser adds the structural exclusions
        b.excluded |= b.name in structural_exclusions(blocks)
    means = class_means(inputs["manifest"])
    corr = {name: np.corrcoef(g) for name, g in means.items()}
    tl = tallies(blocks, corr, means, TIE_TOL)
    terms = block_terms(blocks, tl)
    plan, lambda_o = exact_plan(terms, Fraction(LAMBDA))
    scores = read_atns(inputs["scores"])
    precision = precision_exhaustive(scores, read_atmh(inputs["truth"]), spec.k)
    return Expected(blocks, corr, tl, terms, plan, lambda_o, precision)


def _close(a: float, b, rtol=FLOAT_RTOL) -> bool:
    return abs(a - float(b)) <= rtol * max(1.0, abs(float(b)))


def _kv(token: str, key: str) -> str:
    k, _, v = token.partition("=")
    if k != key:
        raise ValueError(f"expected {key}=, got {token!r}")
    return v


def check_correlation_csv(exp, name, path) -> tuple[list[str], np.ndarray]:
    text = Path(path).read_text()
    m = exp.corr[name].shape[0]
    values = np.fromstring(text.replace("\n", ","), sep=",")
    if text.count("\n") != m or not text.endswith("\n") or values.size != m * m:
        return [f"{path}: expected {m}x{m} values"], None
    c = values.reshape(m, m)
    problems = []
    err = float(np.abs(c - exp.corr[name]).max())
    if err > CORR_TOL:
        problems.append(f"{name}: differs from np.corrcoef by {err:.3g}")
    return problems, c


def check_corr_properties(name, c, target) -> list[str]:
    problems = []
    if not np.array_equal(c, c.T):
        problems.append(f"{name}: matrix not symmetric")
    if not np.all(np.diag(c) == 1.0):
        problems.append(f"{name}: diagonal not 1")
    err = float(np.abs(c - target).max())
    if err > TARGET_TOL:
        problems.append(f"{name}: differs from its synthesis target by {err:.3g}")
    return problems


def check_pgm(path, c) -> list[str]:
    buf = Path(path).read_bytes()
    h, w = c.shape
    head = f"P5\n{w} {h}\n255\n".encode()
    want = np.clip(np.rint((c + 1.0) * 127.5), 0, 255).astype(np.uint8).tobytes()
    return [] if buf == head + want else [f"{path}: heatmap bytes differ from the CSV values"]


def check_tallies(exp, path) -> list[str]:
    problems = []
    lines = Path(path).read_text().splitlines()
    names = [b.name for b in exp.blocks if b.name in exp.tallies]
    if [ln.split()[1] for ln in lines] != names:
        return [f"{path}: blocks or order differ from the IR"]
    stage = {b.name: b.stage for b in exp.blocks}
    for ln in lines:
        tok = ln.split()
        name = tok[1]
        got = [int(_kv(t, k)) for t, k in zip(tok[2:], ("stage", "plus", "minus", "ties", "total"))]
        t = exp.tallies[name]
        if got[0] != stage[name] or got[4] != t.total:
            problems.append(f"{name}: stage/total {got[0]}/{got[4]}")
        if got[1] + got[2] + got[3] != got[4]:
            problems.append(f"{name}: n+ + n- + ties != M^2")
        if abs(got[1] - t.plus) > t.near or abs(got[2] - t.minus) > t.near:
            problems.append(
                f"{name}: tally {got[1]}/{got[2]} vs oracle {t.plus}/{t.minus}"
                f" with {t.near} pair(s) at the tie_tol margin"
            )
    return problems


def parse_plan_file(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    lam = float(_kv(lines[0], "lambda"))
    lambda_o = float(_kv(lines[1], "lambda_o"))
    entries = {}
    for ln in lines[2:]:
        tok = ln.split()
        if tok[0] != "plan":
            raise ValueError(f"bad plan line {ln!r}")
        entries[tok[1]] = (float(_kv(tok[2], "stretch")), int(_kv(tok[3], "split")),
                           _kv(tok[4], "case"))
    return lam, lambda_o, entries


def factor_problems(where, got: dict, want: dict) -> list[str]:
    problems = []
    if set(got) != set(want):
        return [f"{where}: block set differs"]
    for name, (stretch, split, case) in want.items():
        g = got[name]
        if not _close(g[0], stretch) or g[1] != split or g[2] != case:
            problems.append(f"{where} {name}: {g} vs exact ({float(stretch)!r}, {split}, {case})")
        if g[1] < 1 or g[1] & (g[1] - 1):
            problems.append(f"{where} {name}: split {g[1]} is not a power of two")
    return problems


def check_plan(exp, path, stdout) -> list[str]:
    lam, lambda_o, entries = parse_plan_file(Path(path).read_text())
    problems = factor_problems("plan", entries, exp.plan)
    if lam != LAMBDA:
        problems.append(f"plan lambda {lam}")
    if not _close(lambda_o, exp.lambda_o):
        problems.append(f"lambda_o {lambda_o!r} vs exact {float(exp.lambda_o)!r}")
    if f"lambda_o={lambda_o!r}" not in stdout.splitlines():
        problems.append("plan stdout does not print the file's lambda_o")
    return problems


def check_plan_nontrivial(exp) -> list[str]:
    """The workload must exercise both cases, or the planner does no work."""
    case_a = any(c == "a" and s > 1 for _, s, c in exp.plan.values())
    case_b = any(c == "b" and st > 1 for st, _, c in exp.plan.values())
    return [] if case_a and case_b else ["lambda=0.25 plan lacks a split case-a or stretched case-b block"]


def check_refined(exp, plan_path, ir_path) -> list[str]:
    _, _, entries = parse_plan_file(Path(plan_path).read_text())
    refined = parse_ir(Path(ir_path).read_text())
    problems = validate_ir(refined)
    if [b.name for b in refined] != [b.name for b in canonical(refined)]:
        problems.append("refined IR is not in (stage, name) order")
    want = refine(exp.blocks, {n: (s, g) for n, (s, g, _) in entries.items()})
    if canonical(refined) != want:
        problems.append("refined IR differs from the stretch/split arithmetic")
    return problems


def check_size_reports(exp, plan_path, txt_path, csv_path, stdout) -> list[str]:
    _, _, entries = parse_plan_file(Path(plan_path).read_text())
    before = conv_params(exp.blocks)
    after = conv_params(refine(exp.blocks, {n: (s, g) for n, (s, g, _) in entries.items()}))
    b_tot, a_tot = sum(before.values()), sum(after.values())
    pct = 100.0 * (1.0 - a_tot / b_tot)
    problems = []
    lines = Path(txt_path).read_text().splitlines()
    head = [int(_kv(lines[0], "original_conv_params")), int(_kv(lines[1], "refined_conv_params"))]
    if head != [b_tot, a_tot] or not _close(float(_kv(lines[2], "reduction_pct")), pct):
        problems.append(f"size report totals {head} vs {[b_tot, a_tot]}")
    if len(lines) != len(exp.blocks) + 3:
        problems.append("size report has not one row per block")
    for ln, b in zip(lines[3:], exp.blocks):
        tok = ln.split()
        got = (tok[1], int(_kv(tok[2], "before")), int(_kv(tok[3], "after")))
        if got != (b.name, before[b.name], after[b.name]):
            problems.append(f"size report row {got}")
    rows = Path(csv_path).read_text().splitlines()
    if rows[0] != "block,before,after,delta_pct" or len(rows) != len(exp.blocks) + 2:
        problems.append("size CSV shape")
    for row, b in zip(rows[1:], exp.blocks):
        f = row.split(",")
        if (f[0], int(f[1]), int(f[2])) != (b.name, before[b.name], after[b.name]):
            problems.append(f"size CSV row {row}")
    f = rows[-1].split(",")
    if f[0] != "TOTAL" or (int(f[1]), int(f[2])) != (b_tot, a_tot) or not _close(float(f[3]), pct):
        problems.append(f"size CSV total {rows[-1]}")
    if not any(ln.startswith("reduction_pct=") and _close(float(ln[14:]), pct)
               for ln in stdout.splitlines()):
        problems.append("apply stdout reduction_pct")
    return problems


def check_sweep(exp, path, steps, stdout) -> list[str]:
    lines = Path(path).read_text().splitlines()
    lambda_o = float(_kv(lines[0][2:], "lambda_o"))
    problems = []
    if not _close(lambda_o, exp.lambda_o):
        problems.append(f"sweep lambda_o {lambda_o!r}")
    if f"lambda_o={lambda_o!r}" not in stdout.splitlines():
        problems.append("sweep stdout lambda_o")
    names = [b.name for b in exp.blocks]
    header = ["lambda", "above_lambda_o", "conv_params"]
    header += [f"{n}_{k}" for n in names for k in ("stretch", "split")]
    if lines[1].split(",") != header:
        return problems + ["sweep header"]
    rows = lines[2:]
    if len(rows) != steps:
        return problems + [f"{len(rows)} sweep rows, expected {steps}"]
    lo, hi = 0.05, max(lambda_o, 0.05)
    prev_split = None
    for i, row in enumerate(rows):
        f = row.split(",")
        lam = float(f[0])
        want_lam = lo + (hi - lo) * i / (steps - 1) if steps > 1 else lo
        if not _close(lam, want_lam):
            problems.append(f"row {i}: lambda {lam!r} vs grid {want_lam!r}")
        if int(f[1]) != int(lam > lambda_o):
            problems.append(f"row {i}: above_lambda_o flag")
        got = {n: (float(f[3 + 2 * j]), int(f[4 + 2 * j])) for j, n in enumerate(names)}
        want, _ = exact_plan(exp.terms, Fraction(lam))
        problems += factor_problems(
            f"row {i}", {n: (*got[n], want[n][2]) for n in names}, want)
        params = sum(conv_params(refine(exp.blocks, got)).values())
        if int(f[2]) != params:
            problems.append(f"row {i}: conv_params {f[2]} vs {params}")
        split = [got[n][1] for n in names]
        if prev_split is not None and any(s > p for s, p in zip(split, prev_split)):
            problems.append(f"row {i}: a split grew as lambda grew")
        prev_split = split
        if len(problems) > 20:
            break
    return problems


def check_precision(exp, stdout) -> list[str]:
    want = float(exp.precision)
    got = [ln for ln in stdout.splitlines() if ln.startswith("precision_at_k=")]
    if got != [f"precision_at_k={want!r}"]:
        return [f"precision stdout {got} vs exact {exp.precision} = {want!r}"]
    return []


def run_checks(spec, inputs, out, stdouts) -> tuple[list[Check], dict]:
    """Check every output under ``out`` and every command's stdout.

    Returns the checks and a summary (near-tie pairs and plan shape) for the
    run's context record.
    """
    checks: list[Check] = []

    def check(name, fn, *args):
        try:
            problems = fn(*args)
        except ORACLE_ERRORS as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        checks.append(Check(name, not problems, "; ".join(problems[:3])))

    try:
        exp = expected_from_inputs(spec, inputs)
    except ORACLE_ERRORS as exc:
        return [Check("oracle.inputs", False, f"{type(exc).__name__}: {exc}")], {}
    out = Path(out)
    analysis = out / "analysis"
    targets = spec.targets()
    n_tallied = len(exp.tallies)
    check("analyze.stdout", lambda: [] if stdouts["analyze"].startswith(
        f"analyzed {len(exp.blocks)} layers, {n_tallied} tallies") else ["analyze stdout"])
    expected_files = {f"{b.name}.corr.{ext}" for b in exp.blocks for ext in ("csv", "pgm")}
    expected_files.add("tallies.txt")
    check("analyze.files", lambda: [] if {p.name for p in analysis.iterdir()} == expected_files
          else ["analysis/ holds other files than one CSV and PGM per block plus tallies"])
    for b in exp.blocks:
        try:
            problems, c = check_correlation_csv(exp, b.name, analysis / f"{b.name}.corr.csv")
        except ORACLE_ERRORS as exc:
            problems, c = [f"{type(exc).__name__}: {exc}"], None
        checks.append(Check(f"analyze.csv.{b.name}", not problems, "; ".join(problems[:3])))
        if c is None:
            c = np.full_like(exp.corr[b.name], np.nan)
        check(f"props.corr.{b.name}", check_corr_properties, b.name, c, targets[b.name])
        check(f"analyze.pgm.{b.name}", check_pgm, analysis / f"{b.name}.corr.pgm", c)
    check("analyze.tallies", check_tallies, exp, analysis / "tallies.txt")
    plan_path = out / "plans" / f"lambda_{LAMBDA!r}.plan"
    check("plan.file", check_plan, exp, plan_path, stdouts["plan"])
    check("props.plan_nontrivial", check_plan_nontrivial, exp)
    check("apply.refined_ir", check_refined, exp, plan_path, out / "refined" / "refined.ir")
    check("apply.size_reports", check_size_reports, exp, plan_path,
          out / "reports" / "size_report.txt", out / "reports" / "size_report.csv",
          stdouts["apply"])
    check("sweep.csv", check_sweep, exp, out / "reports" / "sweep.csv", spec.sweep_steps,
          stdouts["sweep"])
    check("precision.stdout", check_precision, exp, stdouts["precision"])
    summary = {
        "near_tie_pairs": sum(t.near for t in exp.tallies.values()),
        "offdiag_ties": sum(t.ties - int(math.isqrt(t.total)) for t in exp.tallies.values()),
        "case_a_split": sum(1 for _, s, c in exp.plan.values() if c == "a" and s > 1),
        "case_b_stretch": sum(1 for st, _, c in exp.plan.values() if c == "b" and st > 1),
        "lambda_o": float(exp.lambda_o),
        "precision_at_k": float(exp.precision),
    }
    return checks, summary
