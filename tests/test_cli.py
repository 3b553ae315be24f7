import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import convrefine
from convrefine import cli, netir, sepstats
from convrefine.cli import main
from convrefine.evalkit import write_truth_file
from convrefine.featio import (
    read_labels_file,
    scan_manifest,
    write_labels_file,
    write_tensor_file,
)
from convrefine.netir import parse_network, serialize_network
from convrefine.planner import parse_plan
from convrefine.sepstats import DegenerateClassWarning

from conftest import (
    FIXTURES,
    chain_ir,
    correlation_layer,
    poison,
    reference_csv,
    shrink_after_recheck,
    write_dumps,
)

CHAIN_IR = "\n".join(
    f"block conv{i} in={3 if i == 0 else 16} out=16 k=3x3 group=1 stage={i}"
    + (f" prev=conv{i - 1}" if i else "")
    for i in range(6)
) + "\n"

PROFILE = {
    "num_classes": 4,
    "images_per_class": 5,
    "layers": [
        {"name": f"conv{i}", "width": 16, "rho": rho}
        for i, rho in enumerate([0.1, 0.3, 0.6, 0.4, 0.2, 0.05])
    ],
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "net.ir").write_text(CHAIN_IR)
    (tmp_path / "profile.json").write_text(json.dumps(PROFILE))
    rc = main(
        ["synth", "--profile", str(tmp_path / "profile.json"), "--seed", "7",
         "--out", str(tmp_path / "dumps")]
    )
    assert rc == 0
    return tmp_path


def _run(*argv):
    return main([str(a) for a in argv])


def _target_profile(matrix, rho=None) -> bytes:
    """A 3-class profile whose layer l1 has target ``matrix``, and layer l2 ``rho`` if given."""
    layers = [{"name": "l1", "width": 4, "matrix": matrix}]
    if rho is not None:
        layers.append({"name": "l2", "width": 4, "rho": rho})
    return json.dumps({"num_classes": 3, "images_per_class": 2, "layers": layers}).encode()


def _degenerate_class_one(workdir, layer="conv4"):
    """Overwrite ``layer``'s dump so that class 1 has a constant mean."""
    labels = read_labels_file(workdir / "dumps" / "labels.atlb")
    feats = np.random.default_rng(5).standard_normal((labels.size, 16))
    feats[labels == 1] = 3.25
    write_tensor_file(workdir / "dumps" / f"{layer}.atns", feats)


def test_analyze_outputs(workdir, capsys):
    # class 1 of conv4 gets a constant mean, so its row and column are zeros
    manifest = workdir / "dumps" / "manifest.txt"
    _degenerate_class_one(workdir)
    out = workdir / "run"
    with pytest.warns(DegenerateClassWarning, match=r"layer conv4: .* class\(es\) \[1\]"):
        rc = _run("analyze", "--ir", workdir / "net.ir", "--manifest", manifest, "--out", out)
    assert rc == 0
    means = dict(scan_manifest(manifest, parse_network(CHAIN_IR)))
    for i in range(6):
        assert (out / "analysis" / f"conv{i}.corr.pgm").exists()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateClassWarning)
            matrix = correlation_layer(f"conv{i}", means[f"conv{i}"])
        csv = (out / "analysis" / f"conv{i}.corr.csv").read_bytes()
        assert csv == reference_csv(matrix).encode("ascii")
    conv4_rows = (out / "analysis" / "conv4.corr.csv").read_text().splitlines()
    assert conv4_rows[1] == "0.0,0.0,0.0,0.0"
    assert all(row.split(",")[1] == "0.0" for row in conv4_rows)
    tallies = (out / "analysis" / "tallies.txt").read_text()
    assert tallies.count("\n") == 5  # one line per block with a predecessor
    assert "tally conv1 stage=1" in tallies


def test_analyze_deterministic(workdir):
    for d in ("r1", "r2"):
        assert _run("analyze", "--ir", workdir / "net.ir", "--manifest",
                    workdir / "dumps" / "manifest.txt", "--out", workdir / d) == 0
    for rel in ["analysis/conv3.corr.csv", "analysis/conv3.corr.pgm", "analysis/tallies.txt"]:
        assert (workdir / "r1" / rel).read_bytes() == (workdir / "r2" / rel).read_bytes()


def test_analyze_without_tallies_writes_one_line_end(workdir):
    # a lone block has no predecessor, so no tally
    (workdir / "one.ir").write_text(CHAIN_IR.splitlines()[0] + "\n")
    manifest = workdir / "dumps" / "one.txt"
    manifest.write_text("layer conv0 conv0.atns\nlabels labels.atlb\n")
    rc = _run("analyze", "--ir", workdir / "one.ir", "--manifest", manifest,
              "--out", workdir / "run")
    assert rc == 0
    assert (workdir / "run" / "analysis" / "tallies.txt").read_bytes() == b"\n"


def test_plan_and_apply(workdir, capsys):
    out = workdir / "run"
    rc = _run("plan", "--ir", workdir / "net.ir", "--manifest",
              workdir / "dumps" / "manifest.txt", "--out", out)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "lambda_o=" in printed
    plan_path = out / "plans" / "lambda_0.25.plan"
    plan = parse_plan(plan_path.read_text())
    assert plan.lambda_used == 0.25  # default when --lambda is omitted
    assert plan.per_block["conv2"].case == "a"
    assert plan.per_block["conv2"].split >= 2
    assert plan.per_block["conv3"].stretch >= 1.25

    rc = _run("apply", "--ir", workdir / "net.ir", "--plan", plan_path, "--out", out)
    assert rc == 0
    refined = parse_network((out / "refined" / "refined.ir").read_text())
    assert refined.block("conv2").group == plan.per_block["conv2"].split
    assert (out / "reports" / "size_report.txt").exists()
    assert (out / "reports" / "size_report.csv").exists()


def test_apply_identity_plan(workdir, tmp_path):
    ir = parse_network(CHAIN_IR)
    plan_path = tmp_path / "id.plan"
    lines = ["lambda=0.25", "lambda_o=0.0"]
    for b in ir.blocks:
        case = "x" if b.excluded else "b"
        lines.append(f"plan {b.name} stretch=1.0 split=1 case={case}")
    plan_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert _run("apply", "--ir", workdir / "net.ir", "--plan", plan_path, "--out", out) == 0
    assert (out / "refined" / "refined.ir").read_text() == serialize_network(ir)
    assert "reduction_pct=0.0" in (out / "reports" / "size_report.txt").read_text()


def test_plan_above_lambda_o_warns_identity(workdir, capsys):
    out = workdir / "run"
    rc = _run("plan", "--ir", workdir / "net.ir", "--manifest",
              workdir / "dumps" / "manifest.txt", "--lambda", "5.0", "--out", out)
    assert rc == 0
    captured = capsys.readouterr()
    assert "exceeds lambda_o" in captured.err
    plan = parse_plan((out / "plans" / "lambda_5.0.plan").read_text())
    assert all(e.stretch == 1.0 and e.split == 1 for e in plan.per_block.values())


@pytest.mark.filterwarnings("ignore::convrefine.rewriter.WidthRoundingWarning")
def test_sweep(workdir):
    # the low end of the grid asks for splits wider than the 16-channel
    # blocks, so width-rounding warnings are expected here
    out = workdir / "run"
    rc = _run("sweep", "--ir", workdir / "net.ir", "--manifest",
              workdir / "dumps" / "manifest.txt", "--sweep-min", "0.05",
              "--sweep-max", "0.8", "--sweep-steps", "6", "--out", out)
    assert rc == 0
    lines = (out / "reports" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("# lambda_o=")
    header = lines[1].split(",")
    assert header[:3] == ["lambda", "above_lambda_o", "conv_params"]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 6
    lambda_o = float(lines[0].split("=", 1)[1])
    for row in rows:
        if float(row[0]) > lambda_o:
            assert row[1] == "1"
            stretches = row[3::2]
            assert all(float(s) == 1.0 for s in stretches)
            assert all(int(s) == 1 for s in row[4::2])
    # split columns fall monotonically as lambda grows
    for prev, cur in zip(rows, rows[1:]):
        assert all(int(c) <= int(p) for p, c in zip(prev[4::2], cur[4::2]))


def test_sweep_u32_error_names_lambda(tmp_path, capsys):
    # at lambda 0.001 conv2_1's split leaves the u32 bound of the IR grammar;
    # the planner refuses it before conv1_1's width is rounded up to that group
    blocks = parse_network((FIXTURES / "vgg11.ir").read_text()).blocks
    rhos = [0.1, 0.3, 0.6, 0.4, 0.2, 0.05, 0.3, 0.1]
    profile = dict(PROFILE, layers=[
        {"name": b.name, "width": b.out_channels, "rho": r} for b, r in zip(blocks, rhos)
    ])
    (tmp_path / "vgg.json").write_text(json.dumps(profile))
    assert _run("synth", "--profile", tmp_path / "vgg.json", "--seed", "7", "--flat",
                "--out", tmp_path / "dumps") == 0
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run("sweep", "--ir", FIXTURES / "vgg11.ir", "--manifest",
                  tmp_path / "dumps" / "manifest.txt", "--sweep-min", "0.001", "--out", out)
    assert rc == 1
    assert caught == []  # the plan is refused before any width is rounded
    err = capsys.readouterr().err
    assert err.startswith("error: lambda=0.001: block conv2_1: split 2**")
    assert err.endswith("does not fit in a u32\n")
    assert err.count("\n") == 1
    assert not (out / "reports" / "sweep.csv").exists()


@pytest.mark.parametrize("command, option", [("plan", "--lambda"), ("sweep", "--sweep-min")])
@pytest.mark.parametrize("lam", ["1e-300", "1e-6"])
def test_small_lambda_names_the_split_past_u32(workdir, capsys, command, option, lam):
    # the split is refused from its exponent: at 1e-300 the split itself
    # would need about 1e300 bits, at 1e-6 its digits could not be printed
    out = workdir / "run"
    rc = _run(command, "--ir", workdir / "net.ir", "--manifest",
              workdir / "dumps" / "manifest.txt", option, lam, "--out", out)
    assert rc == 1
    prefix = f"lambda={float(lam)!r}: " if command == "sweep" else ""
    assert re.fullmatch(rf"error: {re.escape(prefix)}block conv1: split 2\*\*\d+"
                        r" does not fit in a u32\n", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, option", [("plan", "--lambda"), ("sweep", "--sweep-min")])
def test_subnormal_lambda_is_too_small(workdir, capsys, command, option):
    # conv1's x-/5e-324 overflows: one line, not a split of 2**inf
    out = workdir / "run"
    rc = _run(command, "--ir", workdir / "net.ir", "--manifest",
              workdir / "dumps" / "manifest.txt", option, "5e-324", "--out", out)
    assert rc == 1
    prefix = "lambda=5e-324: " if command == "sweep" else ""
    assert capsys.readouterr().err == (
        f"error: {prefix}block conv1: lambda 5e-324 is too small, x/lambda overflows\n"
    )
    assert not out.exists()


def _reversed_manifest(workdir):
    """The workdir's manifest with its layer lines in reverse IR order."""
    lines = (workdir / "dumps" / "manifest.txt").read_text().splitlines()
    manifest = workdir / "dumps" / "reversed.txt"
    manifest.write_text("\n".join(sorted(lines, reverse=True)) + "\n")
    return manifest


@pytest.mark.parametrize("command", ["analyze", "plan", "sweep"])
def test_payload_faults_come_in_ir_order(workdir, capsys, command):
    # the manifest lists conv4 before conv2; both payloads hold a NaN
    manifest = _reversed_manifest(workdir)
    for name, index in [("conv2", 3), ("conv4", 7)]:
        poison(workdir / "dumps" / f"{name}.atns", index)
    rc = _run(command, "--ir", workdir / "net.ir", "--manifest", manifest,
              "--out", workdir / "run")
    assert rc == 1
    dump = workdir / "dumps" / "conv2.atns"
    assert capsys.readouterr().err == f"error: {dump}: non-finite value at flat index 3\n"


@pytest.mark.parametrize("strict", [False, True])
def test_degenerate_layer_reports_before_a_later_payload_fault(workdir, strict):
    # conv1 has a constant class mean; conv4, later in IR order, a NaN
    _degenerate_class_one(workdir, "conv1")
    poison(workdir / "dumps" / "conv4.atns")
    proc = _run_module("plan", "--ir", workdir / "net.ir", "--manifest",
                       _reversed_manifest(workdir), "--out", workdir / "run",
                       *(["--strict-degenerate"] if strict else []))
    assert proc.returncode == 1
    degenerate = ("layer conv1: constant class mean vector(s) for class(es) [1];"
                  " correlations set to 0")
    if strict:
        assert proc.stderr == f"error: {degenerate}\n"
    else:
        dump = workdir / "dumps" / "conv4.atns"
        assert proc.stderr == (f"warning: DegenerateClassWarning: {degenerate}\n"
                               f"error: {dump}: non-finite value at flat index 0\n")


# c reads the concatenation of a and b; class 1 is constant, at one value, in a, b and c
DEGENERATE_CONCAT_IR = """\
block a in=3 out=4 k=1x1 group=1 stage=0
block b in=3 out=4 k=1x1 group=1 stage=0
block c in=8 out=4 k=1x1 group=1 stage=1 prev=a,b
block d in=4 out=4 k=1x1 group=1 stage=2 prev=c
"""


@pytest.mark.parametrize("strict", [False, True])
def test_degenerate_concatenation_reports_in_stream_order(tmp_path, strict):
    (tmp_path / "net.ir").write_text(DEGENERATE_CONCAT_IR)
    rng = np.random.default_rng(43)
    feats = {name: rng.standard_normal((3, 4)) for name in "abcd"}
    for name in "abc":
        feats[name][1] = 0.5
    manifest = write_dumps(tmp_path, feats, np.arange(3))
    proc = _run_module("plan" if strict else "analyze", "--ir", tmp_path / "net.ir",
                       "--manifest", manifest, "--out", tmp_path / "run",
                       *(["--strict-degenerate"] if strict else []))
    degenerate = "constant class mean vector(s) for class(es) [1]; correlations set to 0"
    if strict:
        # the first degenerate matrix in stream order is a producer's
        assert (proc.returncode, proc.stderr) == (1, f"error: layer a: {degenerate}\n")
    else:
        # the concatenation's matrix is formed at its first consumer, before c's own
        assert proc.returncode == 0
        assert proc.stderr == "".join(
            f"warning: DegenerateClassWarning: layer {layer}: {degenerate}\n"
            for layer in ["a", "b", "a+b", "c"])


def test_plan_statistics_peak_does_not_grow_with_depth(tmp_path):
    # plan, sweep and iterate hold the live layers only, not every layer's
    # means and matrix: 12 layers of 64 classes x 64 units peak as 3 do
    def peak(depth):
        dumps = tmp_path / f"chain{depth}"
        dumps.mkdir()
        ir = chain_ir([64] * depth)
        write_labels_file(dumps / "labels.atlb", np.arange(128) % 64)
        rng = np.random.default_rng(depth)
        for b in ir.blocks:
            write_tensor_file(dumps / f"{b.name}.atns", rng.standard_normal((128, 64)))
        (dumps / "m.txt").write_text(
            "".join(f"layer {b.name} {b.name}.atns\n" for b in ir.blocks) + "labels labels.atlb\n"
        )
        args = argparse.Namespace(tie_tol=1e-6, strict_degenerate=False)
        tracemalloc.start()
        try:
            cli._statistics(args, ir, dumps / "m.txt")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12) <= 1.25 * peak(3)


def test_iterate_composes_groups(workdir):
    # a profile that splits conv2 but stretches nothing, so block widths stay
    # put and the same dumps stay valid for the next round
    profile = dict(PROFILE)
    profile["layers"] = [
        {"name": f"conv{i}", "width": 16, "rho": rho}
        for i, rho in enumerate([0.1, 0.1, 0.5, 0.2, 0.2, 0.2])
    ]
    (workdir / "p2.json").write_text(json.dumps(profile))
    assert _run("synth", "--profile", workdir / "p2.json", "--seed", "7",
                "--out", workdir / "d2") == 0
    out = workdir / "run"
    manifest = workdir / "d2" / "manifest.txt"
    rc = _run("iterate", "--ir", workdir / "net.ir", "--manifest", manifest,
              "--manifest", manifest, "--tie-tol", "1e-4", "--out", out)
    assert rc == 0
    r1 = parse_network((out / "refined" / "round_1.ir").read_text())
    r2 = parse_network((out / "refined" / "round_2.ir").read_text())
    assert r1.block("conv2").group == 2
    assert r2.block("conv2").group == 4  # splits compose across rounds
    assert (out / "plans" / "round_1.plan").exists()
    assert (out / "reports" / "round_2_size.txt").exists()


def test_plan_emits_literal_case_b_line(workdir):
    # falling correlations at conv2 with xi = 0.375 put its stretch term at
    # 0.28125: exactly one lambda step, stretch 1.25, nothing to split
    profile = dict(PROFILE)
    profile["layers"] = [
        {"name": f"conv{i}", "width": 16, "rho": rho}
        for i, rho in enumerate([0.5, 0.4, 0.2, 0.1, 0.1, 0.1])
    ]
    (workdir / "p3.json").write_text(json.dumps(profile))
    assert _run("synth", "--profile", workdir / "p3.json", "--seed", "3",
                "--out", workdir / "d3") == 0
    out = workdir / "run3"
    assert _run("plan", "--ir", workdir / "net.ir", "--manifest",
                workdir / "d3" / "manifest.txt", "--tie-tol", "1e-4",
                "--out", out) == 0
    plan_text = (out / "plans" / "lambda_0.25.plan").read_text()
    assert "plan conv2 stretch=1.25 split=1 case=b" in plan_text


def test_sweep_single_point_equals_plan(workdir):
    out = workdir / "run"
    assert _run("plan", "--ir", workdir / "net.ir", "--manifest",
                workdir / "dumps" / "manifest.txt", "--out", out) == 0
    plan = parse_plan((out / "plans" / "lambda_0.25.plan").read_text())
    assert _run("sweep", "--ir", workdir / "net.ir", "--manifest",
                workdir / "dumps" / "manifest.txt", "--sweep-min", "0.25",
                "--sweep-max", "0.25", "--sweep-steps", "1", "--out", out) == 0
    lines = (out / "reports" / "sweep.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = lines[2].split(",")
    for i in range(6):
        assert float(row[header.index(f"conv{i}_stretch")]) == plan.per_block[f"conv{i}"].stretch
        assert int(row[header.index(f"conv{i}_split")]) == plan.per_block[f"conv{i}"].split


# c and d read the same concatenation of a and b
SHARED_PREV_IR = """\
block a in=3 out=8 k=1x1 group=1 stage=0
block b in=3 out=8 k=1x1 group=1 stage=0
block c in=16 out=8 k=1x1 group=1 stage=1 prev=a,b
block d in=16 out=8 k=3x3 group=1 stage=1 prev=a,b
block e in=16 out=8 k=1x1 group=1 stage=2 prev=c,d
block f in=8 out=8 k=1x1 group=1 stage=3 prev=e
"""


@pytest.mark.filterwarnings("ignore::convrefine.rewriter.WidthRoundingWarning")
def test_sweep_checks_structure_once_and_shares_stacked_correlations(tmp_path, monkeypatch):
    (tmp_path / "net.ir").write_text(SHARED_PREV_IR)
    profile = dict(PROFILE, layers=[
        {"name": n, "width": 8, "rho": r} for n, r in zip("abcdef", [0.1, 0.3, 0.6, 0.4, 0.2, 0.05])
    ])
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    assert _run("synth", "--profile", tmp_path / "profile.json", "--seed", "7",
                "--out", tmp_path / "dumps") == 0
    structural, correlated = [], []

    def counted(record, fn):
        def wrapper(*args, **kwargs):
            record.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(netir, "validate_network", counted(structural, netir.validate_network))
    # every matrix, streamed or copied, is one _correlate call
    monkeypatch.setattr(sepstats, "_correlate", counted(correlated, sepstats._correlate))
    assert _run("sweep", "--ir", tmp_path / "net.ir", "--manifest",
                tmp_path / "dumps" / "manifest.txt", "--sweep-steps", "20",
                "--out", tmp_path / "run") == 0
    assert len((tmp_path / "run" / "reports" / "sweep.csv").read_text().splitlines()) == 22
    # the parse checks the structure; a sweep that passes builds no refined IR
    assert len(structural) == 1
    # one matrix per block and one per distinct concatenation, formed at its first consumer
    assert correlated == ["a", "b", "a+b", "c", "d", "c+d", "e", "f"]


def test_iterate_single_round_equals_plan_apply(workdir):
    manifest = workdir / "dumps" / "manifest.txt"
    it_out = workdir / "it"
    assert _run("iterate", "--ir", workdir / "net.ir", "--manifest", manifest,
                "--out", it_out) == 0
    pl_out = workdir / "pl"
    assert _run("plan", "--ir", workdir / "net.ir", "--manifest", manifest,
                "--out", pl_out) == 0
    assert _run("apply", "--ir", workdir / "net.ir",
                "--plan", pl_out / "plans" / "lambda_0.25.plan", "--out", pl_out) == 0
    assert (it_out / "refined" / "round_1.ir").read_text() == (
        pl_out / "refined" / "refined.ir"
    ).read_text()


def test_iterate_identity_tallies_fixed_point(workdir):
    # constant correlation profile: every layer ties, every round is identity
    profile = dict(PROFILE)
    profile["layers"] = [
        {"name": f"conv{i}", "width": 16, "rho": 0.3} for i in range(6)
    ]
    (workdir / "p4.json").write_text(json.dumps(profile))
    assert _run("synth", "--profile", workdir / "p4.json", "--seed", "9",
                "--out", workdir / "d4") == 0
    out = workdir / "fix"
    manifest = workdir / "d4" / "manifest.txt"
    assert _run("iterate", "--ir", workdir / "net.ir", "--manifest", manifest,
                "--manifest", manifest, "--tie-tol", "1e-4", "--out", out) == 0
    base = serialize_network(parse_network(CHAIN_IR))
    assert (out / "refined" / "round_1.ir").read_text() == base
    assert (out / "refined" / "round_2.ir").read_text() == base


def test_manifest_without_a_blocks_dump_fails(workdir, capsys):
    manifest = workdir / "dumps" / "partial.txt"
    lines = (workdir / "dumps" / "manifest.txt").read_text().splitlines()
    manifest.write_text("\n".join(line for line in lines if "conv3" not in line) + "\n")
    rc = _run("analyze", "--ir", workdir / "net.ir", "--manifest", manifest,
              "--out", workdir / "run")
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {manifest}: manifest has no dumps for block(s) ['conv3']" in err
    assert not (workdir / "run").exists()


def test_empty_manifest_fails(workdir, capsys):
    bad = workdir / "empty.txt"
    bad.write_text("# nothing\n")
    rc = _run("analyze", "--ir", workdir / "net.ir", "--manifest", bad,
              "--out", workdir / "run")
    assert rc == 1
    assert "lists no layers" in capsys.readouterr().err


def test_strict_degenerate_names_layer(workdir, capsys):
    # overwrite one dump with constant features: every class mean is constant
    feats = np.full((20, 16), 3.25, dtype=np.float32)
    write_tensor_file(workdir / "dumps" / "conv4.atns", feats)
    rc = _run("analyze", "--ir", workdir / "net.ir", "--manifest",
              workdir / "dumps" / "manifest.txt", "--strict-degenerate",
              "--out", workdir / "run")
    assert rc == 1
    assert "conv4" in capsys.readouterr().err


def test_analyze_warns_once_per_degenerate_layer(workdir):
    feats = np.full((20, 16), 3.25, dtype=np.float32)
    write_tensor_file(workdir / "dumps" / "conv4.atns", feats)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run("analyze", "--ir", workdir / "net.ir", "--manifest",
                  workdir / "dumps" / "manifest.txt", "--out", workdir / "run")
    assert rc == 0
    degenerate = [w for w in caught if issubclass(w.category, DegenerateClassWarning)]
    assert len(degenerate) == 1
    assert "layer conv4" in str(degenerate[0].message)


def test_precision_command(tmp_path, capsys):
    scores = np.array([[0.9, 0.8, 0.2, 0.1], [0.1, 0.2, 0.9, 0.8]])
    truth = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)
    write_tensor_file(tmp_path / "scores.atns", scores)
    write_truth_file(tmp_path / "truth.atmh", truth)
    rc = _run("precision", "--scores", tmp_path / "scores.atns",
              "--truth", tmp_path / "truth.atmh", "--k", "4")
    assert rc == 0
    assert "precision_at_k=0.75" in capsys.readouterr().out


def _run_module(*argv):
    """``python -m convrefine`` in a fresh process, stdout and stderr on pipes."""
    # the child must import the same package as this test, however it was found
    src = str(Path(convrefine.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout on a pipe stays block-buffered
    return subprocess.run(
        [sys.executable, "-m", "convrefine", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point():
    proc = _run_module("--help")
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "precision" in proc.stdout


def test_missing_ir_file_reports_error(tmp_path, capsys):
    rc = _run("analyze", "--ir", tmp_path / "ghost.ir", "--manifest",
              tmp_path / "m.txt", "--out", tmp_path / "out")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _write_plan(path, lam="0.25", lam_o="0.5", stretch="1.0", stretched=("conv2",)):
    lines = [f"lambda={lam}", f"lambda_o={lam_o}"]
    for b in parse_network(CHAIN_IR).blocks:
        if b.excluded:
            lines.append(f"plan {b.name} stretch=1.0 split=1 case=x")
        else:
            s = stretch if b.name in stretched else "1.0"
            lines.append(f"plan {b.name} stretch={s} split=1 case=b")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "values, message",
    [
        # parse-time errors name the plan file, apply-time ones the block
        ({"lam": "0"}, "error: {plan}:1: lambda must be positive and finite, got 0.0"),
        ({"lam": "-1"}, "error: {plan}:1: lambda must be positive and finite, got -1.0"),
        ({"lam": "abc"}, "error: {plan}:1: lambda expects a number, got 'abc'"),
        ({"lam_o": "nan"},
         "error: {plan}:2: lambda_o must be finite and non-negative, got nan"),
        ({"stretch": "inf"}, "error: {plan}:5: stretch must be finite, got inf"),
        ({"stretch": "1e308"}, "error: {plan}: block conv2: stretch 1e+308 is not 1 + k*lambda"),
        ({"stretch": "1e308", "lam": "1.0"},
         "error: block conv2: stretched width inf is not finite"),
        # finite but far past u32: one block used to print a huge negative
        # reduction, two adjacent ones overflowed the size ratio
        ({"stretch": "1e300", "lam": "1.0"}, "error: block conv2: out_channels 1"),
        ({"stretch": "1e300", "lam": "1.0", "stretched": ("conv2", "conv3")},
         "error: block conv2: out_channels 1"),
    ],
    ids=["lambda-zero", "lambda-negative", "lambda-text", "lambda_o-nan", "stretch-inf",
         "stretch-1e308", "width-inf", "width-1e301-one-block", "width-1e301-two-blocks"],
)
def test_apply_rejects_bad_plan_values(workdir, capsys, values, message):
    plan_path = workdir / "bad.plan"
    _write_plan(plan_path, **values)
    rc = _run("apply", "--ir", workdir / "net.ir", "--plan", plan_path, "--out", workdir / "run")
    assert rc == 1
    err = capsys.readouterr().err
    assert message.format(plan=plan_path) in err
    if "out_channels" in message:
        assert err.rstrip().endswith("does not fit in a u32")
    assert not (workdir / "run" / "refined").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (CHAIN_IR.replace("stage=0", "stage=0 bogus").encode(),
         ":1: unexpected token 'bogus'"),
        (b"block conv0 in=3 out=16 k=3x3 group=1 stage=0 \xff\n",
         ": 'utf-8' codec can't decode byte 0xff in position 46"),
    ],
    ids=["bad-token", "not-utf8"],
)
def test_ir_errors_name_the_file(workdir, capsys, text, message):
    ir = workdir / "bad.ir"
    ir.write_bytes(text)
    rc = _run("analyze", "--ir", ir, "--manifest", workdir / "dumps" / "manifest.txt",
              "--out", workdir / "run")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ir}{message}")
    assert "Traceback" not in err
    assert not (workdir / "run").exists()


@pytest.mark.parametrize(
    "kind, text, form",
    [
        ("ir", CHAIN_IR.replace("stage=1", "stage=one").encode(),
         ":2: stage expects an unsigned integer, got 'one'"),
        ("plan", b"lambda=0.25\nlambda_o=x\n", ":2: lambda_o expects a number, got 'x'"),
        ("manifest", b"labels labels.atlb\nlayer conv0\n", ":2: expected 'layer <name> <path>'"),
        ("profile", b'{"num_classes": 4,\n "images_per_class": }\n', ":2: Expecting value"),
        ("manifest", b"labels labels.atlb\nlayer conv0 \xff\n",
         ": 'utf-8' codec can't decode byte 0xff in position 31"),
        ("profile", b'{"num_classes": 4,\n "\xff": 1}\n',
         ": 'utf-8' codec can't decode byte 0xff in position 21"),
        ("profile", b'{"num_classes": 1, "images_per_class": 2, "layers": []}',
         ": bad value 1 for 'num_classes': need at least 2 classes\n"),
        ("profile", b'{"num_classes": 2, "images_per_class": 0, "layers": []}',
         ": bad value 0 for 'images_per_class': need at least 1 image per class\n"),
        ("profile", b'{"num_classes": 3, "images_per_class": 1,'
                    b' "layers": [{"name": "a", "width": 3, "rho": 0.1}]}',
         ": layers[0]: bad value 3 for 'width': too small for 3 classes, need at least 4\n"),
        *(("profile", _target_profile(matrix), form) for matrix, form in [
            ([[1, 0], [0, 1]], ": layer l1: target must be 3x3\n"),
            ([[1, 0.5, 0], [0, 1, 0], [0, 0, 1]], ": layer l1: target must be symmetric\n"),
            ([[2, 0, 0], [0, 1, 0], [0, 0, 1]], ": layer l1: target diagonal must be 1\n"),
            ([[1, 2, 0], [2, 1, 0], [0, 0, 1]],
             ": layer l1: target entries must lie in [-1, 1]\n"),
        ]),
        ("profile", _target_profile([[1, 0.1, 0.1], [0.1, 1, 0.1], [0.1, 0.1, 1]], rho=-0.9),
         ": layer l2: target correlation matrix is not positive semidefinite"
         " (min eigenvalue -0.8)\n"),
        # a count must be a JSON integer, and a real value a JSON number
        *(("profile", json.dumps(dict(PROFILE, **change)).encode(), form)
          for change, form in [
              ({"num_classes": "3"},
               ": bad value '3' for 'num_classes': expected a JSON integer\n"),
              ({"num_classes": 2.9},
               ": bad value 2.9 for 'num_classes': expected a JSON integer\n"),
              ({"images_per_class": True},
               ": bad value True for 'images_per_class': expected a JSON integer\n"),
              ({"layers": [{"name": "l1", "width": "8", "rho": 0.2}]},
               ": layers[0]: bad value '8' for 'width': expected a JSON integer\n"),
              ({"noise": True}, ": bad value True for 'noise': expected a JSON number\n"),
              ({"layers": [{"name": "l1", "width": 8, "rho": "0.2"}]},
               ": layers[0]: bad value '0.2' for 'rho': expected a JSON number\n"),
          ]),
        *(("profile", _target_profile(matrix), f": layers[0]: bad value {matrix!r} for 'matrix':"
                                               " expected a JSON number\n")
          for matrix in ([[1, "0.5", 0], ["0.5", 1, 0], [0, 0, 1]],
                         [[True, 0, 0], [0, 1, 0], [0, 0, 1]])),
    ],
    ids=["ir", "plan", "manifest", "profile", "manifest-not-utf8", "profile-not-utf8",
         "profile-one-class", "profile-no-images", "profile-narrow-layer",
         "profile-target-shape", "profile-target-asymmetric", "profile-target-diagonal",
         "profile-target-range", "profile-target-indefinite", "profile-classes-text",
         "profile-classes-float", "profile-images-bool", "profile-width-text",
         "profile-noise-bool", "profile-rho-text", "profile-matrix-text", "profile-matrix-bool"],
)
def test_text_input_errors_name_file_and_line(workdir, capsys, kind, text, form):
    bad = workdir / "dumps" / f"bad.{kind}"
    bad.write_bytes(text)
    inputs = ["--ir", workdir / "net.ir", "--manifest", workdir / "dumps" / "manifest.txt"]
    inputs[1 if kind == "ir" else 3] = bad
    argv = {
        "ir": ["analyze", *inputs],
        "manifest": ["analyze", *inputs],
        "plan": ["apply", "--ir", workdir / "net.ir", "--plan", bad],
        "profile": ["synth", "--profile", bad],
    }[kind]
    rc = _run(*argv, "--out", workdir / "run")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}{form}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (workdir / "run").exists()


def test_dump_that_shrinks_while_streamed_exits_1(workdir, capsys, monkeypatch):
    path = workdir / "dumps" / "conv2.atns"
    write_tensor_file(path, np.random.default_rng(3).standard_normal((20, 16, 32, 32)))  # 1.3 MB
    shrink_after_recheck(monkeypatch, path, path.stat().st_size - 4)
    rc = _run("plan", "--ir", workdir / "net.ir", "--manifest", workdir / "dumps" / "manifest.txt",
              "--out", workdir / "run")
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: payload shrank while it was read\n"


@pytest.mark.parametrize(
    "scores_shape, message",
    [((2, 3), "scores (2, 3) and truth (2, 4) must match, rank 2"),
     ((2, 4, 1, 1), "scores (2, 4, 1, 1) and truth (2, 4) must match, rank 2")],
    ids=["shape", "rank"],
)
def test_precision_errors_name_both_files(tmp_path, capsys, scores_shape, message):
    scores = tmp_path / "scores.atns"
    truth = tmp_path / "truth.atmh"
    write_tensor_file(scores, np.full(scores_shape, 0.5))
    write_truth_file(truth, np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8))
    rc = _run("precision", "--scores", scores, "--truth", truth, "--k", "1")
    assert rc == 1
    assert capsys.readouterr().err == f"error: {scores}, {truth}: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plan", "--lambda", "0"], "lambda must be positive and finite, got 0.0"),
        (["iterate", "--lambda", "nan"], "lambda must be positive and finite, got nan"),
        (["sweep", "--sweep-steps", "0"], "sweep needs at least one grid point"),
        (["sweep", "--sweep-min", "0"], "lambda must be positive and finite, got 0.0"),
        (["sweep", "--sweep-min", "0.5", "--sweep-max", "0.25"],
         "sweep range is empty: [0.5, 0.25]"),
        (["sweep", "--sweep-max", "nan"], "--sweep-max must be finite, got nan"),
        (["sweep", "--sweep-max", "inf"], "--sweep-max must be finite, got inf"),
        (["analyze", "--tie-tol", "nan"], "tie_tol must be non-negative and finite, got nan"),
        (["sweep", "--tie-tol", "inf"], "tie_tol must be non-negative and finite, got inf"),
        (["plan", "--tie-tol", "-1"], "tie_tol must be non-negative and finite, got -1.0"),
    ],
    ids=["plan-lambda", "iterate-lambda", "sweep-steps", "sweep-min", "sweep-range",
         "sweep-max-nan", "sweep-max-inf", "analyze-tie-tol-nan", "sweep-tie-tol-inf",
         "plan-tie-tol-negative"],
)
def test_arguments_checked_before_reading_dumps(workdir, capsys, argv, message):
    rc = _run(*argv, "--ir", workdir / "net.ir", "--manifest", workdir / "missing.txt",
              "--out", workdir / "run")
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "run").exists()


def test_negative_tie_tol_reported(workdir, capsys):
    rc = _run("plan", "--ir", workdir / "net.ir", "--manifest",
              workdir / "dumps" / "manifest.txt", "--tie-tol", "-1", "--out", workdir / "run")
    assert rc == 1
    assert "error: tie_tol must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "drop, where",
    [
        (("layers",), ""),
        (("num_classes",), ""),
        (("images_per_class",), ""),
        (("layers", 1, "name"), ": layers[1]"),
        (("layers", 0, "width"), ": layers[0]"),
        (("layers", 2, "rho"), ": layers[2]"),
    ],
    ids=["layers", "num_classes", "images_per_class", "name", "width", "rho"],
)
def test_synth_profile_missing_key_reported(tmp_path, capsys, drop, where):
    profile = json.loads(json.dumps(PROFILE))
    target = profile
    for step in drop[:-1]:
        target = target[step]
    del target[drop[-1]]
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    rc = _run("synth", "--profile", path, "--out", tmp_path / "dumps")
    assert rc == 1
    err = capsys.readouterr().err
    key = "'rho' or 'matrix'" if drop[-1] == "rho" else repr(drop[-1])
    assert f"error: {path}{where}: profile has no {key} key" in err


@pytest.mark.parametrize(
    "step, value, where, key",
    [
        ((), {"layers": 5}, "", "layers"),
        (("layers", 0), {"width": [1]}, ": layers[0]", "width"),
        ((), {"num_classes": "abc"}, "", "num_classes"),
        ((), {"noise": -1}, "", "noise"),
        ((), {"noise": float("nan")}, "", "noise"),
        ((), {"noise": float("inf")}, "", "noise"),
        # 4 x 2**30 images: more than a labels file's u32 count can hold
        ((), {"images_per_class": 2**30}, "", "images_per_class"),
        (("layers", 1), {"name": "a b"}, ": layers[1]", "name"),
        (("layers", 1), {"name": "conv0"}, ": layers[1]", "name"),
    ],
    ids=["layers-int", "width-list", "num_classes-text", "noise-negative", "noise-nan",
         "noise-inf", "images-beyond-u32", "name-not-a-block-name", "name-duplicate"],
)
def test_synth_profile_bad_type_reported(tmp_path, capsys, step, value, where, key):
    profile = json.loads(json.dumps(PROFILE))
    target = profile
    for s in step:
        target = target[s]
    target.update(value)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    rc = _run("synth", "--profile", path, "--out", tmp_path / "dumps")
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {path}{where}: bad value {value[key]!r} for {key!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "dumps").exists()


@pytest.mark.parametrize("noise", [1e39, 1e308])
def test_synth_huge_noise_is_refused_by_the_dump_writer_alone(tmp_path, capsys, noise):
    # 1e39 overflows only the float32 dump; 1e308 already the float64 features
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(dict(PROFILE, noise=noise)))
    rc = _run("synth", "--profile", path, "--out", tmp_path / "dumps")
    assert rc == 1
    dump = tmp_path / "dumps" / "conv0.atns"
    assert capsys.readouterr().err == f"error: {dump}: refusing to write non-finite values\n"


def test_warning_lines_name_category_not_source(workdir):
    # test_sweep's grid rounds widths; a degenerate class warns in analyze
    common = ["--ir", workdir / "net.ir", "--manifest", workdir / "dumps" / "manifest.txt"]
    sweep = _run_module("sweep", *common, "--sweep-min", "0.05", "--sweep-max", "0.8",
                        "--sweep-steps", "6", "--out", workdir / "run")
    _degenerate_class_one(workdir)
    analyze = _run_module("analyze", *common, "--out", workdir / "run")
    assert sweep.returncode == 0 and analyze.returncode == 0
    for proc, prefix in [(sweep, "warning: WidthRoundingWarning: block "),
                         (analyze, "warning: DegenerateClassWarning: layer ")]:
        lines = proc.stderr.splitlines()
        assert lines
        assert all(line.startswith(prefix) for line in lines), proc.stderr
        assert not any(".py:" in line for line in lines)
    # the default format is back once main returns
    formatwarning = warnings.formatwarning
    with pytest.warns(DegenerateClassWarning):
        assert _run("analyze", *common, "--out", workdir / "inproc") == 0
    assert warnings.formatwarning is formatwarning


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _analyze(workdir, out):
    return _run("analyze", "--ir", workdir / "net.ir", "--manifest",
                workdir / "dumps" / "manifest.txt", "--out", out)


def test_analyze_shares_write_the_same_bytes(workdir, capsys, monkeypatch):
    pid = os.getpid()
    forks = []
    fork = os.fork

    def counted_fork():
        child = fork()
        if child:
            forks.append(child)
        return child

    # each process appends the layers it writes; the children's memory is lost
    log = workdir / "writers.txt"
    write_csv = sepstats.write_correlation_csv

    def logged_csv(path, matrix):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {Path(path).name}\n")
        write_csv(path, matrix)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(sepstats, "write_correlation_csv", logged_csv)
    trees = []
    for n in (1, 2, 3):
        _set_cpus(monkeypatch, n)
        del forks[:]
        log.write_text("")
        assert _analyze(workdir, workdir / f"cpus{n}") == 0
        assert len(forks) == n - 1
        lines = log.read_text().splitlines()
        writers = dict(reversed(line.split()) for line in lines)
        assert len(lines) == 6  # each layer written once
        assert sorted(writers) == [f"conv{i}.corr.csv" for i in range(6)]
        # layer i goes to share i % n, share 0 being this process
        assert [writers[f"conv{i}.corr.csv"] == str(pid) for i in range(6)] == [
            i % n == 0 for i in range(6)
        ]
        assert len(set(writers.values())) == n
        assert os.getpid() == pid
        _no_child_left()
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("analyzed")] == [
            f"analyzed 6 layers, 5 tallies -> {workdir / f'cpus{n}' / 'analysis'}"
        ]
        trees.append(_tree(workdir / f"cpus{n}" / "analysis"))
    # a platform without fork writes every layer in this process
    monkeypatch.delattr(os, "fork")
    assert _analyze(workdir, workdir / "nofork") == 0
    trees.append(_tree(workdir / "nofork" / "analysis"))
    assert all(tree == trees[0] for tree in trees)
    means = dict(scan_manifest(workdir / "dumps" / "manifest.txt", parse_network(CHAIN_IR)))
    for i in range(6):
        expected = reference_csv(correlation_layer(f"conv{i}", means[f"conv{i}"]))
        assert trees[0][f"conv{i}.corr.csv"] == expected.encode("ascii")
    assert sorted(trees[0]) == sorted(
        [f"conv{i}.corr.{ext}" for i in range(6) for ext in ("csv", "pgm")] + ["tallies.txt"]
    )


# with two CPUs this process writes conv0, conv2, conv4 and one child conv1, conv3, conv5
@pytest.mark.parametrize(
    "blocked, reported",
    [(("conv3",), "conv3"), (("conv2",), "conv2"),
     (("conv3", "conv4"), "conv3"), (("conv2", "conv5"), "conv2")],
    ids=["child", "parent", "child-first", "parent-first"],
)
def test_analyze_share_failure_reports_lowest_layer(workdir, capsys, monkeypatch,
                                                    blocked, reported):
    errors = []
    for n in (1, 2):
        _set_cpus(monkeypatch, n)
        analysis = workdir / f"cpus{n}" / "analysis"
        for name in blocked:
            (analysis / f"{name}.corr.csv").mkdir(parents=True)
        assert _analyze(workdir, workdir / f"cpus{n}") == 1
        _no_child_left()
        err = capsys.readouterr().err
        path = analysis / f"{reported}.corr.csv"
        assert f"error: [Errno 21] Is a directory: '{path}'\n" in err
        errors.append(err.replace(str(workdir / f"cpus{n}"), "<out>"))
        assert not (analysis / "tallies.txt").exists()
    assert errors[0] == errors[1]


# with two CPUs one child writes conv1, conv3, conv5; a failed share or fork
# makes this process write every layer again
@pytest.mark.parametrize("failure", ["child-exits", "child-raises", "fork-fails"])
def test_analyze_failed_share_is_rewritten(workdir, capsys, monkeypatch, failure):
    _set_cpus(monkeypatch, 1)
    assert _analyze(workdir, workdir / "cpus1") == 0
    capsys.readouterr()
    parent = os.getpid()
    write_pgm = sepstats.write_correlation_pgm

    def failing_pgm(path, matrix):
        if os.getpid() != parent:
            if failure == "child-exits":
                os._exit(3)
            raise OSError(28, "No space left on device")
        write_pgm(path, matrix)

    def failing_fork():
        raise OSError(11, "Resource temporarily unavailable")

    _set_cpus(monkeypatch, 2)
    monkeypatch.setattr(sepstats, "write_correlation_pgm", failing_pgm)
    if failure == "fork-fails":
        monkeypatch.setattr(os, "fork", failing_fork)
    assert _analyze(workdir, workdir / "cpus2") == 0
    _no_child_left()
    out, err = capsys.readouterr()
    assert out == f"analyzed 6 layers, 5 tallies -> {workdir / 'cpus2' / 'analysis'}\n"
    assert err == ""
    assert _tree(workdir / "cpus2" / "analysis") == _tree(workdir / "cpus1" / "analysis")


def test_analyze_fresh_process_matches_in_process(workdir, capsys):
    # stdout on a pipe is block-buffered: a child that flushed it on exit
    # would print the analyzed line twice
    assert _analyze(workdir, workdir / "inproc") == 0
    capsys.readouterr()
    proc = _run_module("analyze", "--ir", workdir / "net.ir", "--manifest",
                       workdir / "dumps" / "manifest.txt", "--out", workdir / "fresh")
    assert proc.returncode == 0
    assert proc.stdout == f"analyzed 6 layers, 5 tallies -> {workdir / 'fresh' / 'analysis'}\n"
    assert _tree(workdir / "fresh") == _tree(workdir / "inproc")
