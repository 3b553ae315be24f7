"""Acceptance suite.

Each criterion runs at its stated tolerance and time budget and prints one
PASS/FAIL line (visible with ``pytest -s`` or in captured output).
"""

import math
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from convrefine.evalkit import (
    SynthLayer,
    SynthProfile,
    precision_at_k,
    synth_activations,
    uniform_target,
    write_activation_dumps,
)
from convrefine.featio import (
    load_manifest,
    read_labels_file,
    read_tensor_file,
    write_labels_file,
    write_tensor_file,
)
from convrefine.netir import ConvBlock, param_count, parse_network, serialize_network
from convrefine.planner import PlanEntry, build_plan
from convrefine.rewriter import apply_plan
from convrefine.sepstats import (
    SeparationTally,
    correlation_layer,
    network_statistics,
    separation_tally,
)

from conftest import (
    chain_ir,
    class_means,
    is_identity,
    random_chain_tallies,
    random_ir,
    random_split_only_tallies,
)


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS {label} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def _tally(name, plus, minus, total):
    return SeparationTally(
        layer_name=name, n_plus=plus, n_minus=minus, n_ties=total - plus - minus, n_total=total
    )


def test_criterion_1_equivalence_point():
    with criterion(1, "split 2 and stretch 1.25 coincide at term 0.25, lambda 0.25", 1.0):
        # one block carrying equal tallies whose term lands exactly on 0.25:
        # n+/nT = n-/nT = 0.375 and xi = 2/3 from the three subsequent stages
        ir = chain_ir([16] * 6)
        tallies = {
            "conv1": _tally("conv1", 6, 6, 16),
            "conv2": _tally("conv2", 12, 0, 16),
            "conv3": _tally("conv3", 12, 0, 16),
            "conv4": _tally("conv4", 8, 0, 16),
        }
        plan = build_plan(ir, tallies, 0.25)
        entry = plan.per_block["conv1"]
        assert entry.case == "b"
        assert entry.split == 2
        assert entry.stretch == 1.25


def test_criterion_2_lambda_o_bound():
    with criterion(2, "lambda_o closes all factors; 0.999x the top term opens one", 5.0):
        rng = np.random.default_rng(2024)
        done = 0
        while done < 500:
            m = int(rng.integers(2, 7))
            length = int(rng.integers(3, 9))
            seq = random_chain_tallies(rng, m, length)
            tallies = {t.layer_name: t for t in seq if t is not None}
            ir = chain_ir([m * 8] * length)
            probe = build_plan(ir, tallies, 0.25)
            if probe.lambda_o <= 0:
                continue
            done += 1
            closed = build_plan(ir, tallies, probe.lambda_o * (1 + 1e-9))
            assert is_identity(closed)
            opened = build_plan(ir, tallies, probe.lambda_o * 0.999)
            assert not is_identity(opened)


def test_criterion_3_group_arithmetic_anchor():
    with criterion(3, "96->256 11x11 split-2 block halves 2973696 -> 1486848", 1.0):
        ir = parse_network(
            "block conv_1 in=3 out=96 k=11x11 group=1 stage=0\n"
            "block conv_2 in=96 out=256 k=11x11 group=1 stage=1 prev=conv_1\n"
        )
        assert param_count(ir)["conv_2"] == 2_973_696

        # independent oracle: enumerate every connected channel pair
        def enumerate_weights(in_ch, out_ch, group, k):
            per_in, per_out = in_ch // group, out_ch // group
            total = 0
            for o in range(out_ch):
                bundle = o // per_out
                for _ in range(bundle * per_in, (bundle + 1) * per_in):
                    total += k * k
            return total

        assert enumerate_weights(96, 256, 1, 11) == 2_973_696
        assert enumerate_weights(96, 256, 2, 11) == 1_486_848

        from convrefine.planner import RefinementPlan

        plan = RefinementPlan(
            {"conv_1": PlanEntry(1.0, 1, "x"), "conv_2": PlanEntry(1.0, 2, "a")},
            lambda_used=0.25,
            lambda_o=0.0,
        )
        refined = apply_plan(ir, plan)
        assert param_count(refined)["conv_2"] == 1_486_848
        assert param_count(refined)["conv_2"] * 2 == param_count(ir)["conv_2"]


def _rational_reference(per_layer, num_classes, num_layers, lam):
    total = num_classes * num_classes

    def xi_exact(l):
        terms = [Fraction(per_layer[i][0], total) for i in range(l + 1, num_layers)]
        return sum(terms) / len(terms) if terms else Fraction(0)

    out = {}
    bound = []
    for l in range(2, num_layers):
        n_plus, n_minus = per_layer[l]
        x = xi_exact(l)
        x_plus = Fraction(n_plus, total) * x
        x_minus = Fraction(n_minus, total) * x
        split = 2 ** math.floor(x_minus / lam)
        if n_plus < n_minus:
            out[l] = (Fraction(1), split, "a")
            bound.append(x_minus)
        else:
            out[l] = (1 + lam * math.floor(x_plus / lam), split, "b")
            bound.extend((x_plus, x_minus))
    return out, max(bound) if bound else Fraction(0)


def test_criterion_4_exact_rational_oracle():
    with criterion(4, "planner matches exact-rational reference on 1000 instances", 30.0):
        rng = np.random.default_rng(4004)
        lam_grid = [Fraction(k, 32) for k in range(1, 41)]
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            length = int(rng.integers(3, 9))
            seq = random_chain_tallies(rng, m, length)
            per_layer = {i + 1: (t.n_plus, t.n_minus) for i, t in enumerate(seq) if t is not None}
            lam = lam_grid[int(rng.integers(0, len(lam_grid)))]
            ir = chain_ir([m * 8] * length)
            tallies = {t.layer_name: t for t in seq if t is not None}
            plan = build_plan(ir, tallies, float(lam))
            reference, bound = _rational_reference(per_layer, m, length, lam)
            for layer, (stretch, split, case) in reference.items():
                entry = plan.per_block[f"conv{layer - 1}"]
                assert entry.case == case
                assert entry.split == split
                assert entry.stretch == float(stretch)  # dyadic lambda keeps this exact
            assert plan.lambda_o == pytest.approx(float(bound), rel=1e-12, abs=1e-15)


def test_criterion_5_end_to_end_case_discrimination(tmp_path):
    with criterion(5, "synthetic dumps force case a at the rise, case b at the fall", 10.0):
        ir = parse_network(
            "\n".join(
                f"block conv{i} in={3 if i == 0 else 16} out=16 k=3x3 group=1 stage={i}"
                + (f" prev=conv{i - 1}" if i else "")
                for i in range(6)
            )
        )
        profile = SynthProfile(
            num_classes=4,
            images_per_class=5,
            layers=tuple(
                SynthLayer(f"conv{i}", 16, uniform_target(4, r))
                for i, r in enumerate([0.1, 0.3, 0.6, 0.4, 0.2, 0.05])
            ),
        )
        sets, labels = synth_activations(profile, seed=7)
        manifest = write_activation_dumps(tmp_path, sets, labels, spatial=(2, 2), seed=7)
        means = load_manifest(manifest, ir)
        plan = build_plan(ir, network_statistics(ir, means)[1], 0.25)
        rise = plan.per_block["conv2"]  # correlations rose: separation dropped
        assert (rise.case, rise.stretch) == ("a", 1.0)
        assert rise.split >= 2
        fall = plan.per_block["conv3"]  # correlations fell: separation improved
        assert fall.case == "b"
        assert fall.stretch >= 1.25

        # determinism: a second synthesis with the same seed gives the same plan
        sets2, labels2 = synth_activations(profile, seed=7)
        means2 = {n: class_means(n, s, labels2) for n, s in sets2.items()}
        plan2 = build_plan(ir, network_statistics(ir, means2)[1], 0.25)
        assert plan2.per_block == plan.per_block


def test_criterion_6_statistics_invariants():
    with criterion(6, "correlation matrices and tallies keep their invariants", 10.0):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            h = int(rng.integers(2, 17))
            prev = correlation_layer("p", rng.standard_normal((m, h)))
            cur = correlation_layer("c", rng.standard_normal((m, h)))
            for c in (prev, cur):
                assert np.abs(c - c.T).max() <= 1e-12
                assert np.all(np.diag(c) == 1.0)
                assert c.min() >= -1.0 and c.max() <= 1.0
            t = separation_tally(prev, cur, tie_tol=1e-6)
            assert t.n_plus + t.n_minus + t.n_ties == m * m
            assert t.n_plus <= m * m - m and t.n_minus <= m * m - m


def test_criterion_7_split_monotonicity_and_size():
    with criterion(7, "splits non-increasing in lambda; size non-decreasing", 10.0):
        rng = np.random.default_rng(707)

        # fully mixed instances: splits must fall monotonically; the size rule
        # holds whenever the stretched widths carried over unchanged
        for _ in range(20):
            m = int(rng.integers(2, 7))
            length = int(rng.integers(4, 9))
            seq = random_chain_tallies(rng, m, length)
            tallies = {t.layer_name: t for t in seq if t is not None}
            ir = chain_ir([m * 8] * length)
            probe = build_plan(ir, tallies, 0.25)
            hi = max(probe.lambda_o * 1.2, 0.3)
            grid = np.linspace(0.02, hi, 50)
            prev_plan = prev_params = prev_widths = None
            for lam in grid:
                plan = build_plan(ir, tallies, float(lam))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    refined = apply_plan(ir, plan)
                params = sum(param_count(refined).values())
                widths = [b.out_channels for b in refined.blocks]
                if prev_plan is not None:
                    for name, entry in plan.per_block.items():
                        assert entry.split <= prev_plan.per_block[name].split
                    same_stretches = all(
                        plan.per_block[n].stretch == prev_plan.per_block[n].stretch
                        for n in plan.per_block
                    )
                    if same_stretches and widths == prev_widths:
                        assert params >= prev_params
                prev_plan, prev_params, prev_widths = plan, params, widths

        # split-only instances in the exact-divisibility regime: stretches are
        # identity at every grid point, so the size rule must hold everywhere
        done = 0
        while done < 20:
            m = int(rng.integers(2, 7))
            length = int(rng.integers(4, 9))
            seq = random_split_only_tallies(rng, m, length)
            tallies = {t.layer_name: t for t in seq if t is not None}
            ir = chain_ir([1024] * length)
            probe = build_plan(ir, tallies, 0.25)
            if probe.lambda_o <= 0:
                continue
            done += 1
            grid = np.linspace(probe.lambda_o / 8, probe.lambda_o * 1.2, 50)
            prev_plan = prev_params = None
            for lam in grid:
                plan = build_plan(ir, tallies, float(lam))
                assert all(e.stretch == 1.0 for e in plan.per_block.values())
                refined = apply_plan(ir, plan)
                assert [b.out_channels for b in refined.blocks] == [1024] * length
                params = sum(param_count(refined).values())
                if prev_plan is not None:
                    for name, entry in plan.per_block.items():
                        assert entry.split <= prev_plan.per_block[name].split
                    assert params >= prev_params
                prev_plan, prev_params = plan, params


def test_criterion_8_roundtrips(tmp_path):
    with criterion(8, "IR and tensor/label files round-trip on fuzzed inputs", 30.0):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            ir = random_ir(rng)
            text = serialize_network(ir)
            again = parse_network(text)
            assert again == ir
            assert serialize_network(again) == text
        for i in range(1000):
            if rng.random() < 0.5:
                shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            else:
                shape = tuple(int(rng.integers(1, 5)) for _ in range(4))
            tensor = rng.standard_normal(shape).astype(np.float32)
            tpath = tmp_path / "fuzz.atns"
            write_tensor_file(tpath, tensor)
            np.testing.assert_array_equal(read_tensor_file(tpath), tensor.astype(np.float64))
            labels = rng.integers(0, 50, size=int(rng.integers(1, 20)))
            lpath = tmp_path / "fuzz.atlb"
            write_labels_file(lpath, labels)
            np.testing.assert_array_equal(read_labels_file(lpath), labels)


def _precision_oracle(scores, truth, k):
    tp = fp = 0
    for i in range(scores.shape[0]):
        positives = {j for j in range(scores.shape[1]) if truth[i, j]}
        if not positives:
            continue
        ranked = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        for j in ranked[: min(len(positives), k)]:
            if j in positives:
                tp += 1
            else:
                fp += 1
    return tp / (tp + fp)


def test_criterion_9_precision_at_k():
    with criterion(9, "precision@k matches the exhaustive oracle and 5-label reading", 5.0):
        rng = np.random.default_rng(909)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(2, 7))
            scores = rng.standard_normal((n, m))
            truth = (rng.random((n, m)) < 0.4).astype(int)
            truth[int(rng.integers(0, n))] = 1  # keep at least one labelled image
            for k in range(1, m + 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert precision_at_k(scores, truth, k) == _precision_oracle(scores, truth, k)
        # an image with 5 positive labels and those 5 ranked on top is perfect
        scores = np.array([[0.9, 0.8, 0.7, 0.6, 0.5, 0.1, 0.05, 0.01]])
        truth = np.array([[1, 1, 1, 1, 1, 0, 0, 0]])
        assert precision_at_k(scores, truth, 7) == 1.0
