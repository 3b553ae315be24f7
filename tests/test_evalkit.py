from contextlib import nullcontext

import numpy as np
import pytest

from convrefine import evalkit
from convrefine.evalkit import (
    SynthLayer,
    SynthProfile,
    load_profile,
    precision_at_k,
    read_truth_file,
    synth_activations,
    uniform_target,
    write_activation_dumps,
    write_truth_file,
)
from convrefine.featio import TensorFormatError, load_manifest
from convrefine.netir import parse_network
from convrefine.planner import build_plan
from convrefine.sepstats import correlation_layer, network_statistics

from conftest import class_means


def test_precision_perfect():
    scores = np.array([[0.9, 0.8, 0.1, 0.0]])
    truth = np.array([[1, 1, 0, 0]])
    assert precision_at_k(scores, truth, 3) == 1.0


def test_precision_miss():
    scores = np.array([[0.1, 0.2, 0.9, 0.3]])
    truth = np.array([[1, 0, 0, 0]])
    assert precision_at_k(scores, truth, 2) == 0.0


def test_precision_hand_built_three_quarters():
    # image 0: 2 positives, top-2 both hit; image 1: 2 positives, top-2 hit one
    scores = np.array([[0.9, 0.8, 0.2, 0.1], [0.1, 0.2, 0.9, 0.8]])
    truth = np.array([[1, 1, 0, 0], [0, 1, 1, 0]])
    assert precision_at_k(scores, truth, 4) == 0.75


def test_precision_five_label_reading():
    # 5 positive labels ranked on top with k larger: exactly 5 predictions, all hits
    scores = np.array([[0.9, 0.8, 0.7, 0.6, 0.5, 0.1, 0.05, 0.01]])
    truth = np.array([[1, 1, 1, 1, 1, 0, 0, 0]])
    assert precision_at_k(scores, truth, 7) == 1.0


def test_precision_skips_unlabelled_images():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    truth = np.array([[0, 0], [0, 1]])
    with pytest.warns(UserWarning, match="image 0 has no positive labels"):
        assert precision_at_k(scores, truth, 1) == 1.0


def test_precision_all_images_skipped():
    scores, truth = np.zeros((1, 2)), np.zeros((1, 2), dtype=int)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="no image produced predictions"):
            precision_at_k(scores, truth, 1)


def test_precision_k_bounds():
    scores, truth = np.zeros((1, 3)), np.array([[1, 0, 0]])
    with pytest.raises(ValueError, match="k must be in 1..3"):
        precision_at_k(scores, truth, 4)
    with pytest.raises(ValueError, match="k must be in 1..3"):
        precision_at_k(scores, truth, 0)


def test_precision_tie_breaks_toward_lower_class_index():
    scores = np.array([[0.5, 0.5, 0.5]])
    truth = np.array([[0, 1, 0]])
    # ties keep ascending class order, so the single prediction is class 0
    assert precision_at_k(scores, truth, 3) == 0.0


def _precision_oracle(scores, truth, k):
    tp = fp = 0
    for i in range(scores.shape[0]):
        positives = {j for j in range(scores.shape[1]) if truth[i, j]}
        if not positives:
            continue
        take = min(len(positives), k)
        ranked = sorted(range(scores.shape[1]), key=lambda j: (-scores[i, j], j))
        for j in ranked[:take]:
            if j in positives:
                tp += 1
            else:
                fp += 1
    return tp / (tp + fp)


def test_precision_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(2, 7))
        scores = rng.standard_normal((n, m))
        truth = (rng.random((n, m)) < 0.4).astype(int)
        truth[rng.integers(0, n), rng.integers(0, m)] = 1  # at least one positive
        k = int(rng.integers(1, m + 1))
        with pytest.warns(UserWarning) if (truth.sum(axis=1) == 0).any() else nullcontext():
            assert precision_at_k(scores, truth, k) == _precision_oracle(scores, truth, k)


def test_precision_rank_order_invariance():
    rng = np.random.default_rng(8)
    scores = rng.standard_normal((6, 5))
    truth = (rng.random((6, 5)) < 0.5).astype(int)
    truth[:, 0] = 1
    base = precision_at_k(scores, truth, 3)
    # strictly increasing transforms preserve per-image rank order
    assert precision_at_k(np.tanh(scores) * 3.0 + 11.0, truth, 3) == base


def test_truth_file_roundtrip(tmp_path):
    truth = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    path = tmp_path / "t.atmh"
    write_truth_file(path, truth)
    np.testing.assert_array_equal(read_truth_file(path), truth)
    path.write_bytes(b"WHAT" + bytes(10))
    with pytest.raises(TensorFormatError, match="bad magic"):
        read_truth_file(path)


def _profile(rhos, m=4, width=16, images=5):
    return SynthProfile(
        num_classes=m,
        images_per_class=images,
        layers=tuple(
            SynthLayer(name=f"conv{i}", width=width, target=uniform_target(m, r))
            for i, r in enumerate(rhos)
        ),
    )


def test_synth_hits_targets():
    sets, labels = synth_activations(_profile([0.1, 0.55, -0.2]), seed=3)
    assert labels.size == 20
    for i, rho in enumerate([0.1, 0.55, -0.2]):
        c = correlation_layer(f"conv{i}", class_means(f"conv{i}", sets[f"conv{i}"], labels))
        off = c[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, rho, atol=0.05)
        np.testing.assert_allclose(off, rho, atol=1e-9)  # construction is near-exact


def test_synth_deterministic_files(tmp_path):
    for d in ("one", "two"):
        sets, labels = synth_activations(_profile([0.2, 0.4]), seed=11)
        write_activation_dumps(tmp_path / d, sets, labels, seed=11)
    for name in ("conv0.atns", "conv1.atns", "labels.atlb", "manifest.txt"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b


@pytest.mark.parametrize("chunk_values", [None, 40, 300])
def test_chunked_dumps_match_whole_tensor_reference(tmp_path, monkeypatch, chunk_values):
    # 96 values an image: one image a chunk at 40, three (20 = 6*3 + 2) at 300
    if chunk_values is not None:
        monkeypatch.setattr(evalkit, "CHUNK_VALUES", chunk_values)
    sets, labels = synth_activations(_profile([0.2, 0.4]), seed=11)
    write_activation_dumps(tmp_path / "maps", sets, labels, spatial=(2, 3), seed=5)
    write_activation_dumps(tmp_path / "flat", sets, labels, spatial=None, seed=5)
    rng = np.random.default_rng(5)
    for name in sorted(sets):
        feats = sets[name]
        n, c = feats.shape
        tiled = np.repeat(feats[:, :, None, None], 6, axis=2).reshape(n, c, 2, 3)
        jitter = rng.standard_normal(tiled.shape) * 0.01
        jitter -= jitter.mean(axis=(2, 3), keepdims=True)
        maps = (tmp_path / "maps" / f"{name}.atns").read_bytes()
        assert maps[24:] == (tiled + jitter).astype("<f4").tobytes()
        flat = (tmp_path / "flat" / f"{name}.atns").read_bytes()
        assert flat[16:] == feats.astype("<f4").tobytes()


def test_synth_infeasible_target():
    # uniform rho below -1/(M-1) is not PSD
    with pytest.raises(ValueError, match="not positive semidefinite"):
        synth_activations(_profile([-0.9]), seed=0)


def test_synth_width_too_small():
    with pytest.raises(ValueError, match="width 4 too small"):
        synth_activations(_profile([0.1], width=4), seed=0)


def test_synth_identical_layers_tally_all_ties(tmp_path):
    ir = parse_network(
        "block conv0 in=3 out=16 k=3x3 group=1 stage=0\n"
        "block conv1 in=16 out=16 k=3x3 group=1 stage=1 prev=conv0\n"
    )
    profile = SynthProfile(
        num_classes=4,
        images_per_class=5,
        layers=(
            SynthLayer("conv0", 16, uniform_target(4, 0.3)),
            SynthLayer("conv1", 16, uniform_target(4, 0.3)),
        ),
    )
    sets, labels = synth_activations(profile, seed=5)
    means = {n: class_means(n, s, labels) for n, s in sets.items()}
    t = network_statistics(ir, means, tie_tol=1e-6)[1]["conv1"]
    assert (t.n_plus, t.n_minus, t.n_ties) == (0, 0, 16)


def test_synth_forces_cases_through_file_roundtrip(tmp_path):
    ir = parse_network(
        "\n".join(
            f"block conv{i} in={3 if i == 0 else 16} out=16 k=3x3 group=1 stage={i}"
            + (f" prev=conv{i - 1}" if i else "")
            for i in range(6)
        )
    )
    # correlations rise at conv2 (case a there) then fall (case b after)
    sets, labels = synth_activations(_profile([0.1, 0.3, 0.6, 0.4, 0.2, 0.05], m=4), seed=7)
    manifest = write_activation_dumps(tmp_path, sets, labels, spatial=(2, 2), seed=7)
    tallies = network_statistics(ir, load_manifest(manifest, ir))[1]
    plan = build_plan(ir, tallies, 0.25)
    assert plan.per_block["conv2"].case == "a"
    assert plan.per_block["conv2"].split >= 2
    assert plan.per_block["conv2"].stretch == 1.0
    assert plan.per_block["conv3"].case == "b"
    assert plan.per_block["conv3"].stretch >= 1.25


def test_load_profile(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(
        '{"num_classes": 3, "images_per_class": 4, "noise": 0.01,\n'
        ' "layers": [{"name": "a", "width": 8, "rho": 0.2},\n'
        '            {"name": "b", "width": 8, "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}'
    )
    profile = load_profile(path)
    assert profile.num_classes == 3
    assert profile.layers[0].target[0, 1] == 0.2
    assert profile.layers[1].target[0, 1] == 0.0
    sets, _ = synth_activations(profile, seed=1)
    assert sorted(sets) == ["a", "b"]
