import struct
import warnings

import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

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
from convrefine.featio import scan_manifest
from convrefine.netir import parse_network
from convrefine.planner import build_plan
from convrefine.sepstats import network_statistics

from conftest import class_means, correlation_layer


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
    with pytest.raises(ValueError, match="scores must not be NaN"):
        precision_at_k(np.array([[0.0, np.nan, 1.0]]), truth, 1)


def test_precision_tie_breaks_toward_lower_class_index():
    scores = np.array([[0.5, 0.5, 0.5]])
    truth = np.array([[0, 1, 0]])
    # ties keep ascending class order, so the single prediction is class 0
    assert precision_at_k(scores, truth, 3) == 0.0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_precision_with_tied_scores_matches_the_oracle(data):
    # four score levels over up to 30 classes tie often, also inside a top k
    # of more than 16, where NumPy's default argsort is not stable; as uint8
    # or int8, with -128 among them, a negated score would wrap
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(2, 30))
    levels = data.draw(st.sampled_from([np.array([0.0, 1.0, 2.0, 3.0]),
                                        np.array([0, 1, 2, 255], dtype=np.uint8),
                                        np.array([-128, -1, 0, 127], dtype=np.int8)]))
    scores = levels[data.draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m))
                    ].reshape(n, m)
    truth = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m)),
                     dtype=np.uint8).reshape(n, m)
    truth[0, data.draw(st.integers(0, m - 1))] = 1
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "image .* has no positive labels", UserWarning)
        for k in range(1, m + 1):
            want = oracle.precision_exhaustive(scores, truth, k)
            assert precision_at_k(scores, truth, k) == float(want)


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
    for bad in ([1, 0], [[1, 2]]):  # rank 1; an entry other than 0 or 1
        with pytest.raises(ValueError, match="^truth must be a rank-2 array of 0/1$"):
            write_truth_file(tmp_path / "bad.atmh", bad)
    assert not (tmp_path / "bad.atmh").exists()


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


def _eager_synth(profile, seed, spatial, dump_seed):
    """synth_activations, then write_activation_dumps, whole arrays at once.

    Each step is the one their docstrings state: per layer, means G =
    sqrt(T) @ Q with Q's rows orthonormal and orthogonal to the all-ones
    vector, then per-image noise re-centred within each class, scaled and
    shifted by the class mean; with ``spatial``, zero-mean jitter over each
    image's grid, drawn for the whole tensor from one generator.  Returns
    (features, labels, {file name: bytes}).
    """
    m = profile.num_classes
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(m), profile.images_per_class)
    feats = {}
    for layer in profile.layers:
        evals, evecs = np.linalg.eigh(np.asarray(layer.target, dtype=np.float64))
        root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None)))
        basis = np.column_stack([np.ones(layer.width), rng.standard_normal((layer.width, m))])
        means = root @ np.linalg.qr(basis)[0][:, 1 : m + 1].T
        noise = rng.standard_normal((labels.size, layer.width))
        f = np.empty_like(noise)
        for cls in range(m):
            own = noise[labels == cls]
            f[labels == cls] = (own - own.mean(axis=0)) * profile.noise + means[cls]
        feats[layer.name] = f
    jitter_rng = np.random.default_rng(dump_seed)
    files = {}
    for name in sorted(feats):
        tensor = feats[name]
        if spatial is not None:
            jitter = jitter_rng.standard_normal(tensor.shape + spatial) * 0.01
            tensor = jitter - jitter.mean(axis=(2, 3), keepdims=True) + tensor[:, :, None, None]
        header = struct.pack(f"<4sHH{tensor.ndim}I", b"ATNS", 1, tensor.ndim, *tensor.shape)
        files[f"{name}.atns"] = header + tensor.astype("<f4").tobytes()
    files["labels.atlb"] = (struct.pack("<4sHI", b"ATLB", 1, labels.size)
                            + labels.astype("<u4").tobytes())
    files["manifest.txt"] = "".join(
        [f"layer {name} {name}.atns\n" for name in sorted(feats)] + ["labels labels.atlb\n"]
    ).encode()
    return feats, labels, files


@pytest.mark.parametrize("spatial", [None, (2, 3)], ids=["rank-2", "rank-4"])
def test_synth_equals_the_eager_reference_byte_for_byte(tmp_path, spatial):
    profile = SynthProfile(num_classes=3, images_per_class=6, noise=0.3, layers=(
        SynthLayer("b", 5, uniform_target(3, 0.4)),
        SynthLayer("a", 7, np.array([[1.0, -0.2, 0.5], [-0.2, 1.0, 0.1], [0.5, 0.1, 1.0]])),
    ))
    sets, labels = synth_activations(profile, seed=13)
    write_activation_dumps(tmp_path, sets, labels, spatial=spatial, seed=17)
    want_sets, want_labels, want_files = _eager_synth(profile, 13, spatial, 17)
    assert labels.tobytes() == want_labels.tobytes()
    assert sorted(sets) == sorted(want_sets)
    for name, feats in want_sets.items():
        assert sets[name].tobytes() == feats.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want_files)
    for name, data in want_files.items():
        assert (tmp_path / name).read_bytes() == data, name


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


@pytest.mark.parametrize("profile, message", [
    (_profile([0.1], m=1), "need at least 2 classes"),
    (_profile([0.1], images=0), "need at least 1 image per class"),
], ids=["one-class", "no-images"])
def test_synth_refuses_too_little_data(profile, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        synth_activations(profile, seed=0)


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
    tallies = network_statistics(ir, dict(scan_manifest(manifest, ir)))[1]
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
