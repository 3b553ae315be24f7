"""Build one workload's input files with convrefine's own writers.

Run as a child process by ``run.py`` so that its wall time and peak RSS are
the set-up metrics; the traced run imports ``build_inputs`` instead.

    python3 bench/setup_inputs.py --workload W --seed N --size S --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

INPUT_NAMES = {"ir": "net.ir", "manifest": "dumps/manifest.txt",
               "scores": "scores.atns", "truth": "truth.atmh"}


def build_inputs(spec, out: Path) -> dict[str, Path]:
    """Write the IR, the activation dumps, scores and truth under ``out``."""
    from convrefine import evalkit, featio

    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / rel for key, rel in INPUT_NAMES.items()}
    paths["ir"].write_text(spec.ir_text)
    seeds = spec.seeds()
    targets = spec.targets()
    profile = evalkit.SynthProfile(
        num_classes=spec.num_classes,
        images_per_class=spec.images_per_class,
        layers=tuple(
            evalkit.SynthLayer(name=name, width=spec.widths[name], target=targets[name])
            for name in targets
        ),
        noise=spec.noise,
    )
    sets, labels = evalkit.synth_activations(profile, seed=seeds["synth"])
    evalkit.write_activation_dumps(
        paths["manifest"].parent, sets, labels, spatial=spec.spatial, seed=seeds["dumps"]
    )
    del sets
    scores, truth = spec.predictions()
    featio.write_tensor_file(paths["scores"], scores)
    evalkit.write_truth_file(paths["truth"], truth)
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="bench")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    from workloads import make_spec

    build_inputs(make_spec(args.workload, args.seed, args.size), Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
