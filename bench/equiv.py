"""Compare every output of a workload's commands between two git revisions.

    python3 bench/equiv.py REV_A REV_B --workload vgg11-maps [--seed 1] [--size smoke]

The ``src/`` tree of each revision is exported with ``git archive``, the
workload's inputs are built once with REV_A's convrefine, and the command
sequence of the benchmark (analyze, plan, apply, sweep, precision) runs
with each revision.  The sha256 of every output file (tallies, correlation
CSV and PGM, plan, refined IR, size reports, sweep CSV) and of each
command's stdout, with the output directory replaced by a placeholder, is
compared.  Every file is named with its verdict; the exit code is 1 when
any differs.  Nothing is stored between uses: both sides are recomputed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

from run import ROOT, child_env, cli_argv, run_child
from setup_inputs import INPUT_NAMES
from workloads import WORKLOADS, make_spec


def export_src(rev: str, dest: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def run_revision(spec, src: Path, paths, out: Path, logs: Path) -> dict[str, str]:
    """Run the command sequence with ``src`` and hash what it produced."""
    env = child_env(len(os.sched_getaffinity(0)))
    env["PYTHONPATH"] = str(src)
    hashes = {}
    for name, argv in cli_argv(spec, paths, out):
        r = run_child([sys.executable, "-m", "convrefine", *argv], env, logs / name)
        stdout = r.stdout.replace(str(out), "<out>")
        hashes[f"stdout/{name}"] = hashlib.sha256(
            f"exit={r.returncode}\n{stdout}".encode()).hexdigest()
    for p in sorted(q for q in out.rglob("*") if q.is_file()):
        hashes[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return hashes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="byte-for-byte output comparison of two revisions")
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", default="bench")
    args = ap.parse_args(argv)

    spec = make_spec(args.workload, args.seed, args.size)
    work = ROOT / ".bench_work" / f"equiv-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        logs = work / "logs"
        logs.mkdir(parents=True)
        src = {side: export_src(rev, work / side) for side, rev in
               (("a", args.rev_a), ("b", args.rev_b))}
        inputs = work / "inputs"
        env = child_env(len(os.sched_getaffinity(0)))
        env["PYTHONPATH"] = str(src["a"])
        r = run_child([sys.executable, str(Path(__file__).with_name("setup_inputs.py")),
                       "--workload", spec.workload, "--seed", str(spec.seed), "--size", spec.size,
                       "--out", str(inputs)], env, logs / "setup")
        if r.returncode:
            print((logs / "setup.err").read_text(), file=sys.stderr)
            return 2
        paths = {k: inputs / v for k, v in INPUT_NAMES.items()}
        # Both sides write to the same directory name so that paths printed
        # on stdout and written into files compare equal.
        out = work / "out"
        hashes = {}
        for side in ("a", "b"):
            shutil.rmtree(out, ignore_errors=True)
            hashes[side] = run_revision(spec, src[side], paths, out, logs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    differ = 0
    for name in sorted(hashes["a"].keys() | hashes["b"].keys()):
        a, b = hashes["a"].get(name), hashes["b"].get(name)
        if a == b:
            verdict = "identical"
        else:
            differ += 1
            verdict = "only in " + ("A" if b is None else "B") if None in (a, b) else "DIFFERS"
        print(f"{verdict:10s} {name}")
    total = len(hashes["a"].keys() | hashes["b"].keys())
    print(f"{args.workload} seed {args.seed} ({args.size}): {args.rev_a} vs {args.rev_b},"
          f" {total} outputs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
