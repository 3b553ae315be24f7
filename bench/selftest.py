"""Self-test of the benchmark on the reduced-size (smoke) workloads.

    python3 bench/selftest.py

1. Every workload at ``--size smoke``, untraced and traced: the result line
   must be correct, with nothing failed and exactly the metrics that
   BENCHMARK.json declares.
2. Single outputs of a smoke run are corrupted one at a time; the oracle
   must fail each corruption.
3. ``equiv.py HEAD HEAD`` must find every output identical (skipped outside
   a git checkout).
4. A directory holding only BENCHMARK.json and bench/ must make the
   benchmark exit non-zero without printing a result.

Takes about 40 seconds; prints one line per test and exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from oracle import run_checks
from run import BENCH, ROOT, Ops, child_env, timed_run
from workloads import WORKLOADS, make_spec

RUN = [sys.executable, str(BENCH / "run.py")]


def result_of(argv, cwd=ROOT):
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def test_workloads(declared) -> list[str]:
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, err = result_of([*RUN, "--workload", w, "--seed", "5", "--seconds", "1",
                                      "--trace", str(trace), "--size", "smoke"])
            if rc or res is None:
                problems.append(f"{w} trace={trace}: exit {rc}: {err[-500:]}")
                continue
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"] or res["failed"] or got != want:
                problems.append(f"{w} trace={trace}: correct={res['correct']}"
                                f" failed={res['failed']} metrics differ: {set(got) ^ set(want)}")
    return problems


def _sub(path: Path, pattern: str, repl: str):
    text = path.read_text()
    new = re.sub(pattern, repl, text, count=1)
    if new == text:
        raise AssertionError(f"mutation {pattern!r} did not apply to {path.name}")
    path.write_text(new)


def _flip_byte(path: Path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def test_oracle_catches_corruption() -> list[str]:
    spec = make_spec("vgg11-maps", 7, "smoke")
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    problems = []
    try:
        ops = Ops()
        paths, out, stdouts, _, _ = timed_run(spec, work, 0.0, child_env(1), ops)
        checks, _ = run_checks(spec, paths, out, stdouts)
        if ops.failed or not all(c.ok for c in checks):
            return [f"clean smoke run fails: {[c.name for c in checks if not c.ok]}"]
        pristine = work / "pristine"
        shutil.copytree(out, pristine)
        plan = "plans/lambda_0.25.plan"
        mutations = {
            "tally moved between n+ and n-": lambda o: _sub(
                o / "analysis/tallies.txt", r"plus=(\d+) minus=(\d+)",
                lambda m: f"plus={int(m[1]) + 1} minus={int(m[2]) - 1}"),
            "correlation value": lambda o: _sub(
                o / "analysis/conv3_1.corr.csv", r"^1\.0,(-?[0-9.]+)", r"1.0,0.123"),
            "heatmap byte": lambda o: _flip_byte(o / "analysis/conv4_1.corr.pgm"),
            "plan split": lambda o: _sub(o / plan, r"split=1 case=b", "split=2 case=b"),
            "plan lambda_o": lambda o: _sub(o / plan, r"lambda_o=0\.", "lambda_o=1."),
            "refined width": lambda o: _sub(o / "refined/refined.ir", r"out=(\d+)", "out=8"),
            "size report total": lambda o: _sub(
                o / "reports/size_report.csv", r"TOTAL,(\d+)", "TOTAL,1"),
            "sweep conv_params": lambda o: _sub(
                o / "reports/sweep.csv", r"\n([0-9.e-]+),0,(\d+)", r"\n\1,0,7"),
        }
        for what, mutate in mutations.items():
            shutil.rmtree(out)
            shutil.copytree(pristine, out)
            mutate(out)
            checks, _ = run_checks(spec, paths, out, stdouts)
            if all(c.ok for c in checks):
                problems.append(f"oracle accepted corrupted {what}")
        shutil.rmtree(out)
        shutil.copytree(pristine, out)
        bad = dict(stdouts, precision=stdouts["precision"].replace("=0.", "=0.9"))
        checks, _ = run_checks(spec, paths, out, bad)
        if all(c.ok for c in checks):
            problems.append("oracle accepted a wrong precision@k")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def test_equiv_self() -> list[str]:
    if not (ROOT / ".git").exists():
        print("skip equiv: not a git checkout")
        return []
    proc = subprocess.run([sys.executable, str(BENCH / "equiv.py"), "HEAD", "HEAD",
                           "--workload", "inception30-sweep", "--size", "smoke"],
                          capture_output=True, text=True, timeout=300)
    last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr[-500:]]
    return [] if proc.returncode == 0 and last[0].endswith(" 0 differ") else [f"equiv: {last}"]


def test_bare_directory_fails() -> list[str]:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run([*cmd, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], capture_output=True, text=True, cwd=bare,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for test, args in ((test_workloads, (declared,)), (test_oracle_catches_corruption, ()),
                       (test_equiv_self, ()), (test_bare_directory_fails, ())):
        problems = test(*args)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {test.__name__}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
