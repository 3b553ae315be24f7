"""convrefine benchmark: build a workload, run the CLI on it, check and time it.

    python3 bench/run.py --workload vgg11-maps --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's inputs are built three times in a child
process (set-up metrics are the median), the dumps are read once untimed,
then ``analyze, plan, apply, sweep, precision`` run once in order as fresh
``python -m convrefine`` processes.  After that each command that has an
end-to-end metric (all but ``apply``) runs until it has used its own budget
(a quarter of ``--seconds``, and at least seven samples), the commands
interleaved so that the one least far on its budget runs next.  Each
end-to-end time is the 10 % trimmed mean of a command's samples (see
``trimmed_mean``); set-up time and peak RSS are medians, peak RSS from each
child's rusage.  With ``--trace 1`` the same
sequence runs in this process through ``cli.main``: an untimed warm-up,
then three pairs of one plain pass and one pass with every convrefine
function wrapped in a span; the per-layer metrics are medians over the
traced passes.

Either way every output file and printed line is checked by ``oracle.py``
and the last line of stdout is the JSON result; the line before it holds
the run's context record.  The program is taken from ``src/`` next to this
directory and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_SAMPLES = 7
TRACE_PAIRS = 3
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = ("analyze", "plan", "apply", "sweep", "precision")
# The commands with an end-to-end metric; apply runs in the first pass only.
TIMED = ("analyze", "plan", "sweep", "precision")
END_TO_END = {
    "setup_s": "s", "setup_peak_rss_mb": "MB",
    "analyze_s": "s", "analyze_peak_rss_mb": "MB",
    "plan_s": "s", "plan_peak_rss_mb": "MB",
    "sweep_s": "s", "precision_s": "s",
}

# Per-layer metrics read from spans: (metric, unit, what, span names).  Times
# are self times summed over the traced command sequence (set-up spans for
# the evalkit writers and featio.write_tensor).
SPAN_METRICS = [
    ("featio.read_tensor_s", "s", "self", ["featio.read_tensor_file"]),
    ("featio.read_tensor_calls", "count", "calls", ["featio.read_tensor_file"]),
    ("featio.pool_s", "s", "self", ["featio.spatial_average_pool"]),
    ("featio.load_manifest_s", "s", "self", ["featio.load_manifest"]),
    ("featio.class_means_s", "s", "self", ["featio.class_means"]),
    ("sepstats.correlation_s", "s", "self", ["sepstats.correlation_layer"]),
    ("sepstats.correlation_calls", "count", "calls", ["sepstats.correlation_layer"]),
    ("sepstats.tally_s", "s", "self", ["sepstats.separation_tally"]),
    ("sepstats.csv_write_s", "s", "self", ["sepstats.write_correlation_csv"]),
    ("sepstats.pgm_write_s", "s", "self", ["sepstats.write_correlation_pgm"]),
    ("planner.build_plan_s", "s", "self", ["planner.build_plan"]),
    ("planner.build_plan_calls", "count", "calls", ["planner.build_plan"]),
    ("planner.serialize_plan_s", "s", "self", ["planner.serialize_plan"]),
    ("rewriter.apply_plan_s", "s", "self", ["rewriter.apply_plan"]),
    ("rewriter.size_report_s", "s", "self",
     ["rewriter.size_report", "rewriter.render_size_report", "rewriter.size_report_csv"]),
    ("netir.parse_network_s", "s", "self", ["netir.parse_network"]),
    ("netir.make_network_s", "s", "self", ["netir.make_network"]),
    ("netir.make_network_calls", "count", "calls", ["netir.make_network"]),
    ("netir.validate_network_s", "s", "self", ["netir.validate_network"]),
    ("netir.param_count_s", "s", "self", ["netir.param_count"]),
    ("netir.serialize_network_s", "s", "self", ["netir.serialize_network"]),
    ("netir.predecessors_s", "s", "self", ["netir.NetworkIR.predecessors"]),
    ("netir.predecessors_calls", "count", "calls", ["netir.NetworkIR.predecessors"]),
    ("netir.consumers_s", "s", "self", ["netir.NetworkIR.consumers"]),
    ("netir.block_lookup_s", "s", "self", ["netir.NetworkIR.block"]),
    ("evalkit.precision_at_k_s", "s", "self", ["evalkit.precision_at_k"]),
]
SETUP_SPAN_METRICS = [
    ("evalkit.synth_activations_s", "s", "self", ["evalkit.synth_activations"]),
    ("evalkit.write_activation_dumps_s", "s", "self", ["evalkit.write_activation_dumps"]),
    ("featio.write_tensor_s", "s", "self", ["featio.write_tensor_file"]),
]
MODULE_SELF = ("cli", "featio", "sepstats", "planner", "rewriter", "netir", "evalkit")


class ChildTimeout(Exception):
    pass


class SetupFailed(Exception):
    pass


@dataclass
class Ops:
    """Operations attempted and failed: set-ups, CLI invocations and checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class Child:
    seconds: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def _alarm(signum, frame):
    raise ChildTimeout


def run_child(argv, env, log: Path) -> Child:
    """Run one process to its end; wall time and peak RSS from wait4.

    A process still running after CHILD_TIMEOUT_S is killed and reaped; its
    non-zero exit code makes it a failed operation for the caller.
    """
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                err.write(f"\nkilled after {CHILD_TIMEOUT_S} s\n".encode())
        except BaseException:  # interrupt: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, usage.ru_maxrss / 1024, proc.returncode,
                 log.with_suffix(".out").read_text())


def trimmed_mean(values) -> float:
    """Mean of the samples without the fastest and slowest tenth of them.

    The shared machine runs at two speeds about 40 % apart, switching every
    few tens of seconds.  When a run spans both, its median jumps to one
    level or the other, while the mean moves with the share of time spent
    at each; leaving out a tenth at either end still drops a rare stall.
    """
    v = sorted(values)
    cut = len(v) // 10
    return statistics.fmean(v[cut:len(v) - cut])


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({v: str(nproc) for v in THREAD_VARS})
    return env


def warm(paths):
    """Read every input once so the timed commands start with a warm cache."""
    for p in paths:
        with open(p, "rb") as fh:
            while fh.read(1 << 24):
                pass


def input_files(inputs: Path) -> list[Path]:
    return sorted(p for p in inputs.rglob("*") if p.is_file())


def output_digest(out: Path, stdouts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for p in sorted(q for q in out.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(out)).encode() + b"\0")
        with open(p, "rb") as fh:
            while chunk := fh.read(1 << 24):
                h.update(chunk)
    for name in sorted(stdouts):
        h.update(name.encode() + b"\0" + stdouts[name].encode())
    return h.hexdigest()


def cli_argv(spec, paths, out):
    return spec.commands(str(paths["ir"]), str(paths["manifest"]), str(paths["scores"]),
                         str(paths["truth"]), str(out))


# ---------------------------------------------------------------- timed run


def timed_run(spec, work: Path, seconds: float, env, ops: Ops):
    from setup_inputs import INPUT_NAMES

    logs = work / "logs"
    logs.mkdir(parents=True)
    inputs = work / "inputs"
    setup = []
    for i in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        r = run_child([sys.executable, str(BENCH / "setup_inputs.py"), "--workload", spec.workload,
                       "--seed", str(spec.seed), "--size", spec.size, "--out", str(inputs)],
                      env, logs / f"setup{i}")
        ops.record(r.returncode == 0, f"set-up {i} exited {r.returncode}")
        if r.returncode:
            raise SetupFailed((logs / f"setup{i}.err").read_text()[-2000:])
        setup.append(r)
    paths = {k: inputs / v for k, v in INPUT_NAMES.items()}
    warm(input_files(inputs))

    out = work / "out"
    samples = {name: [] for name in COMMANDS}
    rss = {name: [] for name in COMMANDS}
    stdouts = {}

    def run(name, argv) -> bool:
        r = run_child([sys.executable, "-m", "convrefine", *argv], env,
                      logs / f"{name}{len(samples[name])}")
        ops.record(r.returncode == 0, f"{name} exited {r.returncode}")
        samples[name].append(r.seconds)
        rss[name].append(r.peak_rss_mb)
        stdouts[name] = r.stdout
        return r.returncode == 0

    # One pass in order puts every output in place (apply reads plan's
    # file); every later run of a command must leave the same bytes.
    commands = dict(cli_argv(spec, paths, out))
    ok = {name: run(name, argv) for name, argv in commands.items()}
    first_digest = output_digest(out, stdouts)
    # Then each timed command gets its own budget: a quarter of the run and
    # at least MIN_SAMPLES samples, so a slow command does not hold back the
    # samples of the quick ones.  The command least far on its budget runs
    # next, so every command's samples spread over the whole run, whose
    # speed changes from one part to the next on a shared machine.  A
    # command that failed stops.
    share = seconds / len(TIMED)

    def progress(name):
        spent = sum(samples[name]) / share if share else math.inf
        return min(spent, len(samples[name]) / MIN_SAMPLES)

    while todo := [n for n in TIMED if ok[n] and progress(n) < 1.0]:
        name = min(todo, key=progress)
        ok[name] = run(name, commands[name])
    ops.record(output_digest(out, stdouts) == first_digest,
               "outputs after the timed runs differ from the first pass")

    metrics = {
        "setup_s": statistics.median(r.seconds for r in setup),
        "setup_peak_rss_mb": statistics.median(r.peak_rss_mb for r in setup),
        "analyze_s": trimmed_mean(samples["analyze"]),
        "analyze_peak_rss_mb": statistics.median(rss["analyze"]),
        "plan_s": trimmed_mean(samples["plan"]),
        "plan_peak_rss_mb": statistics.median(rss["plan"]),
        "sweep_s": trimmed_mean(samples["sweep"]),
        "precision_s": trimmed_mean(samples["precision"]),
    }
    record = {
        "samples_s": {"setup": [r.seconds for r in setup], **samples},
        "median_s": {name: statistics.median(v) for name, v in samples.items()},
        "peak_rss_mb": {"setup": [r.peak_rss_mb for r in setup], **rss},
    }
    return paths, out, stdouts, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, record


# --------------------------------------------------------------- traced run


def run_in_process(cli, commands, tracer, ops: Ops) -> tuple[float, dict[str, str]]:
    """Run the command sequence through cli.main; stdout is captured."""
    stdouts = {}
    start = time.perf_counter()
    for name, argv in commands:
        buf = io.StringIO()
        span = tracer.span(f"bench.{name}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            # A fresh filter state per command prints each warning once per
            # command, as a new process would.
            warnings.simplefilter("default")
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc(file=sys.__stderr__)
                rc = -1
        ops.record(rc == 0, f"{name} returned {rc}")
        stdouts[name] = buf.getvalue()
    return time.perf_counter() - start, stdouts


def import_seconds(env, logs: Path) -> float:
    """Wall time of `import convrefine.cli` in a fresh interpreter (numpy included)."""
    code = ("import time; t = time.perf_counter(); import convrefine.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(3):
        r = run_child([sys.executable, "-c", code], env, logs / f"import{i}")
        if r.returncode:
            raise RuntimeError("convrefine does not import from src/")
        times.append(float(r.stdout))
    return statistics.median(times)


def traced_run(spec, work: Path, env, ops: Ops):
    from setup_inputs import build_inputs
    from tracer import Tracer

    logs = work / "logs"
    logs.mkdir(parents=True)
    import_s = import_seconds(env, logs)
    sys.path.insert(0, str(SRC))
    import convrefine.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"convrefine was imported from {cli.__file__}, not {SRC}")
    setup = Tracer()
    setup.install()
    try:
        with setup.span("bench.setup"):
            paths = build_inputs(spec, work / "inputs")
        ops.record(True, "set-up")
    except Exception as exc:
        ops.record(False, "set-up")
        raise SetupFailed(traceback.format_exc()[-2000:]) from exc
    finally:
        setup.uninstall()
    warm(input_files(work / "inputs"))
    out = work / "out"
    commands = cli_argv(spec, paths, out)
    # The first pass pays one-off costs (first writes of every output file,
    # lazy imports), so it is run untimed.  Plain and traced passes then
    # alternate, so that the machine's drift falls on both alike.
    run_in_process(cli, commands, None, ops)
    plain, traced, per_pass = [], [], []
    for _ in range(TRACE_PAIRS):
        seconds, _ = run_in_process(cli, commands, None, ops)
        plain.append(seconds)
        tracer = Tracer()
        tracer.install()
        try:
            seconds, stdouts = run_in_process(cli, commands, tracer, ops)
        finally:
            tracer.uninstall()
        traced.append(seconds)
        per_pass.append(layer_metrics(setup, tracer, import_s))
    metrics = {k: (statistics.median(m[k][0] for m in per_pass), unit)
               for k, (_, unit) in per_pass[0].items()}
    metrics["trace.untraced_s"] = (statistics.median(plain), "s")
    metrics["trace.traced_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(t - u for t, u in zip(traced, plain)), "s")
    record = {"samples_s": {"untraced": plain, "traced": traced}}
    return paths, out, stdouts, metrics, record


def layer_metrics(setup, traced, import_s):
    """Per-layer metrics of one traced pass; the set-up ones from the traced set-up."""
    m = {}
    for tracer, table in ((traced, SPAN_METRICS), (setup, SETUP_SPAN_METRICS)):
        self_t, _ = tracer.self_times_and_roots()
        for metric, unit, what, names in table:
            sel = [i for i, span in enumerate(tracer.spans) if span[0] in names]
            m[metric] = (len(sel) if what == "calls" else sum(self_t[i] for i in sel), unit)

    spans, attrs = traced.spans, traced.attrs
    self_t, roots = traced.self_times_and_roots()
    reads = [i for i, span in enumerate(spans) if span[0] == "featio.read_tensor_file"]
    read_mb = sum(attrs[i]["bytes"] for i in reads) / 2**20
    m["featio.read_mb"] = (read_mb, "MB")
    m["featio.read_mb_per_s"] = (read_mb / max(m["featio.read_tensor_s"][0], 1e-9), "MB/s")
    m["featio.read_peak_traced_mb"] = (max((attrs[i]["peak"] for i in reads), default=0) / 2**20,
                                       "MB")
    writes = [i for i, span in enumerate(setup.spans) if span[0] == "featio.write_tensor_file"]
    m["featio.write_mb"] = (sum(setup.attrs[i]["bytes"] for i in writes) / 2**20, "MB")
    m["cli.import_s"] = (import_s, "s")
    for mod in MODULE_SELF:
        m[f"{mod}.self_s"] = (sum(t for span, t in zip(spans, self_t)
                                  if span[0].startswith(mod + ".")), "s")

    def share(command, prefixes):
        root = next(i for i, span in enumerate(spans) if span[0] == f"bench.{command}")
        part = sum(self_t[i] for i in range(len(spans))
                   if roots[i] == root and spans[i][0].startswith(prefixes))
        return part / (spans[root][2] - spans[root][1])

    m["share.plan_in_read_pool"] = (
        share("plan", ("featio.read_tensor_file", "featio.spatial_average_pool")), "ratio")
    m["share.sweep_in_graph"] = (share("sweep", ("planner.", "rewriter.", "netir.")), "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


# ------------------------------------------------------------------ context


def context_record(spec, inputs: Path, nproc: int) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    mem_mb = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                mem_mb = int(line.split()[1]) / 1024
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    files = {str(p.relative_to(inputs)): p.stat().st_size for p in input_files(inputs)}
    return {
        "workload": spec.workload,
        "size": spec.size,
        "seed": spec.seed,
        "subseeds": spec.seeds(),
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "mem_available_mb": mem_mb,
        "classes": spec.num_classes,
        "images": spec.num_images,
        "blocks": len(spec.widths),
        "sweep_steps": spec.sweep_steps,
        "input_bytes": sum(files.values()),
        "input_files": files,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="convrefine benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="bench", help="bench (default) or smoke")
    args = ap.parse_args(argv)

    if not (SRC / "convrefine" / "__init__.py").is_file():
        print(f"error: no convrefine sources at {SRC}", file=sys.stderr)
        return 2
    # Load comes from this one process and its children: BLAS gets as many
    # threads as there are CPUs, no more.
    nproc = len(os.sched_getaffinity(0))
    os.environ.update({v: str(nproc) for v in THREAD_VARS})
    from oracle import run_checks
    from workloads import make_spec

    spec = make_spec(args.workload, args.seed, args.size)
    work = ROOT / ".bench_work" / f"{spec.workload}-{spec.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env(nproc)
    ops = Ops()
    try:
        try:
            if args.trace:
                paths, out, stdouts, metrics, extra = traced_run(spec, work, env, ops)
            else:
                paths, out, stdouts, metrics, extra = timed_run(spec, work, args.seconds, env,
                                                                ops)
        except SetupFailed as exc:
            print(f"error: set-up failed:\n{exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": ops.attempted, "failed": ops.failed,
                              "metrics": {}}))
            return 1
        oracle_start = time.perf_counter()
        checks, summary = run_checks(spec, paths, out, stdouts)
        extra["oracle_s"] = time.perf_counter() - oracle_start
        for c in checks:
            ops.record(c.ok, f"{c.name}: {c.detail}")
        context = context_record(spec, work / "inputs", nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    context.update(extra, oracle=summary, checks=len(checks), failures=ops.failures[:20])
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
