"""Command-line front end.

Subcommands: analyze, plan, apply, sweep, synth, precision.
Activation dumps are always inputs, produced by whatever framework trained
the network; everything here is deterministic given its inputs, warnings go
to stderr, data goes to files under --out.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import evalkit, featio, netir, planner, rewriter, sepstats


def _read_ir(path) -> netir.NetworkIR:
    return netir.parse_network(netir.read_text(path, netir.IRSyntaxError), path)


def _statistics(args, ir, keep_matrices=False) -> tuple[dict, dict]:
    """Correlation matrices and tallies of ``ir``'s blocks from ``args.manifest``'s dumps,
    each dump streamed only after every header is checked."""
    sepstats.check_tie_tol(args.tie_tol)
    return sepstats.network_statistics(
        ir, featio.scan_manifest(args.manifest, ir), tie_tol=args.tie_tol,
        strict=args.strict_degenerate, keep_matrices=keep_matrices,
    )


def _outdirs(out, *subdirs) -> Path:
    base = Path(out)
    for sub in subdirs:
        (base / sub).mkdir(parents=True, exist_ok=True)
    return base


def _tally_table(ir, tallies) -> str:
    """One line per tally, in the order of ``tallies``: the IR's, as network_statistics gives."""
    return "\n".join(
        f"tally {name} stage={ir.block(name).stage} plus={t.n_plus} minus={t.n_minus}"
        f" ties={t.n_ties} total={t.n_total}" for name, t in tallies.items()
    ) + "\n"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_layer(dest, name, matrix) -> None:
    sepstats.write_correlation_csv(dest / f"{name}.corr.csv", matrix)
    sepstats.write_correlation_pgm(dest / f"{name}.corr.pgm", matrix)


def _write_maps(dest, layers) -> None:
    """Each layer's ``.corr.csv`` and ``.corr.pgm`` under ``dest``, one process per usable CPU.

    ``layers`` lists (name, matrix) pairs.  Formatting the CSV cells holds
    the interpreter lock, so the layers are dealt to forked children: child
    k writes layers k, k+shares, ... and this process writes share 0.  The
    children share the matrices copy-on-write and run no BLAS, only
    element-wise NumPy and file writes.  A child never returns into the
    caller's code: it leaves through ``os._exit``, with no atexit handlers
    and no flush of inherited stdio buffers, and reports only its exit
    status.  Every child is reaped before this returns.  If a share
    or a fork failed, this process then writes every layer again in order:
    a lasting failure raises the serial loop's first error, a passing one
    leaves complete outputs.
    """
    shares = max(1, min(len(layers), _usable_cpus() if hasattr(os, "fork") else 1))
    pids = []
    failed = False
    try:
        for k in range(1, shares):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for layer in layers[k::shares]:
                        _write_layer(dest, *layer)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        for layer in layers[::shares]:
            _write_layer(dest, *layer)
    except Exception:  # this share or a fork failed: every layer is rewritten below
        failed = True
    finally:
        for pid in pids:
            failed |= os.waitpid(pid, 0)[1] != 0
    if failed:
        for layer in layers:
            _write_layer(dest, *layer)


def cmd_analyze(args) -> int:
    ir = _read_ir(args.ir)
    matrices, tallies = _statistics(args, ir, keep_matrices=True)
    base = _outdirs(args.out, "analysis")
    _write_maps(base / "analysis", list(matrices.items()))
    (base / "analysis" / "tallies.txt").write_text(_tally_table(ir, tallies))
    print(
        f"analyzed {len(matrices)} layers, {len(tallies)} tallies"
        f" -> {base / 'analysis'}"
    )
    return 0


def cmd_plan(args) -> int:
    planner.check_lambda(args.lam)
    ir = _read_ir(args.ir)
    plan = planner.build_plan(ir, _statistics(args, ir)[1], args.lam)
    base = _outdirs(args.out, "plans")
    path = base / "plans" / f"lambda_{plan.lambda_used!r}.plan"
    path.write_text(planner.serialize_plan(plan))
    print(f"lambda_o={plan.lambda_o!r}")
    if plan.lambda_used > plan.lambda_o:
        print(
            f"warning: lambda {plan.lambda_used!r} exceeds lambda_o; plan is identity",
            file=sys.stderr,
        )
    print(f"plan -> {path}")
    return 0


def cmd_apply(args) -> int:
    ir = _read_ir(args.ir)
    plan = planner.parse_plan(netir.read_text(args.plan, planner.PlanError), args.plan)
    refined = rewriter.apply_plan(ir, plan)
    report = rewriter.size_report(ir, refined)
    base = _outdirs(args.out, "refined", "reports")
    (base / "refined" / "refined.ir").write_text(netir.serialize_network(refined))
    (base / "reports" / "size_report.txt").write_text(rewriter.render_size_report(report))
    (base / "reports" / "size_report.csv").write_text(rewriter.size_report_csv(report))
    print(f"reduction_pct={report.reduction_pct!r}")
    print(f"refined -> {base / 'refined' / 'refined.ir'}")
    return 0


def _sweep_rows(ir, terms, grid, lam_o):
    """The sweep.csv rows of the lambdas of ``grid``, in order.

    Every lambda is evaluated at once, in object arrays of Python ints.
    Each one ends as ``plan`` then ``apply`` would end it: factors that the
    planner flags raise check_factors' error, then its rounding warnings are
    issued, then a width or in-width past the u32 bound raises the error of
    refined_network's validation.  ``terms`` are block_terms of the tallies.
    """
    kernel_h = np.array([b.kernel_h for b in ir.blocks], dtype=object)[:, None]
    kernel_w = np.array([b.kernel_w for b in ir.blocks], dtype=object)[:, None]
    bias = np.array([b.has_bias for b in ir.blocks])[:, None]
    stretches, exponents = planner.factor_grid(ir, terms, grid)
    refused = (~np.isfinite(stretches) | (exponents >= 32)).any(axis=0)
    # a split of 2**32 already leaves the u32 bound, as any larger one does
    splits = np.exp2(np.minimum(exponents, 32)).astype(np.int64).astype(object)
    w = rewriter.refine_widths(ir, splits, stretches)
    too_wide = ((w.widths > netir._U32_MAX) | (w.in_widths > netir._U32_MAX)).any(axis=0)
    totals = netir.conv_params(w.in_widths, w.widths, kernel_h, kernel_w, w.groups, bias).sum(axis=0)
    for j, lam in enumerate(grid.tolist()):
        try:
            if refused[j]:
                planner.check_factors(ir, lam, stretches[:, j].tolist(), exponents[:, j].tolist())
            for i in np.flatnonzero(w.widths[:, j] != w.raw[:, j]).tolist():
                rewriter.warn_rounding(ir.blocks[i].name, w.raw[i, j], w.widths[i, j])
            if too_wide[j]:
                rewriter.refined_network(ir, w, j)
        except ValueError as exc:
            raise ValueError(f"lambda={lam!r}: {exc}") from None
        factors = zip(stretches[:, j].tolist(), splits[:, j].tolist())
        yield ",".join([repr(lam), str(int(lam > lam_o)), str(totals[j]),
                        *(f"{stretch!r},{split}" for stretch, split in factors)])


def cmd_sweep(args) -> int:
    lo = args.sweep_min
    hi = args.sweep_max
    if args.sweep_steps < 1:
        raise ValueError("sweep needs at least one grid point")
    planner.check_lambda(lo)
    if hi is not None and not math.isfinite(hi):
        raise ValueError(f"--sweep-max must be finite, got {hi}")
    if hi is not None and hi < lo:
        raise ValueError(f"sweep range is empty: [{lo}, {hi}]")
    ir = _read_ir(args.ir)
    terms = planner.block_terms(ir, _statistics(args, ir)[1])
    lam_o = planner.lambda_o(terms)
    grid = np.linspace(lo, max(lo, lam_o) if hi is None else hi, args.sweep_steps)
    header = ["lambda", "above_lambda_o", "conv_params"]
    for b in ir.blocks:
        header.extend((f"{b.name}_stretch", f"{b.name}_split"))
    rows = [f"# lambda_o={lam_o!r}", ",".join(header), *_sweep_rows(ir, terms, grid, lam_o)]
    base = _outdirs(args.out, "reports")
    path = base / "reports" / "sweep.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"lambda_o={lam_o!r}")
    print(f"sweep -> {path}")
    return 0


def cmd_synth(args) -> int:
    profile = evalkit.load_profile(args.profile)
    try:
        sets, labels = evalkit.synth_activations(profile, seed=args.seed)
    except ValueError as exc:
        raise ValueError(f"{args.profile}: {exc}") from None
    spatial = None if args.flat else (2, 2)
    manifest = evalkit.write_activation_dumps(
        args.out, sets, labels, spatial=spatial, seed=args.seed
    )
    print(f"manifest -> {manifest}")
    return 0


def cmd_precision(args) -> int:
    scores = featio.read_tensor_file(args.scores)
    truth = evalkit.read_truth_file(args.truth)
    precision = evalkit.precision_at_k(scores, truth, args.k, f"{args.scores}, {args.truth}")
    print(f"precision_at_k={precision!r}")
    return 0


def _add_common_inputs(p):
    p.add_argument("--ir", required=True, help="network IR file")
    p.add_argument("--manifest", required=True, help="activation manifest")
    p.add_argument("--tie-tol", type=float, default=sepstats.TIE_TOL, dest="tie_tol")
    p.add_argument("--strict-degenerate", action="store_true", dest="strict_degenerate")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="convrefine",
        description="class-separation analysis and stretch/split refinement of conv nets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="correlation heatmaps and separation tallies")
    _add_common_inputs(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("plan", help="compute stretch/split factors")
    _add_common_inputs(p)
    p.add_argument("--lambda", type=float, default=0.25, dest="lam")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("apply", help="rewrite an IR with a plan file")
    p.add_argument("--ir", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("sweep", help="factors and model size across a lambda grid")
    _add_common_inputs(p)
    p.add_argument("--sweep-min", type=float, default=0.05, dest="sweep_min")
    p.add_argument("--sweep-max", type=float, default=None, dest="sweep_max")
    p.add_argument("--sweep-steps", type=int, default=10, dest="sweep_steps")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("synth", help="generate synthetic activation dumps")
    p.add_argument("--profile", required=True, help="JSON correlation profile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--flat", action="store_true", help="write rank-2 tensors (no spatial grid)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("precision", help="precision@k over a prediction dump")
    p.add_argument("--scores", required=True, help="ATNS rank-2 score tensor")
    p.add_argument("--truth", required=True, help="ATMH multi-hot ground truth")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_precision)

    return ap


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
