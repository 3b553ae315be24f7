"""Every command's output on random graphs, checked by bench/oracle.py: the
one exact reference of the tests, which must stay independent of the code
it checks."""

import contextlib
import dataclasses
import io
import math
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import oracle
import workloads
from hypothesis import assume, given, settings, strategies as st
from setup_inputs import build_inputs

from convrefine import cli, featio
from convrefine.evalkit import uniform_target
from convrefine.netir import serialize_network

from conftest import networks


@dataclass
class RepeatingSpec(workloads.Spec):
    """A workload whose ``repeat`` blocks all share one uniform target ``rho``.

    A repeated block fed by another one alone tallies all ties, n+ = n- = 0.
    """

    repeat: tuple = ()
    rho: float = 0.3

    def targets(self):
        out = super().targets()
        out.update((name, uniform_target(self.num_classes, self.rho)) for name in self.repeat)
        return out


@st.composite
def random_specs(draw):
    """A random DAG with at least one edge, and small dumps for it.

    The dumps' M classes need every width to exceed M.
    """
    m = draw(st.integers(2, 6))
    ir = draw(networks(min_width=m + 1))
    assume(ir.edges)  # oracle.check_tallies fails on the empty tallies.txt of an edgeless IR
    names = [b.name for b in ir.blocks]
    return RepeatingSpec(
        workload="random-dag", size="smoke", seed=draw(st.integers(0, 2**16)),
        ir_text=serialize_network(ir), widths={b.name: b.out_channels for b in ir.blocks},
        levels={n: draw(st.sampled_from([0.1, 0.3, 0.5, 0.7])) for n in names},
        num_classes=m, images_per_class=draw(st.integers(1, 4)),
        spatial=draw(st.sampled_from([None, (2, 2), (1, 3)])), noise=0.05,
        sweep_steps=draw(st.integers(1, 5)), k=draw(st.integers(1, m)),
        extra_positives=draw(st.integers(0, 1)),
        repeat=tuple(n for n in names if draw(st.integers(0, 3)) > 0),  # three in four
        rho=draw(st.sampled_from([0.0, 0.2, 0.45])),
    )


def shift_and_scale_layers(spec, manifest):
    """Give each layer's dump its own offset and power-of-two scale, in float32.

    synth's class means are centred with unit norm, so without this a
    concatenation of raw means reads the same as one of centred, unit-scaled
    means.
    """
    rng = np.random.default_rng(spec.subseed("affine"))
    layers, _ = oracle.read_manifest(manifest)
    for path in layers.values():
        scale = np.float32(2.0 ** rng.integers(-3, 4))
        featio.write_tensor_file(path, oracle.read_atns(path) * scale
                                 + np.float32(rng.uniform(-2.0, 2.0)))


def exact_refine(blocks, factors):
    """bench/oracle.py's ``refine``, with the width rule of ``rewriter.refine_widths``.

    The oracle rounds the float64 product out * stretch half up, so it misses
    the half of 50 * 1.15 (57.49999999999999 in float64), which a sweep row
    at lambda 0.05 can reach.  The rewriter rounds out times the stretch as
    the plan file and sweep.csv print it, Fraction(repr(stretch)).  This
    stand-in serves the checks below until bench/oracle.py takes that rule.
    """
    group = {b.name: b.group * factors[b.name][1] for b in blocks}
    width = {}
    for b in blocks:
        raw = math.floor(b.out_channels * Fraction(repr(factors[b.name][0])) + Fraction(1, 2))
        step = math.lcm(group[b.name], *(group[c.name] for c in blocks if b.name in c.prev))
        width[b.name] = -(-raw // step) * step
    return [dataclasses.replace(b, out_channels=width[b.name], group=group[b.name],
                                in_channels=sum(width[p] for p in b.prev) if b.prev else b.in_channels)
            for b in blocks]


@settings(max_examples=30, deadline=None)
@given(random_specs())
def test_every_output_matches_the_oracle_on_random_dags(spec):
    # the workload-design checks (props.*) ask for targets hit and a
    # non-trivial plan, which a random graph need not give
    with tempfile.TemporaryDirectory() as tmp:
        inputs = build_inputs(spec, Path(tmp) / "inputs")
        shift_and_scale_layers(spec, inputs["manifest"])
        out = Path(tmp) / "out"
        stdouts = {}
        for name, argv in spec.commands(*(str(inputs[key]) for key in
                                          ("ir", "manifest", "scores", "truth")), str(out)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")  # width rounding warns; not an error here
                assert cli.main(argv) == 0, (name, stderr.getvalue())
            stdouts[name] = stdout.getvalue()
        with mock.patch.object(oracle, "refine", exact_refine):
            checks, _ = oracle.run_checks(spec, inputs, out, stdouts)
    failed = [c for c in checks if not c.ok and not c.name.startswith("props.")]
    assert not failed, failed


def test_oracle_imports_no_convrefine_module():
    # -I leaves out PYTHONPATH and the working directory: only bench/ is added
    bench = str(Path(__file__).parent.parent / "bench")
    code = (f"import sys; sys.path.insert(0, {bench!r}); import oracle;"
            " print(sorted(m for m in sys.modules if m.partition('.')[0] == 'convrefine'))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
