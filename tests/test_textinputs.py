"""Every malformed IR, plan, manifest or synth profile ends in an error naming the file.

Text inputs are small soups of each grammar's own tokens plus separators,
comment marks, empty values and non-ASCII text.  A parser either succeeds or
raises its ValueError subclass, whose message starts with the source name
and, for an error on one line, with ``<source>:<n>:`` for a record line n
(neither blank nor a ``#`` comment).  Synth profiles are valid small
profiles mutated key by key, run through the command line.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convrefine.cli import main
from convrefine.featio import ManifestError, scan_manifest, write_labels_file, write_tensor_file
from convrefine.netir import _NAME_RE, IRSyntaxError, IRValidationError, parse_network
from convrefine.planner import PlanError, parse_plan

from conftest import one_stage_ir

COMMON = ["=", "#", "#c", "", "é", "名", "\u00a0", "\f", "\u2028", "\r", "a", "b"]
IR_TOKENS = COMMON + [
    "block", "in=3", "in=4", "in=", "in=-3", "out=4", "k=1x1", "k=3", "k=x1", "group=1",
    "group=2", "stage=0", "stage=1", "stage=١", "bias", "excluded", "bias=1", "prev=a",
    "prev=", "prev=a,", "pad=1",
]
PLAN_TOKENS = COMMON + [
    "plan", "lambda=0.25", "lambda=", "lambda=0", "lambda", "lambda_o=0.5", "lambda_o=nan",
    "stretch=1.0", "stretch=1.25", "stretch=inf", "split=1", "split=2", "split=-2",
    "case=a", "case=b", "case=x", "case=",
]
MANIFEST_TOKENS = COMMON + ["layer", "labels", "a.atns", "l.atlb"]
# a block for every token that can name one, each as wide as a.atns
MANIFEST_IR = one_stage_ir({t: 3 for t in MANIFEST_TOKENS if _NAME_RE.fullmatch(t)})

SOUP = settings(max_examples=150, deadline=None)


def soups(tokens):
    line = st.lists(st.sampled_from(tokens), max_size=6).map(" ".join)
    return st.lists(line, max_size=6).map("\n".join)


def assert_names_source(message, source, text, per_line):
    """``message`` reads ``<source>:<n>: ...`` for a record line n, else ``<source>: ...``."""
    records = {
        n for n, line in enumerate(text.split("\n"), start=1)
        if line.split() and not line.split()[0].startswith("#")
    }
    m = re.match(rf"{re.escape(str(source))}:(\d+): ", message)
    if per_line is not False and m:
        assert int(m.group(1)) in records, message
    else:
        assert per_line is not True, message
        assert message.startswith(f"{source}: "), message


@SOUP
@given(soups(IR_TOKENS))
def test_ir_soup_fails_only_with_file_and_line(text):
    try:
        parse_network(text, "net.ir")
    except IRSyntaxError as exc:
        assert_names_source(str(exc), "net.ir", text, per_line=True)
    except IRValidationError as exc:
        assert_names_source(str(exc), "net.ir", text, per_line=False)


@SOUP
@given(soups(PLAN_TOKENS))
def test_plan_soup_fails_only_with_file_and_line(text):
    try:
        parse_plan(text, "p.plan")
    except PlanError as exc:
        assert_names_source(str(exc), "p.plan", text, per_line=None)


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    """One two-image dump and its labels, for the manifest soups to name."""
    root = tmp_path_factory.mktemp("soup")
    write_tensor_file(root / "a.atns", np.arange(6.0).reshape(2, 3))
    write_labels_file(root / "l.atlb", np.array([0, 1]))
    return root


@SOUP
@given(text=soups(MANIFEST_TOKENS))
# a name no block can carry, before and after the labels line
@example(text="layer é a.atns\nlabels l.atlb")
@example(text="labels l.atlb\nlayer é a.atns")
def test_manifest_soup_fails_only_with_file_and_line(dump_dir, text):
    path = dump_dir / "m.txt"
    path.write_text(text, encoding="utf-8")
    try:
        dict(scan_manifest(path, MANIFEST_IR))
    except ManifestError as exc:
        # lines as the file reads back: a lone "\r" ends a line there
        assert_names_source(str(exc), path, path.read_text(encoding="utf-8"), per_line=None)
    except FileNotFoundError as exc:
        # a file that a line names is missing
        assert str(dump_dir) in str(exc)


_DELETE = object()


def _bad(*extra):
    """Values of the wrong type or range for any profile key, plus ``extra``."""
    return [None, "x", [], {}, True, math.nan, math.inf, -math.inf, -1, 0, *extra]


@st.composite
def mutated_profiles(draw):
    """A valid profile of at most 4 classes, 4 images a class and width 16,
    with up to two of its keys deleted or given a bad value.

    No value asks for more: a bad count or width is small, and only the
    float keys (noise, rho, matrix entries) get huge values.
    """
    def sample(values):
        return draw(st.sampled_from(values))

    m = draw(st.integers(2, 4))
    identity = np.eye(m).tolist()
    layers = []
    for i in range(draw(st.integers(1, 3))):
        layer = {"name": f"l{i}", "width": draw(st.integers(m + 1, 16))}
        if draw(st.booleans()):
            layer["rho"] = draw(st.floats(-0.2, 0.9))
        else:
            layer["matrix"] = identity
        layers.append(layer)
    profile = {"num_classes": m, "images_per_class": draw(st.integers(1, 4)), "layers": layers}
    if draw(st.booleans()):
        profile["noise"] = sample([0.0, 0.05, 1.0, 1e39])  # 1e39 overflows float32

    def nudged(i, j, value):
        rows = [list(row) for row in identity]
        rows[i][j] = value
        return rows

    bad = {
        "num_classes": _bad(1, 2.5, "3", 8),
        "images_per_class": _bad(4, "2", 1.5),
        "noise": _bad(1e39, 1e308, -1e-9, 0.0),
        "layers": _bad([None], ["x"], [{}]),
        "name": _bad("", "a b", "a\n", "é", "l0"),  # "l0" is a duplicate past layer 0
        "width": _bad(1, m, "8", 16),
        "rho": _bad(-0.9, 1.0, 1.5, 1e39, -1e39),
        "matrix": _bad(
            identity[:-1], [row + [0.0] for row in identity] + [[0.0] * (m + 1)],
            [identity[0], identity[1][:-1], *identity[2:]], identity[0], [identity],
            nudged(0, 1, 0.5), nudged(0, 0, 2.0), nudged(0, 1, math.nan),
            nudged(1, 1, math.inf), [[v if (i, j) != (0, 1) else "x" for j, v in enumerate(row)]
                                     for i, row in enumerate(identity)],
            [[1e39 if i != j else 1.0 for j in range(m)] for i in range(m)],
            [[-1.0 if i != j else 1.0 for j in range(m)] for i in range(m)],
        ),
    }
    spots = [(holder, key) for holder in (profile, *layers) for key in holder]
    spots.append((profile, "noise"))  # also when it was left out
    for _ in range(sample([0, 1, 1, 2])):
        holder, key = sample(spots)
        value = sample([_DELETE, *bad[key]])
        if value is _DELETE:
            holder.pop(key, None)
        else:
            holder[key] = value
    if draw(st.integers(0, 5)) == 0:  # a layer with both targets
        layers[0].update(rho=0.1, matrix=identity)
    return profile


@settings(max_examples=300, deadline=None)
@given(mutated_profiles(), st.booleans())
def test_synth_fuzz_fails_only_naming_the_profile(profile, flat):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "profile.json", Path(tmp) / "dumps"
        path.write_text(json.dumps(profile))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(["synth", "--profile", str(path), "--out", str(out), *(["--flat"] if flat else [])])
    err = stderr.getvalue()
    if rc == 0:
        assert err == ""
        return
    assert rc == 1 and err.count("\n") == 1, err
    if err.startswith(f"error: {path}: "):
        return
    # a huge noise overflows float32 only when a dump, named after its layer, is
    # written; a valid profile got this far, so its layers hold their names
    names = "|".join(re.escape(layer["name"]) for layer in profile["layers"])
    refused = rf"error: {re.escape(str(out))}/({names})\.atns: refusing to write non-finite values\n"
    assert re.fullmatch(refused, err), err
