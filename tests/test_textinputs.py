"""Every malformed IR, plan or manifest ends in its format's error, naming the file.

Inputs are small soups of each grammar's own tokens plus separators, comment
marks, empty values and non-ASCII text.  A parser either succeeds or raises
its ValueError subclass, whose message starts with the source name and, for
an error on one line, with ``<source>:<n>:`` for a record line n (neither
blank nor a ``#`` comment).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convrefine.featio import (
    ManifestError,
    TensorFormatError,
    load_manifest,
    write_labels_file,
    write_tensor_file,
)
from convrefine.netir import IRSyntaxError, IRValidationError, parse_network
from convrefine.planner import PlanError, parse_plan

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
def test_manifest_soup_fails_only_with_file_and_line(dump_dir, text):
    path = dump_dir / "m.txt"
    path.write_text(text, encoding="utf-8")
    try:
        load_manifest(path)
    except ManifestError as exc:
        # lines as the file reads back: a lone "\r" ends a line there
        assert_names_source(str(exc), path, path.read_text(encoding="utf-8"), per_line=None)
    except (TensorFormatError, FileNotFoundError) as exc:
        # the manifest parsed; a file it names is missing or of the wrong kind
        assert str(dump_dir) in str(exc)
