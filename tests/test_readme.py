"""README's code runs against the package as it is."""

import re
import shlex
from pathlib import Path

from convrefine import cli
from convrefine.evalkit import (
    SynthLayer,
    SynthProfile,
    synth_activations,
    uniform_target,
    write_activation_dumps,
)
from convrefine.netir import serialize_network

from conftest import chain_ir

README = Path(__file__).parent.parent / "README.md"


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    # the snippet reads net.ir and dumps/manifest.txt from the working directory
    text = README.read_text()
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    ir = chain_ir([16] * 4)
    (tmp_path / "net.ir").write_text(serialize_network(ir))
    layers = tuple(SynthLayer(b.name, 16, uniform_target(4, rho))
                   for b, rho in zip(ir.blocks, (0.6, 0.3, 0.5, 0.2)))
    sets, labels = synth_activations(SynthProfile(4, 3, layers), seed=3)
    write_activation_dumps(tmp_path / "dumps", sets, labels)
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [f"{b.name} (4, 4)" for b in ir.blocks]
    assert out[-1] == "0.6666666666666666"


def test_command_lines_parse():
    # a removed or renamed command or flag cannot linger in the README
    text = README.read_text()
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", text, re.S | re.M).group(1)
    lines = [line for line in block.splitlines() if line.startswith("convrefine ")]
    assert [shlex.split(line)[1] for line in lines] == [
        "synth", "analyze", "plan", "apply", "sweep", "precision"]
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])
