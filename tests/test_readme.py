"""README's `analyze` and `optimize` calls print the blocks README shows."""

import re
import shlex
from pathlib import Path

import pytest

from clbf import analytics
from clbf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# a ```sh block holding one clbf call, then the ``` block of its stdout
CALL = re.compile(r"```sh\nclbf ((?:analyze|optimize) [^\n]*)\n```\n\n```\n(.*?)```", re.S)
CALLS = CALL.findall(README.read_text(encoding="utf-8"))


def test_readme_shows_its_model_calls():
    assert [call.split()[0] for call, _ in CALLS] == ["analyze", "optimize", "optimize"]


@pytest.mark.parametrize("call,shown", CALLS, ids=[call for call, _ in CALLS])
def test_readme_call_prints_its_block(call, shown, capsys):
    analytics._occupancy_walk.cache_clear()  # a fresh process walks from zero
    assert main(shlex.split(call)) == 0
    got = capsys.readouterr().out.splitlines()
    want = shown.splitlines()
    assert len(got) == len(want)
    for line, block in zip(got, want):
        if " ... " in block:  # an abbreviated line: its two ends
            head, tail = block.split(" ... ")
            assert line.startswith(head + " ") and line.endswith(" " + tail), line
        else:
            assert line == block
